//! End-to-end tests pairing a client and a server [`Connection`] over an
//! in-memory wire.

use crate::*;
use vroom_hpack::HeaderField;

/// Pump bytes between the two endpoints until both are quiescent.
fn pump(client: &mut Connection, server: &mut Connection) {
    loop {
        let c2s = client.take_output();
        let s2c = server.take_output();
        if c2s.is_empty() && s2c.is_empty() {
            break;
        }
        if !c2s.is_empty() {
            server.recv(&c2s).expect("server recv");
        }
        if !s2c.is_empty() {
            client.recv(&s2c).expect("client recv");
        }
    }
}

fn handshake() -> (Connection, Connection) {
    let mut client = Connection::client(Settings::vroom_client());
    let mut server = Connection::server(Settings::default());
    pump(&mut client, &mut server);
    assert!(client.settings_acked());
    assert!(server.settings_acked());
    (client, server)
}

fn drain(conn: &mut Connection) -> Vec<Event> {
    let mut out = Vec::new();
    while let Some(e) = conn.poll_event() {
        out.push(e);
    }
    out
}

#[test]
fn handshake_exchanges_settings() {
    let (mut client, mut server) = handshake();
    let cev = drain(&mut client);
    let sev = drain(&mut server);
    assert!(cev.iter().any(|e| matches!(e, Event::PeerSettings(_))));
    assert!(cev.iter().any(|e| matches!(e, Event::SettingsAcked)));
    assert!(sev
        .iter()
        .any(|e| matches!(e, Event::PeerSettings(s) if s.initial_window_size > 65_535)));
}

#[test]
fn simple_get_roundtrip() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);

    let sid = client
        .send_request(&Request::get("a.com", "/index.html"), true)
        .unwrap();
    assert_eq!(sid, 1);
    pump(&mut client, &mut server);

    let sev = drain(&mut server);
    let (req_stream, req) = sev
        .iter()
        .find_map(|e| match e {
            Event::Headers {
                stream_id, fields, ..
            } => Some((*stream_id, Request::from_fields(fields).unwrap())),
            _ => None,
        })
        .expect("request received");
    assert_eq!(&*req.path, "/index.html");
    assert_eq!(&*req.authority, "a.com");

    server
        .send_response(req_stream, &Response::ok(), false)
        .unwrap();
    server.send_data(req_stream, b"hello body", true).unwrap();
    pump(&mut client, &mut server);

    let cev = drain(&mut client);
    let resp = cev
        .iter()
        .find_map(|e| match e {
            Event::Headers { fields, .. } => Some(Response::from_fields(fields).unwrap()),
            _ => None,
        })
        .expect("response");
    assert_eq!(resp.status, 200);
    let body: Vec<u8> = cev
        .iter()
        .filter_map(|e| match e {
            Event::Data { data, .. } => Some(data.to_vec()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(body, b"hello body");
    assert_eq!(client.stream_state(1), Some(StreamState::Closed));
    assert_eq!(server.stream_state(1), Some(StreamState::Closed));
}

#[test]
fn server_push_roundtrip() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);

    let sid = client
        .send_request(&Request::get("a.com", "/"), true)
        .unwrap();
    pump(&mut client, &mut server);
    drain(&mut server);

    // Server pushes /app.js before answering the HTML.
    let promised = server
        .push_promise(sid, &Request::get("a.com", "/app.js"))
        .unwrap();
    assert_eq!(promised, 2);
    server.send_response(sid, &Response::ok(), false).unwrap();
    server.send_data(sid, b"<html>", true).unwrap();
    server
        .send_response(
            promised,
            &Response::ok().with_header("content-type", "application/javascript"),
            false,
        )
        .unwrap();
    server.send_data(promised, b"var x;", true).unwrap();
    pump(&mut client, &mut server);

    let cev = drain(&mut client);
    let promise = cev
        .iter()
        .find_map(|e| match e {
            Event::PushPromise {
                promised_stream_id,
                fields,
                ..
            } => Some((*promised_stream_id, Request::from_fields(fields).unwrap())),
            _ => None,
        })
        .expect("push promise");
    assert_eq!(promise.0, 2);
    assert_eq!(&*promise.1.path, "/app.js");
    let pushed_body: Vec<u8> = cev
        .iter()
        .filter_map(|e| match e {
            Event::Data {
                stream_id: 2, data, ..
            } => Some(data.to_vec()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(pushed_body, b"var x;");
}

#[test]
fn push_rejected_when_client_disables_it() {
    let mut settings = Settings::vroom_client();
    settings.enable_push = false;
    let mut client = Connection::client(settings);
    let mut server = Connection::server(Settings::default());
    pump(&mut client, &mut server);
    drain(&mut server);

    let sid = client
        .send_request(&Request::get("a.com", "/"), true)
        .unwrap();
    pump(&mut client, &mut server);
    let err = server
        .push_promise(sid, &Request::get("a.com", "/x.js"))
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::ProtocolError);
}

#[test]
fn flow_control_blocks_and_window_update_releases() {
    // Tiny windows on the sender's side: client announces 100.
    let mut csettings = Settings::default();
    csettings.initial_window_size = 100;
    let mut client = Connection::client(csettings);
    let mut server = Connection::server(Settings::default());
    pump(&mut client, &mut server);
    drain(&mut client);
    drain(&mut server);

    let sid = client
        .send_request(&Request::get("a.com", "/big"), true)
        .unwrap();
    pump(&mut client, &mut server);
    drain(&mut server);

    server.send_response(sid, &Response::ok(), false).unwrap();
    let body = vec![0xabu8; 250];
    let sent1 = server.send_data(sid, &body, true).unwrap();
    assert_eq!(sent1, 100, "limited by the client's stream window");

    // Deliver; client consumes and auto-replenishes.
    pump(&mut client, &mut server);
    let got1: usize = drain(&mut client)
        .iter()
        .filter_map(|e| match e {
            Event::Data { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum();
    assert_eq!(got1, 100);

    let sent2 = server.send_data(sid, &body[sent1..], true).unwrap();
    assert_eq!(sent2, 100);
    pump(&mut client, &mut server);
    let sent3 = server.send_data(sid, &body[sent1 + sent2..], true).unwrap();
    assert_eq!(sent3, 50);
    pump(&mut client, &mut server);
    let got_rest: usize = drain(&mut client)
        .iter()
        .filter_map(|e| match e {
            Event::Data { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum();
    assert_eq!(got_rest, 150);
    assert_eq!(client.stream_state(sid), Some(StreamState::Closed));
}

#[test]
fn vroom_client_opens_the_connection_window() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);

    let sid = client
        .send_request(&Request::get("a.com", "/big"), true)
        .unwrap();
    pump(&mut client, &mut server);
    drain(&mut server);
    assert!(
        server.send_capacity(sid) > 65_535,
        "credit is not capped by the RFC's initial connection window"
    );

    // A 1 MiB body goes out in one call: no WINDOW_UPDATE round trip.
    server.send_response(sid, &Response::ok(), false).unwrap();
    let body = vec![0x5au8; 1 << 20];
    assert_eq!(server.send_data(sid, &body, true).unwrap(), body.len());
    pump(&mut client, &mut server);
    let got: usize = drain(&mut client)
        .iter()
        .filter_map(|e| match e {
            Event::Data { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum();
    assert_eq!(got, body.len());
    assert_eq!(client.stream_state(sid), Some(StreamState::Closed));
}

#[test]
fn default_window_clients_send_no_connection_window_update() {
    // Preface, then an empty SETTINGS frame.
    let mut default_bytes = PREFACE.to_vec();
    default_bytes.extend_from_slice(&[0, 0, 0, 0x4, 0, 0, 0, 0, 0]);
    assert_eq!(
        Connection::client(Settings::default()).take_output(),
        default_bytes
    );

    // Preface, then SETTINGS carrying INITIAL_WINDOW_SIZE = 100.
    let small = Settings {
        initial_window_size: 100,
        ..Settings::default()
    };
    let mut small_bytes = PREFACE.to_vec();
    small_bytes.extend_from_slice(&[0, 0, 6, 0x4, 0, 0, 0, 0, 0, 0, 0x4, 0, 0, 0, 100]);
    assert_eq!(Connection::client(small).take_output(), small_bytes);
}

#[test]
fn roomy_window_client_follows_settings_with_one_connection_update() {
    let settings = Settings::vroom_client();
    let mut expected = PREFACE.to_vec();
    Frame::Settings {
        ack: false,
        entries: settings.to_entries(),
    }
    .encode(&mut expected);
    Frame::WindowUpdate {
        stream_id: 0,
        increment: settings.initial_window_size - 65_535,
    }
    .encode(&mut expected);
    assert_eq!(Connection::client(settings).take_output(), expected);
}

#[test]
fn large_header_block_splits_into_continuation() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);

    // Build a header block far larger than the 16 KiB max frame size.
    let mut req = Request::get("a.com", "/");
    for i in 0..40usize {
        req.headers.push(HeaderField::new(
            format!("x-filler-{i}"),
            // Low-entropy but non-repeating values defeat both HPACK
            // indexing and Huffman gains enough to stay large.
            (0..800usize)
                .map(|j| ((i * 7 + j * 13) % 26 + 97) as u8 as char)
                .collect::<String>(),
        ));
    }
    let sid = client.send_request(&req, true).unwrap();
    let wire = client.take_output();
    assert!(wire.len() > 16_384, "block should exceed one frame");
    server.recv(&wire).unwrap();
    let sev = drain(&mut server);
    let got = sev
        .iter()
        .find_map(|e| match e {
            Event::Headers { fields, .. } => Some(Request::from_fields(fields).unwrap()),
            _ => None,
        })
        .expect("reassembled request");
    assert_eq!(got.headers.len(), req.headers.len());
    assert_eq!(got, req);
    let _ = sid;
}

#[test]
fn interleaved_frame_inside_header_block_is_protocol_error() {
    let (mut client, mut server) = handshake();
    drain(&mut server);
    // Hand-craft: HEADERS without END_HEADERS, then a PING.
    let mut buf = Vec::new();
    Frame::Headers {
        stream_id: 1,
        fragment: &[0x82],
        end_stream: false,
        end_headers: false,
    }
    .encode(&mut buf);
    Frame::Ping {
        ack: false,
        payload: [0; 8],
    }
    .encode(&mut buf);
    let err = server.recv(&buf).unwrap_err();
    assert_eq!(err.code, ErrorCode::ProtocolError);
    // Server queued a GOAWAY for the client.
    let out = server.take_output();
    assert!(!out.is_empty());
    client.recv(&out).unwrap();
    assert!(drain(&mut client)
        .iter()
        .any(|e| matches!(e, Event::Goaway { .. })));
}

/// One frame's wire bytes, built by hand.
fn raw_frame(ty: u8, flags: u8, stream_id: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = (payload.len() as u32).to_be_bytes()[1..].to_vec();
    buf.extend_from_slice(&[ty, flags]);
    buf.extend_from_slice(&stream_id.to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn peer_priority_is_parsed_and_dropped() {
    use frame::flags::{END_HEADERS, END_STREAM, PRIORITY};
    let block = vroom_hpack::Encoder::new().encode(&Request::get("a.com", "/").to_fields());
    // The same request on stream 1, once plain and once carrying priority
    // fields (exclusive dependency on stream 0, weight 32).
    let plain = raw_frame(0x1, END_STREAM | END_HEADERS, 1, &block);
    let prioritized = raw_frame(
        0x1,
        END_STREAM | END_HEADERS | PRIORITY,
        1,
        &[&[0x80, 0, 0, 0, 31], block.as_slice()].concat(),
    );
    let priority = |len: usize, stream_id: u32| raw_frame(0x2, 0, stream_id, &vec![0; len]);
    let serve = |wire: &[u8]| {
        let (_, mut server) = handshake();
        drain(&mut server);
        let res = server.recv(wire);
        (
            res,
            drain(&mut server),
            frames_of(&server.take_output()).len(),
        )
    };

    let (res, opened, _) = serve(&plain);
    res.unwrap();
    assert!(matches!(
        opened.as_slice(),
        [Event::Headers {
            stream_id: 1,
            end_stream: true,
            ..
        }]
    ));
    assert_eq!(serve(&prioritized).1, opened);
    // PRIORITY frames on an idle and on an open stream raise no event and
    // send nothing.
    let wire = [priority(5, 3), plain.clone(), priority(5, 1)].concat();
    let (res, events, sent) = serve(&wire);
    res.unwrap();
    assert_eq!(events, opened);
    assert_eq!(sent, 0);
    // A malformed PRIORITY frame still ends the connection, and so does a
    // PRIORITY or unknown-type frame inside an open header block (RFC 9113
    // §5.5).
    let open_block = raw_frame(0x1, 0, 1, &block);
    let unknown = raw_frame(0xbe, 0, 1, &[]);
    for (wire, code) in [
        (priority(4, 3), ErrorCode::FrameSizeError),
        (priority(5, 0), ErrorCode::ProtocolError),
        (
            [open_block.as_slice(), &priority(5, 3)].concat(),
            ErrorCode::ProtocolError,
        ),
        (
            [open_block.as_slice(), &unknown].concat(),
            ErrorCode::ProtocolError,
        ),
    ] {
        let (res, events, sent) = serve(&wire);
        assert_eq!(res.unwrap_err().code, code);
        assert!(events.is_empty());
        assert_eq!(sent, 1, "one GOAWAY");
    }
}

#[test]
fn bad_preface_rejected() {
    let mut server = Connection::server(Settings::default());
    let err = server.recv(b"GET / HTTP/1.1\r\n").unwrap_err();
    assert_eq!(err.code, ErrorCode::ProtocolError);
}

#[test]
fn preface_accepted_byte_by_byte() {
    let mut client = Connection::client(Settings::default());
    let mut server = Connection::server(Settings::default());
    let bytes = client.take_output();
    for b in bytes.iter() {
        server.recv(&[*b]).unwrap();
    }
    assert!(!server.take_output().is_empty(), "settings + ack queued");
}

#[test]
fn ping_is_answered() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    client.ping(*b"12345678");
    pump(&mut client, &mut server);
    assert!(drain(&mut client)
        .iter()
        .any(|e| matches!(e, Event::PingAcked(p) if p == b"12345678")));
}

#[test]
fn goaway_prevents_new_requests() {
    let (mut client, mut server) = handshake();
    server.goaway(ErrorCode::NoError, "maintenance");
    pump(&mut client, &mut server);
    drain(&mut client);
    let err = client
        .send_request(&Request::get("a.com", "/"), true)
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::RefusedStream);
}

#[test]
fn reset_stream_roundtrip() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);
    let sid = client
        .send_request(&Request::get("a.com", "/slow"), true)
        .unwrap();
    pump(&mut client, &mut server);
    drain(&mut server);
    client.reset_stream(sid, ErrorCode::Cancel);
    pump(&mut client, &mut server);
    assert!(drain(&mut server).iter().any(
        |e| matches!(e, Event::StreamReset { stream_id, code } if *stream_id == sid && *code == ErrorCode::Cancel)
    ));
    // Late response on the reset stream fails locally.
    assert!(server.send_response(sid, &Response::ok(), true).is_err());
}

#[test]
fn hpack_state_survives_many_requests() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);
    for i in 0..50 {
        let req = Request::get("cdn.example.com", format!("/asset/{i}.js"))
            .with_header("user-agent", "vroom-browser/0.1")
            .with_cookie(format!("session=xyz{i}"));
        let sid = client.send_request(&req, true).unwrap();
        pump(&mut client, &mut server);
        let sev = drain(&mut server);
        let got = sev
            .iter()
            .find_map(|e| match e {
                Event::Headers { fields, .. } => Some(Request::from_fields(fields).unwrap()),
                _ => None,
            })
            .expect("request");
        assert_eq!(got, req);
        server.send_response(sid, &Response::ok(), true).unwrap();
        pump(&mut client, &mut server);
        drain(&mut client);
    }
}

#[test]
fn concurrent_streams_multiplex() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);
    // Open 10 requests before any response.
    let sids: Vec<u32> = (0..10)
        .map(|i| {
            client
                .send_request(&Request::get("a.com", format!("/r{i}")), true)
                .unwrap()
        })
        .collect();
    assert_eq!(sids, vec![1, 3, 5, 7, 9, 11, 13, 15, 17, 19]);
    pump(&mut client, &mut server);
    let reqs = drain(&mut server);
    assert_eq!(
        reqs.iter()
            .filter(|e| matches!(e, Event::Headers { .. }))
            .count(),
        10
    );
    // Answer in reverse order — multiplexing means that's fine.
    for &sid in sids.iter().rev() {
        server.send_response(sid, &Response::ok(), false).unwrap();
        server
            .send_data(sid, format!("body-{sid}").as_bytes(), true)
            .unwrap();
    }
    pump(&mut client, &mut server);
    let cev = drain(&mut client);
    for &sid in &sids {
        let body: Vec<u8> = cev
            .iter()
            .filter_map(|e| match e {
                Event::Data {
                    stream_id, data, ..
                } if *stream_id == sid => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(body, format!("body-{sid}").into_bytes());
    }
}

#[test]
fn max_concurrent_streams_refuses_excess() {
    let mut ssettings = Settings::default();
    ssettings.max_concurrent_streams = Some(2);
    let mut client = Connection::client(Settings::default());
    let mut server = Connection::server(ssettings);
    pump(&mut client, &mut server);
    drain(&mut client);
    drain(&mut server);

    // Three concurrent requests; the third must be refused.
    for i in 0..3 {
        client
            .send_request(&Request::get("a.com", format!("/{i}")), true)
            .unwrap();
    }
    pump(&mut client, &mut server);
    let sev = drain(&mut server);
    assert_eq!(
        sev.iter()
            .filter(|e| matches!(e, Event::Headers { .. }))
            .count(),
        2
    );
    let cev = drain(&mut client);
    assert!(cev.iter().any(
        |e| matches!(e, Event::StreamReset { code, .. } if *code == ErrorCode::RefusedStream)
    ));
}

#[test]
fn closed_streams_are_forgotten_on_a_long_lived_connection() {
    let mut client = Connection::client(Settings::vroom_client());
    let mut server = Connection::server(Settings {
        max_concurrent_streams: Some(256),
        ..Settings::default()
    });
    pump(&mut client, &mut server);
    drain(&mut client);
    drain(&mut server);

    let mut last = 0;
    for i in 0..20_000 {
        let sid = client
            .send_request(&Request::get("a.com", format!("/r{i}")), true)
            .unwrap();
        pump(&mut client, &mut server);
        assert!(drain(&mut server)
            .iter()
            .any(|e| matches!(e, Event::Headers { stream_id, .. } if *stream_id == sid)));
        server.send_response(sid, &Response::ok(), false).unwrap();
        server.send_data(sid, b"ok", true).unwrap();
        pump(&mut client, &mut server);
        assert!(drain(&mut client).iter().any(
            |e| matches!(e, Event::Data { stream_id, end_stream: true, .. } if *stream_id == sid)
        ));
        last = sid;
    }
    // Only the streams still open are kept, and a forgotten one still reads
    // as closed.
    let tracked = |conn: &Connection| {
        let debug = format!("{conn:?}");
        let count = debug
            .split("streams: ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse::<usize>().ok());
        count.expect("Debug names the stream count")
    };
    assert!(tracked(&server) <= 2, "{server:?}");
    assert!(tracked(&client) <= 2, "{client:?}");
    for id in [1, last] {
        assert_eq!(server.stream_state(id), Some(StreamState::Closed));
        assert_eq!(client.stream_state(id), Some(StreamState::Closed));
    }
    assert_eq!(server.stream_state(last + 2), None, "never opened");

    // A forgotten stream still gets a closed stream's errors and frames.
    let err = server.send_response(1, &Response::ok(), true).unwrap_err();
    assert_eq!(err.code, ErrorCode::StreamClosed);
    let err = server.send_data(1, b"late", true).unwrap_err();
    assert_eq!(err.code, ErrorCode::StreamClosed);
    let err = server
        .send_response(last + 2, &Response::ok(), true)
        .unwrap_err();
    assert_eq!(
        err.code,
        ErrorCode::ProtocolError,
        "an unused id is unknown"
    );
    let mut late_data = Vec::new();
    Frame::Data {
        stream_id: 1,
        data: b"late",
        end_stream: false,
        pad_len: 0,
    }
    .encode(&mut late_data);
    server.recv(&late_data).unwrap();
    let out = server.take_output();
    let (mut rest, mut frames) = (out.as_slice(), Vec::new());
    loop {
        let (used, f) = FrameCodec::default().decode(rest).unwrap();
        if used == 0 {
            break;
        }
        rest = &rest[used..];
        frames.extend(f);
    }
    assert!(frames.iter().any(|f| matches!(
        f,
        Frame::RstStream {
            stream_id: 1,
            code: ErrorCode::StreamClosed
        }
    )));
    let mut late_headers = Vec::new();
    Frame::Headers {
        stream_id: 1,
        fragment: &[],
        end_stream: true,
        end_headers: true,
    }
    .encode(&mut late_headers);
    let err = server.recv(&late_headers).unwrap_err();
    assert_eq!(err.code, ErrorCode::StreamClosed);
}

/// Every frame in `bytes`, in order.
fn frames_of(bytes: &[u8]) -> Vec<Frame<'_>> {
    let codec = FrameCodec {
        max_frame_size: settings::MAX_MAX_FRAME_SIZE,
    };
    let (mut rest, mut frames) = (bytes, Vec::new());
    loop {
        let (used, f) = codec.decode(rest).expect("well-formed output");
        if used == 0 {
            break;
        }
        rest = &rest[used..];
        frames.extend(f);
    }
    assert!(rest.is_empty(), "output ends on a frame boundary");
    frames
}

fn window_updates(frames: &[Frame]) -> Vec<(u32, u32)> {
    frames
        .iter()
        .filter_map(|f| match *f {
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => Some((stream_id, increment)),
            _ => None,
        })
        .collect()
}

#[test]
fn vroom_client_receiving_a_mib_queues_no_window_update() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);
    let sid = client
        .send_request(&Request::get("a.com", "/big"), true)
        .unwrap();
    pump(&mut client, &mut server);
    drain(&mut server);
    server.send_response(sid, &Response::ok(), false).unwrap();
    let body = vec![0x5au8; 1 << 20];
    assert_eq!(server.send_data(sid, &body, true).unwrap(), body.len());
    client.recv(&server.take_output()).unwrap();
    let got: usize = drain(&mut client)
        .iter()
        .filter_map(|e| match e {
            Event::Data { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum();
    assert_eq!(got, body.len());
    assert_eq!(client.take_output(), Vec::<u8>::new(), "nothing to send");
}

#[test]
fn window_updates_wait_for_half_the_window_and_restore_it_whole() {
    let mut client = Connection::client(Settings::default());
    let mut server = Connection::server(Settings::default());
    pump(&mut client, &mut server);
    let sid = client
        .send_request(&Request::get("a.com", "/big"), true)
        .unwrap();
    pump(&mut client, &mut server);
    drain(&mut client);
    drain(&mut server);
    server.send_response(sid, &Response::ok(), false).unwrap();

    // 30,000 of 65,535 bytes leave more than half of both windows.
    assert_eq!(server.send_data(sid, &[7; 30_000], false).unwrap(), 30_000);
    client.recv(&server.take_output()).unwrap();
    assert!(window_updates(&frames_of(&client.take_output())).is_empty());

    // 5,000 more cross half: one update per window, each restoring all
    // 35,000 consumed bytes.
    assert_eq!(server.send_data(sid, &[7; 5_000], false).unwrap(), 5_000);
    client.recv(&server.take_output()).unwrap();
    let updates = window_updates(&frames_of(&client.take_output()));
    assert_eq!(updates, vec![(sid, 35_000), (0, 35_000)]);
    let mut credit = Vec::new();
    for (stream_id, increment) in updates {
        Frame::WindowUpdate {
            stream_id,
            increment,
        }
        .encode(&mut credit);
    }
    server.recv(&credit).unwrap();
    assert_eq!(server.send_capacity(sid), 65_535, "both windows whole");
}

#[test]
fn recycled_output_buffers_keep_their_capacity() {
    let (mut client, mut server) = handshake();
    drain(&mut client);
    drain(&mut server);
    let sid = client
        .send_request(&Request::get("a.com", "/"), true)
        .unwrap();
    pump(&mut client, &mut server);
    server.send_response(sid, &Response::ok(), false).unwrap();
    server.send_data(sid, &[1; 100_000], false).unwrap();
    let first = server.take_output();
    let (ptr, cap) = (first.as_ptr(), first.capacity());
    server.recycle_output(first);
    server.send_data(sid, &[2; 10], true).unwrap();
    let second = server.take_output();
    assert_eq!(second.as_ptr(), ptr, "the recycled allocation is reused");
    assert_eq!(second.capacity(), cap);
    assert_eq!(second.len(), 9 + 10, "holding only the new frame");
    assert!(server.take_output().is_empty());
    // Handed back while output is queued, a buffer waits as the spare.
    server.ping([3; 8]);
    server.recycle_output(second);
    let third = server.take_output();
    assert_ne!(third.as_ptr(), ptr);
    server.ping([4; 8]);
    let fourth = server.take_output();
    assert_eq!(fourth.as_ptr(), ptr, "the spare follows");
}

#[test]
fn continuation_flood_ends_the_connection_at_the_header_list_limit() {
    // A HEADERS frame without END_HEADERS, then 16 KiB CONTINUATION
    // frames up to 4 MiB, one frame per `recv`. The server must refuse the
    // block with a GOAWAY before it buffers more than its header list
    // limit, whether that is the decoder's default or advertised.
    for (advertised, limit) in [
        (None, vroom_hpack::decoder::DEFAULT_MAX_HEADER_LIST_SIZE),
        (Some(1 << 20), 1 << 20),
    ] {
        let mut server = Connection::server(Settings {
            max_header_list_size: advertised,
            ..Settings::default()
        });
        let mut client = Connection::client(Settings::vroom_client());
        pump(&mut client, &mut server);
        drain(&mut server);
        let mut wire = Vec::new();
        Frame::Headers {
            stream_id: 1,
            fragment: &[0x82],
            end_stream: true,
            end_headers: false,
        }
        .encode(&mut wire);
        server.recv(&wire).unwrap();
        let fragment = vec![0u8; 16_384];
        let mut continuation = Vec::new();
        Frame::Continuation {
            stream_id: 1,
            fragment: &fragment,
            end_headers: false,
        }
        .encode(&mut continuation);
        let mut accepted = 1;
        let err = loop {
            assert!(accepted <= 4 << 20, "a 4 MiB block was never refused");
            match server.recv(&continuation) {
                Ok(()) => accepted += fragment.len(),
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, ErrorCode::EnhanceYourCalm);
        assert!(accepted <= limit, "{accepted} buffered past {limit}");
        assert!(accepted + fragment.len() > limit, "refused early");
        let out = server.take_output();
        let goaway = frames_of(&out);
        assert!(
            matches!(
                goaway.as_slice(),
                [Frame::Goaway {
                    code: ErrorCode::EnhanceYourCalm,
                    ..
                }]
            ),
            "{goaway:?}"
        );
        assert!(drain(&mut server).is_empty(), "no request surfaced");
    }
}

#[test]
fn a_block_at_the_limit_still_decodes() {
    // The bound refuses only what the decoder would refuse anyway: a
    // request whose block spans CONTINUATIONs and stays under the header
    // list limit arrives whole.
    let mut server = Connection::server(Settings::default());
    let mut client = Connection::client(Settings::vroom_client());
    pump(&mut client, &mut server);
    drain(&mut server);
    let value: String = (0..60_000)
        .map(|i| (b'a' + (i * 7 % 26) as u8) as char)
        .collect();
    let req = Request::get("a.com", "/").with_header("x-big", &value);
    client.send_request(&req, true).unwrap();
    let wire = client.take_output();
    assert!(frames_of(&wire).len() >= 3, "HEADERS and CONTINUATIONs");
    server.recv(&wire).unwrap();
    let got = drain(&mut server)
        .iter()
        .find_map(|e| match e {
            Event::Headers { fields, .. } => Some(Request::from_fields(fields).unwrap()),
            _ => None,
        })
        .expect("request decoded");
    assert_eq!(got, req);
}

/// One step of the client byte stream the cut-invariance property feeds.
#[derive(Debug, Clone)]
enum Step {
    /// A request carrying a header of `filler` bytes: past the server's
    /// 32 KiB frame size the block continues in CONTINUATION frames.
    Request {
        filler: usize,
        end_stream: bool,
    },
    /// `len` body bytes on the `stream`-th request (modulo those opened),
    /// in frames of up to 32 KiB.
    Data {
        stream: usize,
        len: usize,
        end_stream: bool,
    },
    /// A padded DATA frame on the `stream`-th request.
    Padded {
        stream: usize,
        len: usize,
        pad: u8,
    },
    Ping([u8; 8]),
    /// A frame of an unknown type, which the server skips.
    Unknown {
        len: usize,
    },
}

fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
    use proptest::prelude::*;
    prop_oneof![
        (0usize..120_000, any::<bool>())
            .prop_map(|(filler, end_stream)| Step::Request { filler, end_stream }),
        (0usize..8, 0usize..70_000, any::<bool>()).prop_map(|(stream, len, end_stream)| {
            Step::Data {
                stream,
                len,
                end_stream,
            }
        }),
        (0usize..8, 0usize..2_000, any::<u8>()).prop_map(|(stream, len, pad)| Step::Padded {
            stream,
            len,
            pad
        }),
        any::<[u8; 8]>().prop_map(Step::Ping),
        (0usize..100).prop_map(|len| Step::Unknown { len }),
    ]
}

/// The server side of the property: 32 KiB frames, open windows, and a
/// header list limit that admits the largest generated request.
fn roomy_server_settings() -> Settings {
    Settings {
        max_frame_size: 1 << 15,
        initial_window_size: settings::MAX_WINDOW_SIZE,
        max_header_list_size: Some(1 << 20),
        ..Settings::default()
    }
}

/// The bytes a client sends for `steps`, after learning the server's
/// settings.
fn client_stream(steps: &[Step]) -> Vec<u8> {
    let mut client = Connection::client(Settings::vroom_client());
    client
        .recv(&Connection::server(roomy_server_settings()).take_output())
        .unwrap();
    let mut wire = client.take_output();
    let mut opened = Vec::new();
    for step in steps {
        match step {
            Step::Request { filler, end_stream } => {
                let value: String = (0..*filler)
                    .map(|i| (b'a' + (i * 11 % 26) as u8) as char)
                    .collect();
                let req = Request::get("a.com", format!("/r{}", opened.len()))
                    .with_header("x-filler", &value);
                opened.push(client.send_request(&req, *end_stream).unwrap());
            }
            Step::Data {
                stream,
                len,
                end_stream,
            } => {
                if let Some(&sid) = opened.get(stream % opened.len().max(1)) {
                    let body: Vec<u8> = (0..*len).map(|i| (i % 251) as u8).collect();
                    let _ = client.send_data(sid, &body, *end_stream);
                }
            }
            Step::Padded { stream, len, pad } => {
                if let Some(&sid) = opened.get(stream % opened.len().max(1)) {
                    wire.extend(client.take_output());
                    let payload = 1 + len + *pad as usize;
                    wire.extend_from_slice(&(payload as u32).to_be_bytes()[1..]);
                    wire.extend_from_slice(&[0x0, frame::flags::PADDED]);
                    wire.extend_from_slice(&sid.to_be_bytes());
                    wire.push(*pad);
                    wire.extend((0..*len).map(|i| i as u8));
                    wire.extend(std::iter::repeat_n(0, *pad as usize));
                }
            }
            Step::Ping(payload) => client.ping(*payload),
            Step::Unknown { len } => {
                wire.extend(client.take_output());
                wire.extend_from_slice(&(*len as u32).to_be_bytes()[1..]);
                wire.extend_from_slice(&[0xbe, 0, 0, 0, 0, 1]);
                wire.extend(std::iter::repeat_n(0x5a, *len));
            }
        }
    }
    wire.extend(client.take_output());
    wire
}

/// Feed `wire` to a fresh server in pieces of the given lengths (cycled),
/// stopping at the first error; return its events, its output, and the
/// error.
fn feed(wire: &[u8], pieces: &[usize]) -> (Vec<Event>, Vec<u8>, Option<ConnectionError>) {
    let mut server = Connection::server(roomy_server_settings());
    let mut out = server.take_output();
    let mut events = Vec::new();
    let mut rest = wire;
    let mut error = None;
    for &n in pieces.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(n.clamp(1, rest.len()));
        rest = tail;
        let res = server.recv(head);
        events.extend(drain(&mut server));
        out.extend(server.take_output());
        if let Err(e) = res {
            error = Some(e);
            break;
        }
    }
    (events, out, error)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// `recv` gives the same events, the same output and the same error
    /// whether a byte stream arrives in one call or cut anywhere: frames
    /// decoded from the caller's slice and frames completed from a
    /// buffered tail are handled alike.
    #[test]
    fn recv_is_the_same_however_the_bytes_are_cut(
        steps in proptest::collection::vec(arb_step(), 1..12),
        cuts in proptest::collection::vec(
            proptest::prop_oneof![1usize..24, 1usize..80_000],
            1..10,
        ),
    ) {
        let wire = client_stream(&steps);
        let whole = feed(&wire, &[wire.len()]);
        proptest::prop_assert!(whole.2.is_none(), "a valid stream: {:?}", whole.2);
        proptest::prop_assert_eq!(feed(&wire, &cuts), whole);
    }
}

/// A flood of well-formed frames from a hostile client.
#[derive(Debug, Clone)]
enum Flood {
    /// Requests, each reset as soon as it is sent: the "rapid reset" shape.
    RapidReset(usize),
    /// Empty SETTINGS frames, each acknowledged.
    Settings(usize),
    /// PINGs, each answered.
    Ping(usize),
    /// One-octet WINDOW_UPDATEs, alternately on the connection and on a
    /// stream that never opened.
    WindowUpdate(usize),
}

fn arb_flood() -> impl proptest::strategy::Strategy<Value = Flood> {
    use proptest::prelude::*;
    prop_oneof![
        (1usize..3_000).prop_map(Flood::RapidReset),
        (1usize..3_000).prop_map(Flood::Settings),
        (1usize..3_000).prop_map(Flood::Ping),
        (1usize..3_000).prop_map(Flood::WindowUpdate),
    ]
}

/// The client bytes for `floods`, then, if `continuation` names a fragment
/// size, a HEADERS frame without END_HEADERS continued by CONTINUATION
/// frames of that size until the block passes `limit`.
fn hostile_stream(floods: &[Flood], continuation: Option<usize>, limit: usize) -> Vec<u8> {
    let mut wire = PREFACE.to_vec();
    Frame::Settings {
        ack: false,
        entries: vec![],
    }
    .encode(&mut wire);
    let mut hpack = vroom_hpack::Encoder::new();
    let request = Request::get("a.com", "/").to_fields();
    let mut next_stream = 1;
    for flood in floods {
        match *flood {
            Flood::RapidReset(n) => {
                for _ in 0..n {
                    let fragment = hpack.encode(&request);
                    Frame::Headers {
                        stream_id: next_stream,
                        fragment: &fragment,
                        end_stream: true,
                        end_headers: true,
                    }
                    .encode(&mut wire);
                    Frame::RstStream {
                        stream_id: next_stream,
                        code: ErrorCode::Cancel,
                    }
                    .encode(&mut wire);
                    next_stream += 2;
                }
            }
            Flood::Settings(n) => {
                for _ in 0..n {
                    Frame::Settings {
                        ack: false,
                        entries: vec![],
                    }
                    .encode(&mut wire);
                }
            }
            Flood::Ping(n) => {
                for i in 0..n {
                    Frame::Ping {
                        ack: false,
                        payload: (i as u64).to_be_bytes(),
                    }
                    .encode(&mut wire);
                }
            }
            Flood::WindowUpdate(n) => {
                for i in 0..n {
                    Frame::WindowUpdate {
                        stream_id: if i % 2 == 0 { 0 } else { next_stream },
                        increment: 1,
                    }
                    .encode(&mut wire);
                }
            }
        }
    }
    if let Some(size) = continuation {
        Frame::Headers {
            stream_id: next_stream,
            fragment: &[0x82],
            end_stream: true,
            end_headers: false,
        }
        .encode(&mut wire);
        let filler = vec![0u8; size];
        for _ in 0..limit / size + 2 {
            Frame::Continuation {
                stream_id: next_stream,
                fragment: &filler,
                end_headers: false,
            }
            .encode(&mut wire);
        }
    }
    wire
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// A server on `Settings::vroom_server()`, read 16 KiB at a time at
    /// most as `server::wire` reads its socket, and drained after each
    /// `recv` as `server::wire` drains it, holds no more than its local
    /// settings allow under any flood of well-formed frames: one open
    /// header block, one partial frame, the stream limit's map entries and
    /// the HPACK table. A CONTINUATION flood ends in ENHANCE_YOUR_CALM.
    #[test]
    fn floods_stay_within_the_footprint_the_settings_allow(
        floods in proptest::collection::vec(arb_flood(), 0..5),
        continuation_flood in proptest::prelude::any::<bool>(),
        fragment in 512usize..=16_384,
        cuts in proptest::collection::vec(
            proptest::prop_oneof![1usize..64, 4_096usize..=16_384],
            1..6,
        ),
    ) {
        let continuation = continuation_flood.then_some(fragment);
        let local = Settings::vroom_server();
        let limit = local
            .max_header_list_size
            .map_or(vroom_hpack::decoder::DEFAULT_MAX_HEADER_LIST_SIZE, |n| n as usize);
        let budget = limit
            + frame::HEADER_LEN
            + local.max_frame_size as usize
            + local.max_concurrent_streams.unwrap_or(0) as usize
                * std::mem::size_of::<(u32, Stream)>()
            + local.header_table_size as usize;
        let wire = hostile_stream(&floods, continuation, limit);
        let mut server = Connection::server(local);
        let mut rest = wire.as_slice();
        let mut error = None;
        for &n in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            let res = server.recv(head);
            drain(&mut server);
            let out = server.take_output();
            server.recycle_output(out);
            let held = server.footprint();
            proptest::prop_assert!(held <= budget, "{held} bytes held, budget {budget}");
            if let Err(e) = res {
                error = Some(e.code);
                break;
            }
        }
        let want = continuation.map(|_| ErrorCode::EnhanceYourCalm);
        proptest::prop_assert_eq!(error, want);
    }
}
