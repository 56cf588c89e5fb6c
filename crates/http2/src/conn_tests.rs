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
        fragment: vec![0x82],
        end_stream: false,
        end_headers: false,
        priority: None,
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
    frame::encode_data_raw(&mut late_data, 1, b"late", false);
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
    frame::encode_headers_raw(&mut late_headers, 1, &[], true, true);
    let err = server.recv(&late_headers).unwrap_err();
    assert_eq!(err.code, ErrorCode::StreamClosed);
}
