//! Protocol-level integration: the sans-IO HTTP/2 connection driven over
//! a loopback TCP socket pair across real threads — exercising the same
//! state machine the wire server uses, under concurrency.

#![forbid(unsafe_code)]

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;
use vroom_http2::{Connection, ErrorCode, Event, Request, Response, Settings};
use vroom_net::RetryBudget;

/// A connected loopback socket pair: `(client end, server end)`, each
/// with a 5 ms read timeout.
fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    for end in [&client, &server] {
        end.set_read_timeout(Some(Duration::from_millis(5)))
            .expect("set read timeout");
        end.set_nodelay(true).expect("set nodelay");
    }
    (client, server)
}

/// Drive a connection over a socket until `done` says stop.
fn pump_until<F: FnMut(&mut Connection) -> bool>(
    conn: &mut Connection,
    end: &mut TcpStream,
    mut done: F,
    deadline: Duration,
) {
    // Watchdog for a real loopback pump; the test asserts on bytes, not
    // time, so this wall-clock read is outside the sim-purity roots.
    let start = std::time::Instant::now();
    let mut buf = [0u8; 16 * 1024];
    while start.elapsed() < deadline {
        end.write_all(&conn.take_output()).expect("write");
        match end.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                conn.recv(&buf[..n]).expect("protocol error");
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("read failed: {e}"),
        }
        if done(conn) {
            // Flush any final output (acks, window updates).
            end.write_all(&conn.take_output()).expect("write");
            return;
        }
    }
    panic!("pump_until timed out");
}

#[test]
fn threaded_client_server_over_pipe() {
    // The server thread works on a clone of its socket, and the test keeps
    // the original open until the client is done: a socket closed with
    // unread bytes (the client's last WINDOW_UPDATEs) resets the connection.
    let (mut client_end, server_sock) = loopback_pair();
    let mut server_end = server_sock.try_clone().expect("clone socket");

    let server = thread::spawn(move || {
        let mut conn = Connection::server(Settings::default());
        let mut served = 0usize;
        pump_until(
            &mut conn,
            &mut server_end,
            |conn| {
                while let Some(ev) = conn.poll_event() {
                    if let Event::Headers {
                        stream_id, fields, ..
                    } = ev
                    {
                        let req = Request::from_fields(&fields).expect("request");
                        let resp = Response::ok().with_header("x-served-path", &req.path);
                        conn.send_response(stream_id, &resp, false).unwrap();
                        conn.send_data(stream_id, req.path.as_bytes(), true)
                            .unwrap();
                        served += 1;
                    }
                }
                served >= 5
            },
            Duration::from_secs(10),
        );
        served
    });

    let mut conn = Connection::client(Settings::vroom_client());
    for i in 0..5 {
        conn.send_request(&Request::get("pipe.example", format!("/item/{i}")), true)
            .unwrap();
    }
    let mut bodies = Vec::new();
    pump_until(
        &mut conn,
        &mut client_end,
        |conn| {
            while let Some(ev) = conn.poll_event() {
                if let Event::Data {
                    data, end_stream, ..
                } = ev
                {
                    if end_stream {
                        bodies.push(String::from_utf8(data).unwrap());
                    }
                }
            }
            bodies.len() >= 5
        },
        Duration::from_secs(10),
    );
    bodies.sort();
    assert_eq!(
        bodies,
        vec!["/item/0", "/item/1", "/item/2", "/item/3", "/item/4"]
    );
    assert_eq!(server.join().unwrap(), 5);
}

/// Injected mid-stream truncation surfaces as a well-formed RST_STREAM on
/// the wire — partial DATA without END_STREAM, then the reset frame — and
/// the client recovers by re-requesting within its retry budget.
#[test]
fn truncated_stream_resets_and_client_retries() {
    let (mut client_end, server_sock) = loopback_pair();
    let mut server_end = server_sock.try_clone().expect("clone socket");
    const BODY: &[u8] = b"the complete resource body, all thirty-nine";

    let server = thread::spawn(move || {
        let mut conn = Connection::server(Settings::default());
        let mut serves = 0usize;
        pump_until(
            &mut conn,
            &mut server_end,
            |conn| {
                while let Some(ev) = conn.poll_event() {
                    if let Event::Headers { stream_id, .. } = ev {
                        serves += 1;
                        if serves == 1 {
                            // First attempt: a prefix of the body, stream
                            // left open, then an abort.
                            let resp = Response::ok();
                            conn.send_response(stream_id, &resp, false).unwrap();
                            conn.send_data(stream_id, &BODY[..BODY.len() / 2], false)
                                .unwrap();
                            conn.reset_stream(stream_id, ErrorCode::InternalError);
                        } else {
                            let resp = Response::ok();
                            conn.send_response(stream_id, &resp, false).unwrap();
                            conn.send_data(stream_id, BODY, true).unwrap();
                        }
                    }
                }
                serves >= 2
            },
            Duration::from_secs(10),
        );
        serves
    });

    let budget = RetryBudget::standard();
    let mut conn = Connection::client(Settings::vroom_client());
    let req = Request::get("pipe.example", "/flaky.js");
    conn.send_request(&req, true).unwrap();

    let mut attempts = 1u32;
    let mut resets = 0usize;
    let mut partial_before_reset = 0usize;
    let mut complete_body: Option<Vec<u8>> = None;
    let mut acc: Vec<u8> = Vec::new();
    pump_until(
        &mut conn,
        &mut client_end,
        |conn| {
            while let Some(ev) = conn.poll_event() {
                match ev {
                    Event::Data {
                        data, end_stream, ..
                    } => {
                        acc.extend_from_slice(&data);
                        if end_stream {
                            complete_body = Some(acc.clone());
                        }
                    }
                    Event::StreamReset { code, .. } => {
                        resets += 1;
                        partial_before_reset = acc.len();
                        acc.clear();
                        assert_eq!(code, ErrorCode::InternalError);
                        // Recover: re-GET the same URL, budget permitting.
                        assert!(budget.allows(attempts), "budget exhausted");
                        conn.send_request(&req, true).unwrap();
                        attempts += 1;
                    }
                    _ => {}
                }
            }
            complete_body.is_some()
        },
        Duration::from_secs(10),
    );

    assert_eq!(resets, 1, "exactly one injected reset");
    assert_eq!(
        partial_before_reset,
        BODY.len() / 2,
        "truncation delivered exactly the configured prefix"
    );
    assert_eq!(complete_body.as_deref(), Some(BODY), "retry got full body");
    assert_eq!(server.join().unwrap(), 2);
}
