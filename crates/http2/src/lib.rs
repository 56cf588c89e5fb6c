//! `vroom-http2` — a from-scratch, sans-IO implementation of the HTTP/2
//! framing layer (RFC 7540), built as the wire substrate for the Vroom
//! reproduction.
//!
//! Vroom (SIGCOMM '17) relies on two HTTP/2 capabilities: **server push**
//! (PUSH_PROMISE) for high-priority local dependencies, and response
//! **headers** to carry dependency hints (`Link` preload, `x-semi-important`,
//! `x-unimportant`). This crate provides both, plus everything around them:
//!
//! * the frame codec ([`frame`]): it parses all ten frame types, with
//!   padding and size validation, and emits the nine this stack sends,
//!   each through [`Frame::encode`]; a [`Frame`] borrows its payload, so
//!   decoding copies none. PRIORITY frames and the priority fields of
//!   HEADERS are checked and dropped: the Vroom client schedules with its
//!   own staged fetcher, and RFC 9113 §5.3.2 deprecates HTTP/2 priority,
//! * connection and stream flow control with signed windows ([`flow`]);
//!   a connection's receive window starts equal to its local initial
//!   stream window (never below the RFC's 65,535), opened by a stream-0
//!   WINDOW_UPDATE queued right after SETTINGS, so a large stream window
//!   is not capped by a 64 KiB connection window shared by every stream;
//!   a receiver announces credit only once a window is below half its
//!   initial size, and then restores it whole in one WINDOW_UPDATE, as
//!   nghttp2 does,
//! * typed settings ([`settings`]),
//! * the per-stream state machine ([`stream`]),
//! * a sans-IO [`Connection`] that pairs a byte-in/byte-out interface with
//!   a protocol-event queue ([`conn`]) — the same state machine runs over
//!   real TCP or inside tests; it HPACK-decodes a complete header block
//!   straight from the received bytes, copies a DATA payload once, into
//!   its [`Event::Data`], and ends a connection with a
//!   [`ConnectionError`] whose reason is fixed text,
//! * request/response header typing with pseudo-header validation and the
//!   Vroom hint headers ([`headers`]).
//!
//! Its one dependency is `vroom-hpack`; header strings are std `Arc<str>`s.
//!
//! # Example: request/response over an in-memory wire
//!
//! ```
//! use vroom_http2::{Connection, Event, Request, Response, Settings};
//!
//! let mut client = Connection::client(Settings::vroom_client());
//! let mut server = Connection::server(Settings::default());
//!
//! // Exchange prefaces/settings.
//! server.recv(&client.take_output()).unwrap();
//! client.recv(&server.take_output()).unwrap();
//!
//! // Client asks for a page.
//! let req = Request::get("news.example.com", "/");
//! let sid = client.send_request(&req, true).unwrap();
//! server.recv(&client.take_output()).unwrap();
//!
//! // Server answers (and could push_promise dependent resources here).
//! while let Some(ev) = server.poll_event() {
//!     if let Event::Headers { stream_id, .. } = ev {
//!         let resp = Response::ok().with_header("content-type", "text/html");
//!         server.send_response(stream_id, &resp, false).unwrap();
//!         server.send_data(stream_id, b"<html></html>", true).unwrap();
//!     }
//! }
//! client.recv(&server.take_output()).unwrap();
//! # let mut got_data = false;
//! # while let Some(ev) = client.poll_event() {
//! #     if let Event::Data { data, .. } = ev { assert_eq!(&data[..], b"<html></html>"); got_data = true; }
//! # }
//! # assert!(got_data);
//! # let _ = sid;
//! ```

#![forbid(unsafe_code)]

pub mod conn;
pub mod error;
pub mod flow;
pub mod frame;
pub mod headers;
pub mod settings;
pub mod stream;

pub use conn::{Connection, Event, Role, PREFACE};
pub use error::{ConnectionError, ErrorCode};
pub use frame::{Frame, FrameCodec};
pub use headers::{hint_headers, Request, Response};
pub use settings::Settings;
pub use stream::{Stream, StreamState};

#[cfg(test)]
mod conn_tests;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A generated frame, owning the bytes its [`Frame`] borrows.
    #[derive(Debug, Clone)]
    enum Arb {
        Data(u32, Vec<u8>, bool),
        Headers(u32, Vec<u8>, bool, bool),
        WindowUpdate(u32, u32),
        Settings(Vec<(u16, u32)>),
        Ping([u8; 8]),
        Goaway(u32, Vec<u8>),
    }

    impl Arb {
        fn frame(&self) -> Frame<'_> {
            match self {
                Arb::Data(id, data, fin) => Frame::Data {
                    stream_id: *id,
                    data,
                    end_stream: *fin,
                    pad_len: 0,
                },
                Arb::Headers(id, fragment, fin, eh) => Frame::Headers {
                    stream_id: *id,
                    fragment,
                    end_stream: *fin,
                    end_headers: *eh,
                },
                Arb::WindowUpdate(id, inc) => Frame::WindowUpdate {
                    stream_id: *id,
                    increment: *inc,
                },
                // ENABLE_PUSH and window/frame-size settings have value
                // constraints enforced at a higher layer; the codec carries
                // raw pairs.
                Arb::Settings(entries) => Frame::Settings {
                    ack: false,
                    entries: entries.clone(),
                },
                Arb::Ping(payload) => Frame::Ping {
                    ack: true,
                    payload: *payload,
                },
                Arb::Goaway(last, debug) => Frame::Goaway {
                    last_stream_id: *last,
                    code: ErrorCode::NoError,
                    debug,
                },
            }
        }
    }

    fn arb_frame() -> impl Strategy<Value = Arb> {
        prop_oneof![
            (
                1u32..1000,
                proptest::collection::vec(any::<u8>(), 0..2000),
                any::<bool>()
            )
                .prop_map(|(id, data, fin)| Arb::Data(id * 2 - 1, data, fin)),
            (
                1u32..1000,
                proptest::collection::vec(any::<u8>(), 0..500),
                any::<bool>(),
                any::<bool>()
            )
                .prop_map(|(id, frag, fin, eh)| Arb::Headers(id, frag, fin, eh)),
            (0u32..1000, 1u32..0x7fff_ffff).prop_map(|(id, inc)| Arb::WindowUpdate(id, inc)),
            proptest::collection::vec((0u16..8, any::<u32>()), 0..8).prop_map(Arb::Settings),
            any::<[u8; 8]>().prop_map(Arb::Ping),
            (0u32..1000, proptest::collection::vec(any::<u8>(), 0..100))
                .prop_map(|(last, debug)| Arb::Goaway(last, debug)),
        ]
    }

    proptest! {
        /// Every frame round-trips through the codec byte-exactly.
        #[test]
        fn frame_roundtrip(arb in arb_frame()) {
            let frame = arb.frame();
            let mut buf = Vec::new();
            frame.encode(&mut buf);
            let codec = FrameCodec::default();
            let (used, got) = codec.decode(&buf).unwrap();
            prop_assert_eq!(got.expect("complete frame"), frame);
            prop_assert_eq!(used, buf.len());
        }

        /// Sequences of frames decode in order from one buffer, even when
        /// the buffer is fed in arbitrary-sized chunks.
        #[test]
        fn frame_stream_reassembly(
            frames in proptest::collection::vec(arb_frame(), 1..8),
            cuts in proptest::collection::vec(1usize..64, 0..32),
        ) {
            let mut wire = Vec::new();
            for f in &frames {
                f.frame().encode(&mut wire);
            }
            let codec = FrameCodec::default();
            let mut feed = Vec::new();
            let mut expected = frames.iter();
            let mut pos = 0;
            let mut cut_iter = cuts.iter().copied().cycle();
            while pos < wire.len() {
                let n = cut_iter.next().unwrap_or(16).min(wire.len() - pos);
                feed.extend_from_slice(&wire[pos..pos + n]);
                pos += n;
                loop {
                    let (used, f) = codec.decode(&feed).unwrap();
                    if used == 0 {
                        break;
                    }
                    if let Some(f) = f {
                        prop_assert_eq!(Some(f), expected.next().map(Arb::frame));
                    }
                    feed.drain(..used);
                }
            }
            prop_assert!(feed.is_empty());
            prop_assert!(expected.next().is_none(), "every frame decoded");
        }

        /// The frame codec never panics on garbage (errors are fine).
        #[test]
        fn codec_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let codec = FrameCodec::default();
            let mut buf = garbage.as_slice();
            for _ in 0..64 {
                match codec.decode(buf) {
                    Ok((used, _)) if used > 0 => buf = &buf[used..],
                    Ok(_) | Err(_) => break,
                }
            }
        }
    }
}
