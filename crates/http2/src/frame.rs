//! HTTP/2 frame layer (RFC 7540 §4, §6): the 9-octet frame header, all ten
//! frame types, padding, and priority fields.
//!
//! The codec is sans-IO: [`FrameCodec::decode`] consumes from a `BytesMut`
//! receive buffer and returns at most one frame; [`encode`](Frame::encode)
//! appends wire bytes to a send buffer.

use crate::error::{ConnectionError, ErrorCode};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Frame type codes (RFC 7540 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Carries request/response bodies.
    Data = 0x0,
    /// Opens a stream with a header block fragment.
    Headers = 0x1,
    /// Advises stream priority.
    Priority = 0x2,
    /// Terminates a stream abnormally.
    RstStream = 0x3,
    /// Connection configuration.
    Settings = 0x4,
    /// Server push announcement.
    PushPromise = 0x5,
    /// Liveness / RTT measurement.
    Ping = 0x6,
    /// Connection shutdown.
    Goaway = 0x7,
    /// Flow-control credit.
    WindowUpdate = 0x8,
    /// Header block continuation.
    Continuation = 0x9,
}

/// Frame flag bits.
pub mod flags {
    /// DATA / HEADERS: no further frames on this stream from this sender.
    pub const END_STREAM: u8 = 0x1;
    /// SETTINGS / PING: acknowledgement.
    pub const ACK: u8 = 0x1;
    /// HEADERS / PUSH_PROMISE / CONTINUATION: header block is complete.
    pub const END_HEADERS: u8 = 0x4;
    /// DATA / HEADERS / PUSH_PROMISE: padding length octet present.
    pub const PADDED: u8 = 0x8;
    /// HEADERS: exclusive-dep/weight priority fields present.
    pub const PRIORITY: u8 = 0x20;
}

/// Priority fields carried by PRIORITY frames and prioritized HEADERS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrioritySpec {
    /// Stream this one depends on.
    pub depends_on: u32,
    /// Whether the dependency is exclusive.
    pub exclusive: bool,
    /// Weight 1..=256 (wire value + 1).
    pub weight: u16,
}

impl Default for PrioritySpec {
    fn default() -> Self {
        // RFC 7540 §5.3.5 defaults.
        PrioritySpec {
            depends_on: 0,
            exclusive: false,
            weight: 16,
        }
    }
}

/// A decoded HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// DATA (§6.1). `pad_len` octets of padding were present and stripped —
    /// retained because padding still counts against flow control.
    Data {
        /// Stream the data belongs to.
        stream_id: u32,
        /// Body bytes, padding removed.
        data: Bytes,
        /// Whether END_STREAM was set.
        end_stream: bool,
        /// Number of padding octets (0 when the frame was not padded);
        /// includes the pad-length octet itself when padding was present.
        pad_len: u32,
    },
    /// HEADERS (§6.2) — one header block *fragment*.
    Headers {
        /// Stream being opened / continued.
        stream_id: u32,
        /// HPACK fragment.
        fragment: Bytes,
        /// Whether END_STREAM was set.
        end_stream: bool,
        /// Whether END_HEADERS was set.
        end_headers: bool,
        /// Priority fields, if the PRIORITY flag was set.
        priority: Option<PrioritySpec>,
    },
    /// PRIORITY (§6.3).
    Priority {
        /// Stream being re-prioritized.
        stream_id: u32,
        /// New priority.
        spec: PrioritySpec,
    },
    /// RST_STREAM (§6.4).
    RstStream {
        /// Stream being reset.
        stream_id: u32,
        /// Reason.
        code: ErrorCode,
    },
    /// SETTINGS (§6.5) — raw (id, value) pairs; interpretation in
    /// [`crate::settings`].
    Settings {
        /// Whether this is an acknowledgement (empty payload).
        ack: bool,
        /// Settings present in the frame, in wire order.
        entries: Vec<(u16, u32)>,
    },
    /// PUSH_PROMISE (§6.6).
    PushPromise {
        /// Stream the promise is associated with.
        stream_id: u32,
        /// Even-numbered stream reserved for the pushed response.
        promised_stream_id: u32,
        /// HPACK fragment of the synthesized request headers.
        fragment: Bytes,
        /// Whether END_HEADERS was set.
        end_headers: bool,
    },
    /// PING (§6.7).
    Ping {
        /// Whether this is a reply.
        ack: bool,
        /// Opaque 8-byte payload.
        payload: [u8; 8],
    },
    /// GOAWAY (§6.8).
    Goaway {
        /// Highest stream id the sender may have processed.
        last_stream_id: u32,
        /// Reason.
        code: ErrorCode,
        /// Optional debug data.
        debug: Bytes,
    },
    /// WINDOW_UPDATE (§6.9). `stream_id` 0 targets the connection window.
    WindowUpdate {
        /// Target stream (0 = connection).
        stream_id: u32,
        /// Credit to add; 1..=2^31-1.
        increment: u32,
    },
    /// CONTINUATION (§6.10).
    Continuation {
        /// Stream whose header block continues.
        stream_id: u32,
        /// HPACK fragment.
        fragment: Bytes,
        /// Whether END_HEADERS was set.
        end_headers: bool,
    },
}

impl Frame {
    /// The frame's stream id (0 for connection-level frames).
    pub fn stream_id(&self) -> u32 {
        match self {
            Frame::Data { stream_id, .. }
            | Frame::Headers { stream_id, .. }
            | Frame::Priority { stream_id, .. }
            | Frame::RstStream { stream_id, .. }
            | Frame::PushPromise { stream_id, .. }
            | Frame::WindowUpdate { stream_id, .. }
            | Frame::Continuation { stream_id, .. } => *stream_id,
            Frame::Settings { .. } | Frame::Ping { .. } | Frame::Goaway { .. } => 0,
        }
    }

    /// Serialize onto `out`. Frames are emitted unpadded (padding is parsed
    /// on receive but never generated — same choice as most implementations).
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            Frame::Data {
                stream_id,
                data,
                end_stream,
                ..
            } => encode_data_raw(out, *stream_id, data, *end_stream),
            Frame::Headers {
                stream_id,
                fragment,
                end_stream,
                end_headers,
                priority: None,
            } => encode_headers_raw(out, *stream_id, fragment, *end_stream, *end_headers),
            Frame::Headers {
                stream_id,
                fragment,
                end_stream,
                end_headers,
                priority: Some(p),
            } => {
                let mut f = flags::PRIORITY;
                if *end_stream {
                    f |= flags::END_STREAM;
                }
                if *end_headers {
                    f |= flags::END_HEADERS;
                }
                put_header(out, fragment.len() + 5, FrameType::Headers, f, *stream_id);
                put_priority(out, p);
                out.extend_from_slice(fragment);
            }
            Frame::Priority { stream_id, spec } => {
                put_header(out, 5, FrameType::Priority, 0, *stream_id);
                put_priority(out, spec);
            }
            Frame::RstStream { stream_id, code } => {
                put_header(out, 4, FrameType::RstStream, 0, *stream_id);
                out.put_u32(*code as u32);
            }
            Frame::Settings { ack, entries } => {
                let f = if *ack { flags::ACK } else { 0 };
                put_header(out, entries.len() * 6, FrameType::Settings, f, 0);
                for &(id, value) in entries {
                    out.put_u16(id);
                    out.put_u32(value);
                }
            }
            Frame::PushPromise {
                stream_id,
                promised_stream_id,
                fragment,
                end_headers,
            } => {
                let f = if *end_headers { flags::END_HEADERS } else { 0 };
                put_header(
                    out,
                    fragment.len() + 4,
                    FrameType::PushPromise,
                    f,
                    *stream_id,
                );
                out.put_u32(promised_stream_id & 0x7fff_ffff);
                out.extend_from_slice(fragment);
            }
            Frame::Ping { ack, payload } => {
                let f = if *ack { flags::ACK } else { 0 };
                put_header(out, 8, FrameType::Ping, f, 0);
                out.extend_from_slice(payload);
            }
            Frame::Goaway {
                last_stream_id,
                code,
                debug,
            } => {
                put_header(out, 8 + debug.len(), FrameType::Goaway, 0, 0);
                out.put_u32(last_stream_id & 0x7fff_ffff);
                out.put_u32(*code as u32);
                out.extend_from_slice(debug);
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                put_header(out, 4, FrameType::WindowUpdate, 0, *stream_id);
                out.put_u32(increment & 0x7fff_ffff);
            }
            Frame::Continuation {
                stream_id,
                fragment,
                end_headers,
            } => encode_continuation_raw(out, *stream_id, fragment, *end_headers),
        }
    }
}

/// Emit a DATA frame for `data` directly into `out`: one copy into the
/// send buffer, no intermediate `Bytes` allocation. The hot send paths use
/// these raw emitters, and [`Frame::encode`] calls them for the DATA,
/// CONTINUATION and unprioritized HEADERS layouts; it keeps its own code
/// for control frames, prioritized HEADERS and PUSH_PROMISE, whose raw
/// emitter always sets END_HEADERS.
pub fn encode_data_raw(out: &mut BytesMut, stream_id: u32, data: &[u8], end_stream: bool) {
    let f = if end_stream { flags::END_STREAM } else { 0 };
    put_header(out, data.len(), FrameType::Data, f, stream_id);
    out.extend_from_slice(data);
}

/// Emit a HEADERS frame carrying `fragment` directly into `out` (no
/// priority fields — we never send prioritized HEADERS).
pub fn encode_headers_raw(
    out: &mut BytesMut,
    stream_id: u32,
    fragment: &[u8],
    end_stream: bool,
    end_headers: bool,
) {
    let mut f = 0;
    if end_stream {
        f |= flags::END_STREAM;
    }
    if end_headers {
        f |= flags::END_HEADERS;
    }
    put_header(out, fragment.len(), FrameType::Headers, f, stream_id);
    out.extend_from_slice(fragment);
}

/// Emit a CONTINUATION frame carrying `fragment` directly into `out`.
pub fn encode_continuation_raw(
    out: &mut BytesMut,
    stream_id: u32,
    fragment: &[u8],
    end_headers: bool,
) {
    let f = if end_headers { flags::END_HEADERS } else { 0 };
    put_header(out, fragment.len(), FrameType::Continuation, f, stream_id);
    out.extend_from_slice(fragment);
}

/// Emit a complete (END_HEADERS) PUSH_PROMISE frame directly into `out`.
pub fn encode_push_promise_raw(
    out: &mut BytesMut,
    stream_id: u32,
    promised_stream_id: u32,
    fragment: &[u8],
) {
    put_header(
        out,
        fragment.len() + 4,
        FrameType::PushPromise,
        flags::END_HEADERS,
        stream_id,
    );
    out.put_u32(promised_stream_id & 0x7fff_ffff);
    out.extend_from_slice(fragment);
}

fn put_header(out: &mut BytesMut, len: usize, ty: FrameType, flags: u8, stream_id: u32) {
    debug_assert!(len < 1 << 24, "frame too large: {len}");
    out.put_u8((len >> 16) as u8);
    out.put_u8((len >> 8) as u8);
    out.put_u8(len as u8);
    out.put_u8(ty as u8);
    out.put_u8(flags);
    out.put_u32(stream_id & 0x7fff_ffff);
}

fn put_priority(out: &mut BytesMut, p: &PrioritySpec) {
    let dep = (p.depends_on & 0x7fff_ffff) | if p.exclusive { 0x8000_0000 } else { 0 };
    out.put_u32(dep);
    debug_assert!((1..=256).contains(&p.weight));
    out.put_u8((p.weight - 1) as u8);
}

/// Incremental frame decoder with a configurable max frame size.
#[derive(Debug)]
pub struct FrameCodec {
    /// Our `SETTINGS_MAX_FRAME_SIZE`: frames larger than this are an error.
    pub max_frame_size: u32,
}

impl Default for FrameCodec {
    fn default() -> Self {
        FrameCodec {
            max_frame_size: crate::settings::DEFAULT_MAX_FRAME_SIZE,
        }
    }
}

impl FrameCodec {
    /// Try to decode a single frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` if the buffer does not yet hold a complete frame
    /// (bytes are left untouched); on success the frame's bytes are consumed.
    /// Unknown frame types are consumed and skipped (RFC 7540 §4.1: "ignored
    /// and discarded") — represented as `Ok(None)` with bytes consumed, so
    /// callers should loop.
    pub fn decode(&self, buf: &mut BytesMut) -> Result<Option<Frame>, ConnectionError> {
        let Some(&[l0, l1, l2, ty, fl, s0, s1, s2, s3]) = buf.get(..9) else {
            return Ok(None); // incomplete 9-byte header
        };
        let len = ((l0 as usize) << 16) | ((l1 as usize) << 8) | l2 as usize;
        if len as u32 > self.max_frame_size {
            // vroom-lint: allow(hot-path-alloc) -- cold protocol-error path: renders the message for a rejected peer
            return Err(ConnectionError::frame_size(format!(
                "frame of {len} bytes exceeds max {}",
                self.max_frame_size
            )));
        }
        if buf.len() < 9 + len {
            return Ok(None);
        }
        let stream_id = u32::from_be_bytes([s0, s1, s2, s3]) & 0x7fff_ffff;
        buf.advance(9);
        let mut payload = buf.split_to(len).freeze();

        let frame = match ty {
            0x0 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("DATA on stream 0"));
                }
                let pad = strip_padding(&mut payload, fl, len)?;
                Frame::Data {
                    stream_id,
                    data: payload,
                    end_stream: fl & flags::END_STREAM != 0,
                    pad_len: pad,
                }
            }
            0x1 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("HEADERS on stream 0"));
                }
                strip_padding(&mut payload, fl, len)?;
                let priority = if fl & flags::PRIORITY != 0 {
                    if payload.len() < 5 {
                        return Err(ConnectionError::frame_size("HEADERS priority truncated"));
                    }
                    Some(take_priority(&mut payload))
                } else {
                    None
                };
                Frame::Headers {
                    stream_id,
                    fragment: payload,
                    end_stream: fl & flags::END_STREAM != 0,
                    end_headers: fl & flags::END_HEADERS != 0,
                    priority,
                }
            }
            0x2 => {
                if len != 5 {
                    // PRIORITY size error is a *stream* error per spec, but
                    // we simplify to connection-level (we never send these).
                    return Err(ConnectionError::frame_size("PRIORITY length != 5"));
                }
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("PRIORITY on stream 0"));
                }
                Frame::Priority {
                    stream_id,
                    spec: take_priority(&mut payload),
                }
            }
            0x3 => {
                if len != 4 {
                    return Err(ConnectionError::frame_size("RST_STREAM length != 4"));
                }
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("RST_STREAM on stream 0"));
                }
                Frame::RstStream {
                    stream_id,
                    code: ErrorCode::from_wire(payload.get_u32()),
                }
            }
            0x4 => {
                if stream_id != 0 {
                    return Err(ConnectionError::protocol("SETTINGS on stream != 0"));
                }
                let ack = fl & flags::ACK != 0;
                if ack && len != 0 {
                    return Err(ConnectionError::frame_size("SETTINGS ack with payload"));
                }
                if !len.is_multiple_of(6) {
                    return Err(ConnectionError::frame_size("SETTINGS length % 6 != 0"));
                }
                let mut entries = Vec::with_capacity(len / 6);
                while payload.remaining() >= 6 {
                    entries.push((payload.get_u16(), payload.get_u32()));
                }
                Frame::Settings { ack, entries }
            }
            0x5 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("PUSH_PROMISE on stream 0"));
                }
                strip_padding(&mut payload, fl, len)?;
                if payload.len() < 4 {
                    return Err(ConnectionError::frame_size("PUSH_PROMISE truncated"));
                }
                let promised = payload.get_u32() & 0x7fff_ffff;
                Frame::PushPromise {
                    stream_id,
                    promised_stream_id: promised,
                    fragment: payload,
                    end_headers: fl & flags::END_HEADERS != 0,
                }
            }
            0x6 => {
                if len != 8 {
                    return Err(ConnectionError::frame_size("PING length != 8"));
                }
                if stream_id != 0 {
                    return Err(ConnectionError::protocol("PING on stream != 0"));
                }
                let mut p = [0u8; 8];
                payload.copy_to_slice(&mut p);
                Frame::Ping {
                    ack: fl & flags::ACK != 0,
                    payload: p,
                }
            }
            0x7 => {
                if len < 8 {
                    return Err(ConnectionError::frame_size("GOAWAY too short"));
                }
                if stream_id != 0 {
                    return Err(ConnectionError::protocol("GOAWAY on stream != 0"));
                }
                let last = payload.get_u32() & 0x7fff_ffff;
                let code = ErrorCode::from_wire(payload.get_u32());
                Frame::Goaway {
                    last_stream_id: last,
                    code,
                    debug: payload,
                }
            }
            0x8 => {
                if len != 4 {
                    return Err(ConnectionError::frame_size("WINDOW_UPDATE length != 4"));
                }
                let increment = payload.get_u32() & 0x7fff_ffff;
                if increment == 0 {
                    return Err(ConnectionError::protocol("WINDOW_UPDATE of 0"));
                }
                Frame::WindowUpdate {
                    stream_id,
                    increment,
                }
            }
            0x9 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("CONTINUATION on stream 0"));
                }
                Frame::Continuation {
                    stream_id,
                    fragment: payload,
                    end_headers: fl & flags::END_HEADERS != 0,
                }
            }
            _ => {
                // Unknown type: ignore (already consumed). Caller loops.
                return self.decode(buf);
            }
        };
        Ok(Some(frame))
    }
}

fn take_priority(payload: &mut Bytes) -> PrioritySpec {
    let dep = payload.get_u32();
    let weight = payload.get_u8() as u16 + 1;
    PrioritySpec {
        depends_on: dep & 0x7fff_ffff,
        exclusive: dep & 0x8000_0000 != 0,
        weight,
    }
}

/// If PADDED is set, strip the pad-length octet and trailing padding.
/// Returns total padding octets (pad length + 1) for flow accounting.
fn strip_padding(payload: &mut Bytes, fl: u8, frame_len: usize) -> Result<u32, ConnectionError> {
    if fl & flags::PADDED == 0 {
        return Ok(0);
    }
    if payload.is_empty() {
        return Err(ConnectionError::frame_size(
            "PADDED frame without pad length",
        ));
    }
    let pad = payload.get_u8() as usize;
    if pad >= frame_len {
        return Err(ConnectionError::protocol("padding exceeds frame payload"));
    }
    if pad > payload.len() {
        return Err(ConnectionError::protocol(
            "padding exceeds remaining payload",
        ));
    }
    payload.truncate(payload.len() - pad);
    Ok(pad as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let codec = FrameCodec::default();
        let got = codec.decode(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty(), "no leftover bytes");
        got
    }

    #[test]
    fn raw_emitters_match_frame_encode() {
        let mut via_frame = BytesMut::new();
        let mut via_raw = BytesMut::new();

        Frame::Data {
            stream_id: 3,
            data: Bytes::from_static(b"body"),
            end_stream: true,
            pad_len: 0,
        }
        .encode(&mut via_frame);
        encode_data_raw(&mut via_raw, 3, b"body", true);

        Frame::Headers {
            stream_id: 5,
            fragment: Bytes::from_static(&[0x82, 0x86]),
            end_stream: false,
            end_headers: true,
            priority: None,
        }
        .encode(&mut via_frame);
        encode_headers_raw(&mut via_raw, 5, &[0x82, 0x86], false, true);

        Frame::Continuation {
            stream_id: 5,
            fragment: Bytes::from_static(&[0x84]),
            end_headers: false,
        }
        .encode(&mut via_frame);
        encode_continuation_raw(&mut via_raw, 5, &[0x84], false);

        Frame::PushPromise {
            stream_id: 1,
            promised_stream_id: 2,
            fragment: Bytes::from_static(&[0x82]),
            end_headers: true,
        }
        .encode(&mut via_frame);
        encode_push_promise_raw(&mut via_raw, 1, 2, &[0x82]);

        assert_eq!(&via_raw[..], &via_frame[..]);
    }

    #[test]
    fn data_roundtrip() {
        let f = Frame::Data {
            stream_id: 3,
            data: Bytes::from_static(b"hello"),
            end_stream: true,
            pad_len: 0,
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn headers_roundtrip_with_priority() {
        let f = Frame::Headers {
            stream_id: 5,
            fragment: Bytes::from_static(&[0x82, 0x86]),
            end_stream: false,
            end_headers: true,
            priority: Some(PrioritySpec {
                depends_on: 3,
                exclusive: true,
                weight: 256,
            }),
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn all_control_frames_roundtrip() {
        let frames = vec![
            Frame::Priority {
                stream_id: 7,
                spec: PrioritySpec::default(),
            },
            Frame::RstStream {
                stream_id: 9,
                code: ErrorCode::Cancel,
            },
            Frame::Settings {
                ack: false,
                entries: vec![(0x1, 8192), (0x4, 1 << 20)],
            },
            Frame::Settings {
                ack: true,
                entries: vec![],
            },
            Frame::PushPromise {
                stream_id: 1,
                promised_stream_id: 2,
                fragment: Bytes::from_static(&[0x82]),
                end_headers: true,
            },
            Frame::Ping {
                ack: false,
                payload: *b"vroom!!!",
            },
            Frame::Goaway {
                last_stream_id: 11,
                code: ErrorCode::NoError,
                debug: Bytes::from_static(b"bye"),
            },
            Frame::WindowUpdate {
                stream_id: 0,
                increment: 65535,
            },
            Frame::Continuation {
                stream_id: 3,
                fragment: Bytes::from_static(&[0x84]),
                end_headers: true,
            },
        ];
        for f in frames {
            assert_eq!(roundtrip(f.clone()), f, "{f:?}");
        }
    }

    #[test]
    fn partial_input_returns_none_and_keeps_bytes() {
        let f = Frame::Ping {
            ack: false,
            payload: [7; 8],
        };
        let mut full = BytesMut::new();
        f.encode(&mut full);
        let codec = FrameCodec::default();
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(codec.decode(&mut partial).unwrap(), None, "cut={cut}");
            assert_eq!(partial.len(), cut, "bytes must not be consumed");
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut buf = BytesMut::new();
        Frame::Ping {
            ack: false,
            payload: [1; 8],
        }
        .encode(&mut buf);
        Frame::WindowUpdate {
            stream_id: 0,
            increment: 100,
        }
        .encode(&mut buf);
        let codec = FrameCodec::default();
        assert!(matches!(
            codec.decode(&mut buf).unwrap(),
            Some(Frame::Ping { .. })
        ));
        assert!(matches!(
            codec.decode(&mut buf).unwrap(),
            Some(Frame::WindowUpdate { .. })
        ));
        assert!(codec.decode(&mut buf).unwrap().is_none());
    }

    #[test]
    fn padded_data_parses_and_counts_padding() {
        // Hand-build: DATA, stream 1, PADDED, pad len 3, body "ab", 3 pad.
        let mut buf = BytesMut::new();
        let payload_len = 1 + 2 + 3;
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(payload_len as u8);
        buf.put_u8(0x0); // DATA
        buf.put_u8(flags::PADDED | flags::END_STREAM);
        buf.put_u32(1);
        buf.put_u8(3); // pad length
        buf.extend_from_slice(b"ab");
        buf.extend_from_slice(&[0, 0, 0]);
        let codec = FrameCodec::default();
        match codec.decode(&mut buf).unwrap().unwrap() {
            Frame::Data {
                data,
                pad_len,
                end_stream,
                ..
            } => {
                assert_eq!(&data[..], b"ab");
                assert_eq!(pad_len, 4, "3 pad octets + 1 length octet");
                assert!(end_stream);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn padding_longer_than_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(2);
        buf.put_u8(0x0);
        buf.put_u8(flags::PADDED);
        buf.put_u32(1);
        buf.put_u8(200); // pad 200 > frame
        buf.put_u8(0);
        let codec = FrameCodec::default();
        assert!(codec.decode(&mut buf).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0xff);
        buf.put_u8(0xff);
        buf.put_u8(0xff); // 16 MiB - 1
        buf.put_u8(0x0);
        buf.put_u8(0);
        buf.put_u32(1);
        let codec = FrameCodec::default();
        let err = codec.decode(&mut buf).unwrap_err();
        assert_eq!(err.code, ErrorCode::FrameSizeError);
    }

    #[test]
    fn unknown_frame_type_skipped() {
        let mut buf = BytesMut::new();
        // Unknown type 0xBE with 2-byte payload, then a valid PING.
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(2);
        buf.put_u8(0xbe);
        buf.put_u8(0);
        buf.put_u32(1);
        buf.extend_from_slice(&[1, 2]);
        Frame::Ping {
            ack: true,
            payload: [9; 8],
        }
        .encode(&mut buf);
        let codec = FrameCodec::default();
        assert!(matches!(
            codec.decode(&mut buf).unwrap(),
            Some(Frame::Ping { ack: true, .. })
        ));
    }

    #[test]
    fn data_on_stream_zero_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(0x0);
        buf.put_u8(0);
        buf.put_u32(0);
        let codec = FrameCodec::default();
        assert_eq!(
            codec.decode(&mut buf).unwrap_err().code,
            ErrorCode::ProtocolError
        );
    }

    #[test]
    fn window_update_zero_increment_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(4);
        buf.put_u8(0x8);
        buf.put_u8(0);
        buf.put_u32(1);
        buf.put_u32(0);
        let codec = FrameCodec::default();
        assert!(codec.decode(&mut buf).is_err());
    }

    #[test]
    fn settings_ack_with_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u8(6);
        buf.put_u8(0x4);
        buf.put_u8(flags::ACK);
        buf.put_u32(0);
        buf.put_u16(1);
        buf.put_u32(0);
        let codec = FrameCodec::default();
        assert_eq!(
            codec.decode(&mut buf).unwrap_err().code,
            ErrorCode::FrameSizeError
        );
    }
}
