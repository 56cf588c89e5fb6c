//! HTTP/2 frame layer (RFC 7540 §4, §6): the 9-octet frame header, all ten
//! frame types, padding, and priority fields.
//!
//! The codec is sans-IO: [`FrameCodec::decode`] reads at most one frame
//! from the front of a byte slice and reports how many bytes it consumed;
//! [`encode`](Frame::encode) appends wire bytes to a send buffer.

use crate::error::{ConnectionError, ErrorCode};

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
        data: Vec<u8>,
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
        fragment: Vec<u8>,
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
        fragment: Vec<u8>,
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
        debug: Vec<u8>,
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
        fragment: Vec<u8>,
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
    pub fn encode(&self, out: &mut Vec<u8>) {
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
                out.extend_from_slice(&(*code as u32).to_be_bytes());
            }
            Frame::Settings { ack, entries } => {
                let f = if *ack { flags::ACK } else { 0 };
                put_header(out, entries.len() * 6, FrameType::Settings, f, 0);
                for &(id, value) in entries {
                    out.extend_from_slice(&id.to_be_bytes());
                    out.extend_from_slice(&value.to_be_bytes());
                }
            }
            Frame::PushPromise {
                stream_id,
                promised_stream_id,
                fragment,
                end_headers,
            } => encode_push_promise_raw(
                out,
                *stream_id,
                *promised_stream_id,
                fragment,
                *end_headers,
            ),
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
                out.extend_from_slice(&(last_stream_id & 0x7fff_ffff).to_be_bytes());
                out.extend_from_slice(&(*code as u32).to_be_bytes());
                out.extend_from_slice(debug);
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                put_header(out, 4, FrameType::WindowUpdate, 0, *stream_id);
                out.extend_from_slice(&(increment & 0x7fff_ffff).to_be_bytes());
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
/// send buffer, no intermediate payload allocation. The hot send paths use
/// these raw emitters, and [`Frame::encode`] calls them for the DATA,
/// CONTINUATION, PUSH_PROMISE and unprioritized HEADERS layouts, so each
/// of those layouts has one encoder.
pub fn encode_data_raw(out: &mut Vec<u8>, stream_id: u32, data: &[u8], end_stream: bool) {
    let f = if end_stream { flags::END_STREAM } else { 0 };
    put_header(out, data.len(), FrameType::Data, f, stream_id);
    out.extend_from_slice(data);
}

/// Emit a HEADERS frame carrying `fragment` directly into `out` (no
/// priority fields — we never send prioritized HEADERS).
pub fn encode_headers_raw(
    out: &mut Vec<u8>,
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
    out: &mut Vec<u8>,
    stream_id: u32,
    fragment: &[u8],
    end_headers: bool,
) {
    let f = if end_headers { flags::END_HEADERS } else { 0 };
    put_header(out, fragment.len(), FrameType::Continuation, f, stream_id);
    out.extend_from_slice(fragment);
}

/// Emit a PUSH_PROMISE frame carrying `fragment` directly into `out`.
pub fn encode_push_promise_raw(
    out: &mut Vec<u8>,
    stream_id: u32,
    promised_stream_id: u32,
    fragment: &[u8],
    end_headers: bool,
) {
    let f = if end_headers { flags::END_HEADERS } else { 0 };
    put_header(
        out,
        fragment.len() + 4,
        FrameType::PushPromise,
        f,
        stream_id,
    );
    out.extend_from_slice(&(promised_stream_id & 0x7fff_ffff).to_be_bytes());
    out.extend_from_slice(fragment);
}

fn put_header(out: &mut Vec<u8>, len: usize, ty: FrameType, flags: u8, stream_id: u32) {
    debug_assert!(len < 1 << 24, "frame too large: {len}");
    out.extend_from_slice(&[
        (len >> 16) as u8,
        (len >> 8) as u8,
        len as u8,
        ty as u8,
        flags,
    ]);
    out.extend_from_slice(&(stream_id & 0x7fff_ffff).to_be_bytes());
}

fn put_priority(out: &mut Vec<u8>, p: &PrioritySpec) {
    let dep = (p.depends_on & 0x7fff_ffff) | if p.exclusive { 0x8000_0000 } else { 0 };
    out.extend_from_slice(&dep.to_be_bytes());
    debug_assert!((1..=256).contains(&p.weight));
    out.push((p.weight - 1) as u8);
}

/// Octets in every frame header (RFC 7540 §4.1).
pub(crate) const HEADER_LEN: usize = 9;

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
    /// The whole length, header included, of the frame at the front of
    /// `buf`: `None` until its 9-octet header is there. A payload longer
    /// than `max_frame_size` is an error as soon as the header shows it,
    /// so no caller buffers one.
    pub(crate) fn frame_len(&self, buf: &[u8]) -> Result<Option<usize>, ConnectionError> {
        let Some(&[l0, l1, l2, ..]) = buf.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([0, l0, l1, l2]);
        if len > self.max_frame_size {
            // vroom-lint: allow(hot-path-alloc) -- cold protocol-error path: renders the message for a rejected peer
            return Err(ConnectionError::frame_size(format!(
                "frame of {len} bytes exceeds max {}",
                self.max_frame_size
            )));
        }
        Ok(Some(HEADER_LEN + len as usize))
    }

    /// Try to decode a single frame from the front of `buf`.
    ///
    /// Returns how many bytes of `buf` the frame took, and the frame:
    /// `(0, None)` when `buf` does not yet hold a complete frame. A frame
    /// of unknown type is consumed and discarded (RFC 7540 §4.1: "ignored
    /// and discarded") as `(n, None)` with `n > 0`. Callers loop, advancing
    /// past the consumed bytes, until the count is 0. Each payload field
    /// is one copy of its slice of `buf`.
    pub fn decode(&self, buf: &[u8]) -> Result<(usize, Option<Frame>), ConnectionError> {
        let Some(consumed) = self.frame_len(buf)? else {
            return Ok((0, None)); // incomplete 9-byte header
        };
        let Some((&[_, _, _, ty, fl, s0, s1, s2, s3], rest)) = buf.split_first_chunk::<9>() else {
            return Ok((0, None));
        };
        let len = consumed - HEADER_LEN;
        let Some(payload) = rest.get(..len) else {
            return Ok((0, None));
        };
        let stream_id = u32::from_be_bytes([s0, s1, s2, s3]) & 0x7fff_ffff;

        let frame = match ty {
            0x0 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("DATA on stream 0"));
                }
                let (data, pad_len) = strip_padding(payload, fl)?;
                Frame::Data {
                    stream_id,
                    // vroom-lint: allow(hot-path-alloc) -- a decoded frame owns its payload, and `buf` is only borrowed for the call: one copy per decoded frame
                    data: data.to_vec(),
                    end_stream: fl & flags::END_STREAM != 0,
                    pad_len,
                }
            }
            0x1 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("HEADERS on stream 0"));
                }
                let (block, _) = strip_padding(payload, fl)?;
                let (priority, fragment) = if fl & flags::PRIORITY != 0 {
                    let Some((spec, fragment)) = block.split_first_chunk::<5>() else {
                        return Err(ConnectionError::frame_size("HEADERS priority truncated"));
                    };
                    (Some(priority_from(spec)), fragment)
                } else {
                    (None, block)
                };
                Frame::Headers {
                    stream_id,
                    // vroom-lint: allow(hot-path-alloc) -- a decoded frame owns its payload, and `buf` is only borrowed for the call: one copy per decoded frame
                    fragment: fragment.to_vec(),
                    end_stream: fl & flags::END_STREAM != 0,
                    end_headers: fl & flags::END_HEADERS != 0,
                    priority,
                }
            }
            0x2 => {
                let Ok(spec) = <&[u8; 5]>::try_from(payload) else {
                    // PRIORITY size error is a *stream* error per spec, but
                    // we simplify to connection-level (we never send these).
                    return Err(ConnectionError::frame_size("PRIORITY length != 5"));
                };
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("PRIORITY on stream 0"));
                }
                Frame::Priority {
                    stream_id,
                    spec: priority_from(spec),
                }
            }
            0x3 => {
                let Ok(code) = <[u8; 4]>::try_from(payload) else {
                    return Err(ConnectionError::frame_size("RST_STREAM length != 4"));
                };
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("RST_STREAM on stream 0"));
                }
                Frame::RstStream {
                    stream_id,
                    code: ErrorCode::from_wire(u32::from_be_bytes(code)),
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
                let (entries, []) = payload.as_chunks::<6>() else {
                    return Err(ConnectionError::frame_size("SETTINGS length % 6 != 0"));
                };
                let entries = entries
                    .iter()
                    .map(|&[i0, i1, v0, v1, v2, v3]| {
                        (
                            u16::from_be_bytes([i0, i1]),
                            u32::from_be_bytes([v0, v1, v2, v3]),
                        )
                    })
                    .collect();
                Frame::Settings { ack, entries }
            }
            0x5 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("PUSH_PROMISE on stream 0"));
                }
                let (block, _) = strip_padding(payload, fl)?;
                let Some((promised, fragment)) = block.split_first_chunk::<4>() else {
                    return Err(ConnectionError::frame_size("PUSH_PROMISE truncated"));
                };
                Frame::PushPromise {
                    stream_id,
                    promised_stream_id: u32::from_be_bytes(*promised) & 0x7fff_ffff,
                    // vroom-lint: allow(hot-path-alloc) -- a decoded frame owns its payload, and `buf` is only borrowed for the call: one copy per decoded frame
                    fragment: fragment.to_vec(),
                    end_headers: fl & flags::END_HEADERS != 0,
                }
            }
            0x6 => {
                let Ok(payload) = <[u8; 8]>::try_from(payload) else {
                    return Err(ConnectionError::frame_size("PING length != 8"));
                };
                if stream_id != 0 {
                    return Err(ConnectionError::protocol("PING on stream != 0"));
                }
                Frame::Ping {
                    ack: fl & flags::ACK != 0,
                    payload,
                }
            }
            0x7 => {
                let Some((&[a0, a1, a2, a3, c0, c1, c2, c3], debug)) =
                    payload.split_first_chunk::<8>()
                else {
                    return Err(ConnectionError::frame_size("GOAWAY too short"));
                };
                if stream_id != 0 {
                    return Err(ConnectionError::protocol("GOAWAY on stream != 0"));
                }
                Frame::Goaway {
                    last_stream_id: u32::from_be_bytes([a0, a1, a2, a3]) & 0x7fff_ffff,
                    code: ErrorCode::from_wire(u32::from_be_bytes([c0, c1, c2, c3])),
                    // vroom-lint: allow(hot-path-alloc) -- a decoded frame owns its payload, and `buf` is only borrowed for the call: one copy per decoded frame
                    debug: debug.to_vec(),
                }
            }
            0x8 => {
                let Ok(increment) = <[u8; 4]>::try_from(payload) else {
                    return Err(ConnectionError::frame_size("WINDOW_UPDATE length != 4"));
                };
                let increment = u32::from_be_bytes(increment) & 0x7fff_ffff;
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
                    // vroom-lint: allow(hot-path-alloc) -- a decoded frame owns its payload, and `buf` is only borrowed for the call: one copy per decoded frame
                    fragment: payload.to_vec(),
                    end_headers: fl & flags::END_HEADERS != 0,
                }
            }
            // Unknown type: consumed and discarded; the caller's loop moves
            // on to the next frame.
            _ => return Ok((consumed, None)),
        };
        Ok((consumed, Some(frame)))
    }
}

fn priority_from(&[d0, d1, d2, d3, weight]: &[u8; 5]) -> PrioritySpec {
    let dep = u32::from_be_bytes([d0, d1, d2, d3]);
    PrioritySpec {
        depends_on: dep & 0x7fff_ffff,
        exclusive: dep & 0x8000_0000 != 0,
        weight: weight as u16 + 1,
    }
}

/// If PADDED is set, strip the pad-length octet and trailing padding.
/// Returns what is left of the payload, and the padding octets (pad length
/// + 1) for flow accounting.
fn strip_padding(payload: &[u8], fl: u8) -> Result<(&[u8], u32), ConnectionError> {
    if fl & flags::PADDED == 0 {
        return Ok((payload, 0));
    }
    let Some((&pad, rest)) = payload.split_first() else {
        return Err(ConnectionError::frame_size(
            "PADDED frame without pad length",
        ));
    };
    let Some(body) = rest
        .len()
        .checked_sub(pad as usize)
        .and_then(|n| rest.get(..n))
    else {
        return Err(ConnectionError::protocol("padding exceeds frame payload"));
    };
    Ok((body, pad as u32 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (used, got) = FrameCodec::default().decode(&buf).unwrap();
        assert_eq!(used, buf.len(), "no leftover bytes");
        got.expect("complete frame")
    }

    #[test]
    fn raw_emitters_match_frame_encode() {
        let mut via_frame = Vec::new();
        let mut via_raw = Vec::new();

        Frame::Data {
            stream_id: 3,
            data: b"body".to_vec(),
            end_stream: true,
            pad_len: 0,
        }
        .encode(&mut via_frame);
        encode_data_raw(&mut via_raw, 3, b"body", true);

        Frame::Headers {
            stream_id: 5,
            fragment: vec![0x82, 0x86],
            end_stream: false,
            end_headers: true,
            priority: None,
        }
        .encode(&mut via_frame);
        encode_headers_raw(&mut via_raw, 5, &[0x82, 0x86], false, true);

        Frame::Continuation {
            stream_id: 5,
            fragment: vec![0x84],
            end_headers: false,
        }
        .encode(&mut via_frame);
        encode_continuation_raw(&mut via_raw, 5, &[0x84], false);

        for end_headers in [true, false] {
            Frame::PushPromise {
                stream_id: 1,
                promised_stream_id: 2,
                fragment: vec![0x82],
                end_headers,
            }
            .encode(&mut via_frame);
            encode_push_promise_raw(&mut via_raw, 1, 2, &[0x82], end_headers);
        }

        assert_eq!(via_raw, via_frame);
    }

    #[test]
    fn data_roundtrip() {
        let f = Frame::Data {
            stream_id: 3,
            data: b"hello".to_vec(),
            end_stream: true,
            pad_len: 0,
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn headers_roundtrip_with_priority() {
        let f = Frame::Headers {
            stream_id: 5,
            fragment: vec![0x82, 0x86],
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
                fragment: vec![0x82],
                end_headers: true,
            },
            Frame::Ping {
                ack: false,
                payload: *b"vroom!!!",
            },
            Frame::Goaway {
                last_stream_id: 11,
                code: ErrorCode::NoError,
                debug: b"bye".to_vec(),
            },
            Frame::WindowUpdate {
                stream_id: 0,
                increment: 65535,
            },
            Frame::Continuation {
                stream_id: 3,
                fragment: vec![0x84],
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
        let mut full = Vec::new();
        f.encode(&mut full);
        let codec = FrameCodec::default();
        for cut in 0..full.len() {
            // Nothing consumed: the caller keeps every byte for the next read.
            assert_eq!(codec.decode(&full[..cut]).unwrap(), (0, None), "cut={cut}");
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut buf = Vec::new();
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
        let (first, ping) = codec.decode(&buf).unwrap();
        assert!(matches!(ping, Some(Frame::Ping { .. })));
        let (second, update) = codec.decode(&buf[first..]).unwrap();
        assert!(matches!(update, Some(Frame::WindowUpdate { .. })));
        assert_eq!(first + second, buf.len());
        assert_eq!(codec.decode(&buf[first + second..]).unwrap(), (0, None));
    }

    #[test]
    fn padded_data_parses_and_counts_padding() {
        // Hand-build: DATA, stream 1, PADDED, pad len 3, body "ab", 3 pad.
        let payload_len = 1 + 2 + 3;
        let mut buf = vec![0, 0, payload_len, 0x0, flags::PADDED | flags::END_STREAM];
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(3); // pad length
        buf.extend_from_slice(b"ab");
        buf.extend_from_slice(&[0, 0, 0]);
        let codec = FrameCodec::default();
        match codec.decode(&buf).unwrap() {
            (
                15,
                Some(Frame::Data {
                    data,
                    pad_len,
                    end_stream,
                    ..
                }),
            ) => {
                assert_eq!(&data[..], b"ab");
                assert_eq!(pad_len, 4, "3 pad octets + 1 length octet");
                assert!(end_stream);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn padding_longer_than_payload_rejected() {
        // DATA, stream 1, PADDED, pad 200 > frame.
        let buf = [0, 0, 2, 0x0, flags::PADDED, 0, 0, 0, 1, 200, 0];
        let codec = FrameCodec::default();
        assert!(codec.decode(&buf).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        // 16 MiB - 1 bytes of DATA on stream 1.
        let buf = [0xff, 0xff, 0xff, 0x0, 0, 0, 0, 0, 1];
        let codec = FrameCodec::default();
        let err = codec.decode(&buf).unwrap_err();
        assert_eq!(err.code, ErrorCode::FrameSizeError);
    }

    #[test]
    fn unknown_frame_type_skipped() {
        // 100,000 empty frames of unknown type 0xBE, one with a 2-byte
        // payload, then a valid PING. Each unknown frame is consumed
        // without a frame, and the caller's loop moves on: skipping them
        // costs no stack, however many arrive in one read.
        let mut buf = Vec::new();
        for _ in 0..100_000 {
            buf.extend_from_slice(&[0, 0, 0, 0xbe, 0, 0, 0, 0, 1]);
        }
        buf.extend_from_slice(&[0, 0, 2, 0xbe, 0, 0, 0, 0, 1, 1, 2]);
        Frame::Ping {
            ack: true,
            payload: [9; 8],
        }
        .encode(&mut buf);
        let codec = FrameCodec::default();
        let mut pos = 0;
        let mut frames = Vec::new();
        loop {
            let (used, frame) = codec.decode(&buf[pos..]).unwrap();
            if used == 0 {
                break;
            }
            pos += used;
            frames.extend(frame);
        }
        assert_eq!(pos, buf.len(), "every frame consumed");
        assert!(matches!(frames.as_slice(), [Frame::Ping { ack: true, .. }]));
    }

    #[test]
    fn data_on_stream_zero_rejected() {
        let buf = [0, 0, 0, 0x0, 0, 0, 0, 0, 0];
        let codec = FrameCodec::default();
        assert_eq!(
            codec.decode(&buf).unwrap_err().code,
            ErrorCode::ProtocolError
        );
    }

    #[test]
    fn window_update_zero_increment_rejected() {
        let buf = [0, 0, 4, 0x8, 0, 0, 0, 0, 1, 0, 0, 0, 0];
        let codec = FrameCodec::default();
        assert!(codec.decode(&buf).is_err());
    }

    #[test]
    fn settings_ack_with_payload_rejected() {
        let buf = [0, 0, 6, 0x4, flags::ACK, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0];
        let codec = FrameCodec::default();
        assert_eq!(
            codec.decode(&buf).unwrap_err().code,
            ErrorCode::FrameSizeError
        );
    }
}
