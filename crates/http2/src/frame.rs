//! HTTP/2 frame layer (RFC 7540 §4, §6): the 9-octet frame header, the
//! codec for all ten frame types, and padding.
//!
//! The codec is sans-IO: [`FrameCodec::decode`] reads at most one frame
//! from the front of a byte slice and reports how many bytes it consumed;
//! [`encode`](Frame::encode) appends wire bytes to a send buffer. A
//! [`Frame`] borrows what it carries, from the decoded input or from the
//! sender's buffers, so neither direction copies a payload into a frame.
//! PRIORITY frames and the priority fields of HEADERS are checked and
//! dropped: priority is advisory (RFC 9113 §5.3.2 deprecates it), the
//! Vroom client schedules with its own staged fetcher, and this stack never
//! sends it.

use crate::error::{ConnectionError, ErrorCode};

/// Type codes of the frames the encoder writes (RFC 7540 §6). PRIORITY
/// (0x2) is only parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Carries request/response bodies.
    Data = 0x0,
    /// Opens a stream with a header block fragment.
    Headers = 0x1,
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

/// An HTTP/2 frame of one of the nine types this stack sends, borrowing
/// its payload for `'a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// DATA (§6.1). `pad_len` octets of padding were present and stripped —
    /// retained because padding still counts against flow control.
    Data {
        /// Stream the data belongs to.
        stream_id: u32,
        /// Body bytes, padding removed.
        data: &'a [u8],
        /// Whether END_STREAM was set.
        end_stream: bool,
        /// Number of padding octets (0 when the frame was not padded);
        /// includes the pad-length octet itself when padding was present.
        pad_len: u32,
    },
    /// HEADERS (§6.2) — one header block *fragment*, any priority fields
    /// dropped.
    Headers {
        /// Stream being opened / continued.
        stream_id: u32,
        /// HPACK fragment.
        fragment: &'a [u8],
        /// Whether END_STREAM was set.
        end_stream: bool,
        /// Whether END_HEADERS was set.
        end_headers: bool,
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
        fragment: &'a [u8],
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
        debug: &'a [u8],
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
        fragment: &'a [u8],
        /// Whether END_HEADERS was set.
        end_headers: bool,
    },
}

impl Frame<'_> {
    /// Serialize onto `out`: the frame header, then each payload field
    /// copied once, straight from the slice the frame borrows. Frames are
    /// emitted unpadded (padding is parsed on receive but never generated —
    /// same choice as most implementations).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Frame::Data {
                stream_id,
                data,
                end_stream,
                ..
            } => {
                let f = flag(end_stream, flags::END_STREAM);
                put_header(out, data.len(), FrameType::Data, f, stream_id);
                out.extend_from_slice(data);
            }
            Frame::Headers {
                stream_id,
                fragment,
                end_stream,
                end_headers,
            } => {
                let f = flag(end_stream, flags::END_STREAM) | flag(end_headers, flags::END_HEADERS);
                put_header(out, fragment.len(), FrameType::Headers, f, stream_id);
                out.extend_from_slice(fragment);
            }
            Frame::RstStream { stream_id, code } => {
                put_header(out, 4, FrameType::RstStream, 0, stream_id);
                out.extend_from_slice(&(code as u32).to_be_bytes());
            }
            Frame::Settings { ack, ref entries } => {
                let f = flag(ack, flags::ACK);
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
            } => {
                let f = flag(end_headers, flags::END_HEADERS);
                put_header(
                    out,
                    4 + fragment.len(),
                    FrameType::PushPromise,
                    f,
                    stream_id,
                );
                out.extend_from_slice(&(promised_stream_id & 0x7fff_ffff).to_be_bytes());
                out.extend_from_slice(fragment);
            }
            Frame::Ping { ack, payload } => {
                put_header(out, 8, FrameType::Ping, flag(ack, flags::ACK), 0);
                out.extend_from_slice(&payload);
            }
            Frame::Goaway {
                last_stream_id,
                code,
                debug,
            } => {
                put_header(out, 8 + debug.len(), FrameType::Goaway, 0, 0);
                out.extend_from_slice(&(last_stream_id & 0x7fff_ffff).to_be_bytes());
                out.extend_from_slice(&(code as u32).to_be_bytes());
                out.extend_from_slice(debug);
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                put_header(out, 4, FrameType::WindowUpdate, 0, stream_id);
                out.extend_from_slice(&(increment & 0x7fff_ffff).to_be_bytes());
            }
            Frame::Continuation {
                stream_id,
                fragment,
                end_headers,
            } => {
                let f = flag(end_headers, flags::END_HEADERS);
                put_header(out, fragment.len(), FrameType::Continuation, f, stream_id);
                out.extend_from_slice(fragment);
            }
        }
    }
}

/// `bit` when `set`, else 0.
fn flag(set: bool, bit: u8) -> u8 {
    if set {
        bit
    } else {
        0
    }
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
            return Err(ConnectionError::frame_size("frame exceeds max frame size"));
        }
        Ok(Some(HEADER_LEN + len as usize))
    }

    /// Try to decode a single frame from the front of `buf`.
    ///
    /// Returns how many bytes of `buf` the frame took, and the frame, which
    /// borrows its payload from `buf`: `(0, None)` when `buf` does not yet
    /// hold a complete frame. A frame of unknown type (RFC 7540 §4.1:
    /// "ignored and discarded") and a well-formed PRIORITY frame are
    /// consumed as `(n, None)` with `n > 0`. Callers loop, advancing past
    /// the consumed bytes, until the count is 0.
    pub fn decode<'a>(&self, buf: &'a [u8]) -> Result<(usize, Option<Frame<'a>>), ConnectionError> {
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
                    data,
                    end_stream: fl & flags::END_STREAM != 0,
                    pad_len,
                }
            }
            0x1 => {
                if stream_id == 0 {
                    return Err(ConnectionError::protocol("HEADERS on stream 0"));
                }
                let (mut fragment, _) = strip_padding(payload, fl)?;
                if fl & flags::PRIORITY != 0 {
                    let Some((_, rest)) = fragment.split_first_chunk::<5>() else {
                        return Err(ConnectionError::frame_size("HEADERS priority truncated"));
                    };
                    fragment = rest;
                }
                Frame::Headers {
                    stream_id,
                    fragment,
                    end_stream: fl & flags::END_STREAM != 0,
                    end_headers: fl & flags::END_HEADERS != 0,
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
                return Ok((consumed, None));
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
                    fragment,
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
                    debug,
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
                    fragment: payload,
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

    fn assert_roundtrip(frame: &Frame<'_>) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (used, got) = FrameCodec::default().decode(&buf).unwrap();
        assert_eq!(used, buf.len(), "no leftover bytes");
        assert_eq!(got.as_ref(), Some(frame));
    }

    #[test]
    fn data_roundtrip() {
        assert_roundtrip(&Frame::Data {
            stream_id: 3,
            data: b"hello",
            end_stream: true,
            pad_len: 0,
        });
    }

    #[test]
    fn all_control_frames_roundtrip() {
        let frames = [
            Frame::Headers {
                stream_id: 5,
                fragment: &[0x82, 0x86],
                end_stream: false,
                end_headers: true,
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
                fragment: &[0x82],
                end_headers: true,
            },
            Frame::Ping {
                ack: false,
                payload: *b"vroom!!!",
            },
            Frame::Goaway {
                last_stream_id: 11,
                code: ErrorCode::NoError,
                debug: b"bye",
            },
            Frame::WindowUpdate {
                stream_id: 0,
                increment: 65535,
            },
            Frame::Continuation {
                stream_id: 3,
                fragment: &[0x84],
                end_headers: true,
            },
        ];
        for f in &frames {
            assert_roundtrip(f);
        }
    }

    /// A frame header for `len` payload octets, by hand.
    fn header(len: u8, ty: u8, flags: u8, stream_id: u32) -> Vec<u8> {
        let mut buf = vec![0, 0, len, ty, flags];
        buf.extend_from_slice(&stream_id.to_be_bytes());
        buf
    }

    #[test]
    fn prioritized_headers_decode_to_their_fragment() {
        // HEADERS on stream 5 with END_HEADERS: once plain, once with the
        // PRIORITY flag (exclusive dependency on 3, weight 256), once
        // padded as well. All three decode to the same frame.
        let plain = [header(2, 0x1, flags::END_HEADERS, 5), vec![0x82, 0x86]].concat();
        let prioritized = [
            header(7, 0x1, flags::END_HEADERS | flags::PRIORITY, 5),
            vec![0x80, 0, 0, 3, 255, 0x82, 0x86],
        ]
        .concat();
        let padded = [
            header(
                10,
                0x1,
                flags::END_HEADERS | flags::PRIORITY | flags::PADDED,
                5,
            ),
            vec![2, 0x80, 0, 0, 3, 255, 0x82, 0x86, 0, 0],
        ]
        .concat();
        let codec = FrameCodec::default();
        let want = Frame::Headers {
            stream_id: 5,
            fragment: &[0x82, 0x86],
            end_stream: false,
            end_headers: true,
        };
        for wire in [&plain, &prioritized, &padded] {
            assert_eq!(
                codec.decode(wire).unwrap(),
                (wire.len(), Some(want.clone()))
            );
        }
        // Priority fields cut short are a frame size error.
        let short = [header(3, 0x1, flags::PRIORITY, 5), vec![0, 0, 3]].concat();
        assert_eq!(
            codec.decode(&short).unwrap_err().code,
            ErrorCode::FrameSizeError
        );
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
                assert_eq!(data, b"ab");
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
