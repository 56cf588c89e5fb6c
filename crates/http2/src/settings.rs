//! HTTP/2 settings (RFC 7540 §6.5.2): typed view over SETTINGS entries.

use crate::error::ConnectionError;

/// Default `SETTINGS_INITIAL_WINDOW_SIZE`.
pub const DEFAULT_INITIAL_WINDOW_SIZE: u32 = 65_535;
/// Default `SETTINGS_MAX_FRAME_SIZE`.
pub const DEFAULT_MAX_FRAME_SIZE: u32 = 16_384;
/// Largest permitted `SETTINGS_MAX_FRAME_SIZE`.
pub const MAX_MAX_FRAME_SIZE: u32 = (1 << 24) - 1;
/// Largest permitted window size (for both settings and flow control).
pub const MAX_WINDOW_SIZE: u32 = (1 << 31) - 1;

/// Setting identifiers.
pub mod ids {
    /// HPACK dynamic table ceiling.
    pub const HEADER_TABLE_SIZE: u16 = 0x1;
    /// Whether the peer may send PUSH_PROMISE.
    pub const ENABLE_PUSH: u16 = 0x2;
    /// Cap on concurrently open peer-initiated streams.
    pub const MAX_CONCURRENT_STREAMS: u16 = 0x3;
    /// Initial per-stream flow window.
    pub const INITIAL_WINDOW_SIZE: u16 = 0x4;
    /// Largest frame payload the sender will accept.
    pub const MAX_FRAME_SIZE: u16 = 0x5;
    /// Advisory cap on decoded header list size.
    pub const MAX_HEADER_LIST_SIZE: u16 = 0x6;
}

/// A complete, validated settings state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// HPACK dynamic table ceiling we allow the peer's encoder.
    pub header_table_size: u32,
    /// Whether server push is permitted toward this endpoint.
    pub enable_push: bool,
    /// Max concurrent peer-initiated streams (`None` = unlimited).
    pub max_concurrent_streams: Option<u32>,
    /// Initial per-stream flow-control window.
    pub initial_window_size: u32,
    /// Largest frame payload accepted.
    pub max_frame_size: u32,
    /// Advisory max header list size (`None` = unlimited).
    pub max_header_list_size: Option<u32>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            header_table_size: 4096,
            enable_push: true,
            max_concurrent_streams: None,
            initial_window_size: DEFAULT_INITIAL_WINDOW_SIZE,
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            max_header_list_size: None,
        }
    }
}

impl Settings {
    /// Settings suitable for a Vroom client: push enabled, roomy windows so
    /// that the access link (not flow control) is the bottleneck.
    ///
    /// Both windows are opened to 2^31 − 1: the stream window by the
    /// `INITIAL_WINDOW_SIZE` entry, and the connection window by the
    /// stream-0 WINDOW_UPDATE that [`Connection`](crate::Connection) queues
    /// after SETTINGS whenever the initial window exceeds 65,535.
    pub fn vroom_client() -> Self {
        Settings {
            enable_push: true,
            initial_window_size: MAX_WINDOW_SIZE,
            max_concurrent_streams: Some(256),
            ..Settings::default()
        }
    }

    /// Settings for a Vroom server: the defaults, plus a
    /// `SETTINGS_MAX_CONCURRENT_STREAMS` of 100, the fewest RFC 9113
    /// §6.5.2 recommends, so a client opening more streams at once gets
    /// REFUSED_STREAM for each one past the limit instead of unbounded
    /// per-stream state.
    pub fn vroom_server() -> Self {
        Settings {
            max_concurrent_streams: Some(100),
            ..Settings::default()
        }
    }

    /// Apply a received (id, value) list in order. Unknown ids are ignored
    /// (RFC 7540 §6.5.2). Invalid values are connection errors.
    pub fn apply(&mut self, entries: &[(u16, u32)]) -> Result<(), ConnectionError> {
        for &(id, value) in entries {
            match id {
                ids::HEADER_TABLE_SIZE => self.header_table_size = value,
                ids::ENABLE_PUSH => {
                    self.enable_push = match value {
                        0 => false,
                        1 => true,
                        _ => return Err(ConnectionError::protocol("ENABLE_PUSH not 0 or 1")),
                    }
                }
                ids::MAX_CONCURRENT_STREAMS => self.max_concurrent_streams = Some(value),
                ids::INITIAL_WINDOW_SIZE => {
                    if value > MAX_WINDOW_SIZE {
                        return Err(ConnectionError::flow_control(
                            "INITIAL_WINDOW_SIZE above 2^31-1",
                        ));
                    }
                    self.initial_window_size = value;
                }
                ids::MAX_FRAME_SIZE => {
                    if !(DEFAULT_MAX_FRAME_SIZE..=MAX_MAX_FRAME_SIZE).contains(&value) {
                        return Err(ConnectionError::protocol("MAX_FRAME_SIZE out of range"));
                    }
                    self.max_frame_size = value;
                }
                ids::MAX_HEADER_LIST_SIZE => self.max_header_list_size = Some(value),
                _ => {} // ignore unknown settings
            }
        }
        Ok(())
    }

    /// Serialize to (id, value) pairs, only emitting non-default values.
    pub fn to_entries(&self) -> Vec<(u16, u32)> {
        let d = Settings::default();
        let mut out = Vec::new();
        if self.header_table_size != d.header_table_size {
            out.push((ids::HEADER_TABLE_SIZE, self.header_table_size));
        }
        if self.enable_push != d.enable_push {
            out.push((ids::ENABLE_PUSH, self.enable_push as u32));
        }
        if let Some(m) = self.max_concurrent_streams {
            out.push((ids::MAX_CONCURRENT_STREAMS, m));
        }
        if self.initial_window_size != d.initial_window_size {
            out.push((ids::INITIAL_WINDOW_SIZE, self.initial_window_size));
        }
        if self.max_frame_size != d.max_frame_size {
            out.push((ids::MAX_FRAME_SIZE, self.max_frame_size));
        }
        if let Some(m) = self.max_header_list_size {
            out.push((ids::MAX_HEADER_LIST_SIZE, m));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_rfc() {
        let s = Settings::default();
        assert_eq!(s.header_table_size, 4096);
        assert!(s.enable_push);
        assert_eq!(s.max_concurrent_streams, None);
        assert_eq!(s.initial_window_size, 65_535);
        assert_eq!(s.max_frame_size, 16_384);
    }

    #[test]
    fn roundtrip_through_entries() {
        let s = Settings {
            header_table_size: 8192,
            enable_push: false,
            max_concurrent_streams: Some(100),
            initial_window_size: 1 << 20,
            max_frame_size: 32_768,
            max_header_list_size: Some(65_536),
        };
        let mut back = Settings::default();
        back.apply(&s.to_entries()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn default_values_not_serialized() {
        assert!(Settings::default().to_entries().is_empty());
    }

    #[test]
    fn unknown_ids_ignored() {
        let mut s = Settings::default();
        s.apply(&[(0xdead, 42)]).unwrap();
        assert_eq!(s, Settings::default());
    }

    #[test]
    fn invalid_enable_push_rejected() {
        let mut s = Settings::default();
        assert!(s.apply(&[(ids::ENABLE_PUSH, 2)]).is_err());
    }

    #[test]
    fn window_size_bounds() {
        let mut s = Settings::default();
        assert!(s
            .apply(&[(ids::INITIAL_WINDOW_SIZE, MAX_WINDOW_SIZE)])
            .is_ok());
        assert!(s
            .apply(&[(ids::INITIAL_WINDOW_SIZE, MAX_WINDOW_SIZE + 1)])
            .is_err());
    }

    #[test]
    fn frame_size_bounds() {
        let mut s = Settings::default();
        assert!(s.apply(&[(ids::MAX_FRAME_SIZE, 16_383)]).is_err());
        assert!(s.apply(&[(ids::MAX_FRAME_SIZE, 1 << 24)]).is_err());
        assert!(s
            .apply(&[(ids::MAX_FRAME_SIZE, MAX_MAX_FRAME_SIZE)])
            .is_ok());
    }

    #[test]
    fn last_value_wins() {
        let mut s = Settings::default();
        s.apply(&[(ids::HEADER_TABLE_SIZE, 1), (ids::HEADER_TABLE_SIZE, 2)])
            .unwrap();
        assert_eq!(s.header_table_size, 2);
    }
}
