//! Flow-control windows (RFC 7540 §5.2, §6.9).
//!
//! Windows are signed: a `SETTINGS_INITIAL_WINDOW_SIZE` decrease can push a
//! stream's send window negative (§6.9.2).

use crate::error::ConnectionError;
use crate::settings::MAX_WINDOW_SIZE;

/// One flow-control window (send or receive side of a stream or connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowWindow {
    available: i64,
}

impl FlowWindow {
    /// A window with the given initial credit.
    pub fn new(initial: u32) -> Self {
        FlowWindow {
            available: initial as i64,
        }
    }

    /// Credit currently available (may be negative).
    pub fn available(&self) -> i64 {
        self.available
    }

    /// Bytes that can actually be sent right now.
    pub fn sendable(&self) -> u32 {
        self.available.clamp(0, u32::MAX as i64) as u32
    }

    /// Consume credit for `n` bytes of DATA (including padding).
    ///
    /// # Panics
    /// Panics if consuming more than available — callers must clamp with
    /// [`sendable`](Self::sendable) first; receivers enforce the peer's
    /// conformance via [`try_consume`](Self::try_consume).
    pub fn consume(&mut self, n: u32) {
        assert!(
            (n as i64) <= self.available,
            "over-consuming window: {} > {}",
            n,
            self.available
        );
        self.available -= n as i64;
    }

    /// Receiver-side consume: errors (FLOW_CONTROL_ERROR) if the peer
    /// overran the window we advertised.
    pub fn try_consume(&mut self, n: u32) -> Result<(), ConnectionError> {
        if (n as i64) > self.available {
            return Err(ConnectionError::flow_control(
                "peer sent more than the window allows",
            ));
        }
        self.available -= n as i64;
        Ok(())
    }

    /// Add credit from a WINDOW_UPDATE. Errors if the window would exceed
    /// 2^31 − 1 (§6.9.1).
    pub fn expand(&mut self, n: u32) -> Result<(), ConnectionError> {
        let next = self.available + n as i64;
        if next > MAX_WINDOW_SIZE as i64 {
            return Err(ConnectionError::flow_control("window would pass 2^31-1"));
        }
        self.available = next;
        Ok(())
    }

    /// Receiver-side refill, the rule nghttp2 follows: once the window has
    /// fallen below half of `initial`, restore it to `initial` in full and
    /// return the increment to announce in one WINDOW_UPDATE; `None` while
    /// at least half is left. RFC 9113 §5.2 leaves the timing to the
    /// receiver.
    pub fn refill(&mut self, initial: u32) -> Option<u32> {
        if self.available * 2 >= initial as i64 {
            return None;
        }
        let increment = (initial as i64 - self.available) as u32;
        self.available = initial as i64;
        Some(increment)
    }

    /// Apply a change of `SETTINGS_INITIAL_WINDOW_SIZE` (§6.9.2): adjust by
    /// the delta, which may drive the window negative.
    pub fn adjust_initial(&mut self, old: u32, new: u32) -> Result<(), ConnectionError> {
        let delta = new as i64 - old as i64;
        let next = self.available + delta;
        if next > MAX_WINDOW_SIZE as i64 {
            return Err(ConnectionError::flow_control(
                "initial window adjustment overflow",
            ));
        }
        self.available = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_and_expand() {
        let mut w = FlowWindow::new(100);
        w.consume(40);
        assert_eq!(w.available(), 60);
        assert_eq!(w.sendable(), 60);
        w.expand(10).unwrap();
        assert_eq!(w.available(), 70);
    }

    #[test]
    #[should_panic(expected = "over-consuming")]
    fn over_consume_panics() {
        let mut w = FlowWindow::new(10);
        w.consume(11);
    }

    #[test]
    fn try_consume_errors_instead_of_panicking() {
        let mut w = FlowWindow::new(10);
        assert!(w.try_consume(10).is_ok());
        assert!(w.try_consume(1).is_err());
    }

    #[test]
    fn expand_overflow_rejected() {
        let mut w = FlowWindow::new(MAX_WINDOW_SIZE);
        assert!(w.expand(1).is_err());
        let mut w2 = FlowWindow::new(0);
        assert!(w2.expand(MAX_WINDOW_SIZE).is_ok());
    }

    #[test]
    fn refill_waits_for_half_the_window_then_restores_it_whole() {
        let mut w = FlowWindow::new(100);
        w.try_consume(50).unwrap();
        assert_eq!(w.refill(100), None, "half is left");
        w.try_consume(1).unwrap();
        assert_eq!(w.refill(100), Some(51));
        assert_eq!(w.available(), 100);
        // A one-byte window still refills once it is spent.
        let mut tiny = FlowWindow::new(1);
        tiny.try_consume(1).unwrap();
        assert_eq!(tiny.refill(1), Some(1));
        // A zero window never asks for credit.
        assert_eq!(FlowWindow::new(0).refill(0), None);
    }

    #[test]
    fn initial_window_shrink_can_go_negative() {
        let mut w = FlowWindow::new(65_535);
        w.consume(60_000);
        w.adjust_initial(65_535, 1_000).unwrap();
        assert_eq!(w.available(), 5_535 - 64_535);
        assert_eq!(w.sendable(), 0);
        // Growing it back restores credit.
        w.adjust_initial(1_000, 65_535).unwrap();
        assert_eq!(w.available(), 5_535);
    }
}
