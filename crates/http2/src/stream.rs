//! Per-stream state machine (RFC 7540 §5.1) and flow-control bookkeeping.

use crate::error::{ConnectionError, ErrorCode};
use crate::flow::FlowWindow;

/// RFC 7540 §5.1 stream states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// Not yet used.
    Idle,
    /// Reserved by a PUSH_PROMISE we sent.
    ReservedLocal,
    /// Reserved by a PUSH_PROMISE we received.
    ReservedRemote,
    /// Both directions open.
    Open,
    /// We have sent END_STREAM; peer may still send.
    HalfClosedLocal,
    /// Peer has sent END_STREAM; we may still send.
    HalfClosedRemote,
    /// Fully closed.
    Closed,
}

/// One HTTP/2 stream.
#[derive(Debug)]
pub struct Stream {
    /// Current state.
    pub state: StreamState,
    /// Credit for DATA we send on this stream.
    pub send_window: FlowWindow,
    /// Credit for DATA the peer sends on this stream.
    pub recv_window: FlowWindow,
}

impl Stream {
    /// A new stream in the given state.
    pub fn new(state: StreamState, send_initial: u32, recv_initial: u32) -> Self {
        Stream {
            state,
            send_window: FlowWindow::new(send_initial),
            recv_window: FlowWindow::new(recv_initial),
        }
    }

    /// Whether the peer may still send us frames on this stream.
    pub fn can_recv(&self) -> bool {
        matches!(
            self.state,
            StreamState::Open | StreamState::HalfClosedLocal | StreamState::ReservedRemote
        )
    }

    /// Whether we may still send frames on this stream.
    pub fn can_send(&self) -> bool {
        matches!(
            self.state,
            StreamState::Open | StreamState::HalfClosedRemote | StreamState::ReservedLocal
        )
    }

    /// We sent HEADERS (possibly opening the stream).
    pub fn on_send_headers(&mut self, end_stream: bool) {
        self.state = match self.state {
            StreamState::Idle => StreamState::Open,
            // A reserved-local stream transitions to half-closed(remote)
            // when we send the pushed response headers.
            StreamState::ReservedLocal => StreamState::HalfClosedRemote,
            StreamState::ReservedRemote
            | StreamState::Open
            | StreamState::HalfClosedLocal
            | StreamState::HalfClosedRemote
            | StreamState::Closed => self.state,
        };
        if end_stream {
            self.on_send_end_stream();
        }
    }

    /// We received HEADERS.
    pub fn on_recv_headers(&mut self, end_stream: bool) -> Result<(), ConnectionError> {
        self.state = match self.state {
            StreamState::Idle => StreamState::Open,
            StreamState::ReservedRemote => StreamState::HalfClosedLocal,
            StreamState::Open | StreamState::HalfClosedLocal => self.state, // trailers
            StreamState::Closed | StreamState::HalfClosedRemote => {
                return Err(ConnectionError::new(
                    ErrorCode::StreamClosed,
                    "HEADERS on closed stream",
                ));
            }
            StreamState::ReservedLocal => {
                return Err(ConnectionError::protocol(
                    "peer sent HEADERS on a stream we reserved",
                ));
            }
        };
        if end_stream {
            self.on_recv_end_stream()?;
        }
        Ok(())
    }

    /// Whether DATA from the peer is legal in the current state.
    pub fn recv_data_allowed(&self) -> bool {
        matches!(self.state, StreamState::Open | StreamState::HalfClosedLocal)
    }

    /// We sent END_STREAM.
    pub fn on_send_end_stream(&mut self) {
        self.state = match self.state {
            StreamState::Open => StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote | StreamState::ReservedLocal => StreamState::Closed,
            StreamState::Idle
            | StreamState::ReservedRemote
            | StreamState::HalfClosedLocal
            | StreamState::Closed => self.state,
        };
    }

    /// Peer sent END_STREAM.
    pub fn on_recv_end_stream(&mut self) -> Result<(), ConnectionError> {
        self.state = match self.state {
            StreamState::Open => StreamState::HalfClosedRemote,
            StreamState::HalfClosedLocal => StreamState::Closed,
            StreamState::Idle
            | StreamState::ReservedLocal
            | StreamState::ReservedRemote
            | StreamState::HalfClosedRemote
            | StreamState::Closed => {
                return Err(ConnectionError::new(
                    ErrorCode::StreamClosed,
                    "END_STREAM on a stream not open for receiving",
                ));
            }
        };
        Ok(())
    }

    /// The stream was reset (either direction).
    pub fn on_reset(&mut self) {
        self.state = StreamState::Closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(state: StreamState) -> Stream {
        Stream::new(state, 65_535, 65_535)
    }

    #[test]
    fn request_response_lifecycle() {
        // Client side of a simple GET.
        let mut s = stream(StreamState::Idle);
        s.on_send_headers(true); // request with END_STREAM
        assert_eq!(s.state, StreamState::HalfClosedLocal);
        s.on_recv_headers(false).unwrap(); // response headers
        assert_eq!(s.state, StreamState::HalfClosedLocal);
        s.on_recv_end_stream().unwrap(); // response body done
        assert_eq!(s.state, StreamState::Closed);
    }

    #[test]
    fn push_lifecycle_server_side() {
        let mut s = stream(StreamState::ReservedLocal);
        assert!(s.can_send());
        assert!(!s.can_recv());
        s.on_send_headers(false);
        assert_eq!(s.state, StreamState::HalfClosedRemote);
        s.on_send_end_stream();
        assert_eq!(s.state, StreamState::Closed);
    }

    #[test]
    fn push_lifecycle_client_side() {
        let mut s = stream(StreamState::ReservedRemote);
        assert!(s.can_recv());
        assert!(!s.recv_data_allowed(), "no DATA before pushed HEADERS");
        s.on_recv_headers(false).unwrap();
        assert_eq!(s.state, StreamState::HalfClosedLocal);
        assert!(s.recv_data_allowed());
        s.on_recv_end_stream().unwrap();
        assert_eq!(s.state, StreamState::Closed);
    }

    #[test]
    fn headers_on_closed_stream_rejected() {
        let mut s = stream(StreamState::Closed);
        let err = s.on_recv_headers(false).unwrap_err();
        assert_eq!(err.code, ErrorCode::StreamClosed);
    }

    #[test]
    fn end_stream_twice_rejected() {
        let mut s = stream(StreamState::Open);
        s.on_recv_end_stream().unwrap();
        assert!(s.on_recv_end_stream().is_err());
    }

    #[test]
    fn reset_closes_from_any_state() {
        for st in [
            StreamState::Idle,
            StreamState::Open,
            StreamState::HalfClosedLocal,
            StreamState::ReservedRemote,
        ] {
            let mut s = stream(st);
            s.on_reset();
            assert_eq!(s.state, StreamState::Closed);
        }
    }

    #[test]
    fn trailers_allowed_while_open() {
        let mut s = stream(StreamState::Open);
        s.on_recv_headers(true).unwrap(); // trailers with END_STREAM
        assert_eq!(s.state, StreamState::HalfClosedRemote);
    }
}
