//! HTTP/2 error codes (RFC 7540 §7) and the crate's error types.

use core::fmt;

/// Wire-level error codes carried by RST_STREAM and GOAWAY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ErrorCode {
    /// Graceful shutdown / no error.
    NoError = 0x0,
    /// Protocol violation detected.
    ProtocolError = 0x1,
    /// Unexpected internal failure.
    InternalError = 0x2,
    /// Flow-control limits violated.
    FlowControlError = 0x3,
    /// Settings not acknowledged in time.
    SettingsTimeout = 0x4,
    /// Frame received on a closed stream.
    StreamClosed = 0x5,
    /// Frame size incorrect for its type.
    FrameSizeError = 0x6,
    /// Stream refused before processing.
    RefusedStream = 0x7,
    /// Stream cancelled by the endpoint.
    Cancel = 0x8,
    /// HPACK state cannot be maintained.
    CompressionError = 0x9,
    /// Connection established in response to CONNECT failed.
    ConnectError = 0xa,
    /// Peer exhibiting behaviour likely to generate excessive load.
    EnhanceYourCalm = 0xb,
    /// Transport security inadequate.
    InadequateSecurity = 0xc,
    /// HTTP/1.1 required by the peer.
    Http11Required = 0xd,
}

impl ErrorCode {
    /// Parse a wire error code, mapping unknown values to `InternalError`
    /// as RFC 7540 §7 directs ("treat as INTERNAL_ERROR").
    pub fn from_wire(v: u32) -> ErrorCode {
        match v {
            0x0 => ErrorCode::NoError,
            0x1 => ErrorCode::ProtocolError,
            0x2 => ErrorCode::InternalError,
            0x3 => ErrorCode::FlowControlError,
            0x4 => ErrorCode::SettingsTimeout,
            0x5 => ErrorCode::StreamClosed,
            0x6 => ErrorCode::FrameSizeError,
            0x7 => ErrorCode::RefusedStream,
            0x8 => ErrorCode::Cancel,
            0x9 => ErrorCode::CompressionError,
            0xa => ErrorCode::ConnectError,
            0xb => ErrorCode::EnhanceYourCalm,
            0xc => ErrorCode::InadequateSecurity,
            0xd => ErrorCode::Http11Required,
            _ => ErrorCode::InternalError,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A fatal, connection-level error: the connection must emit GOAWAY and stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionError {
    /// Code to report in GOAWAY.
    pub code: ErrorCode,
    /// Fixed diagnostic text, also sent as GOAWAY debug data (diagnostic
    /// only, RFC 9113 §6.8).
    pub reason: &'static str,
}

impl ConnectionError {
    /// Construct a connection error.
    pub fn new(code: ErrorCode, reason: &'static str) -> Self {
        ConnectionError { code, reason }
    }

    /// Shorthand for PROTOCOL_ERROR.
    pub fn protocol(reason: &'static str) -> Self {
        Self::new(ErrorCode::ProtocolError, reason)
    }

    /// Shorthand for FRAME_SIZE_ERROR.
    pub fn frame_size(reason: &'static str) -> Self {
        Self::new(ErrorCode::FrameSizeError, reason)
    }

    /// Shorthand for FLOW_CONTROL_ERROR.
    pub fn flow_control(reason: &'static str) -> Self {
        Self::new(ErrorCode::FlowControlError, reason)
    }
}

impl fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "connection error {}: {}", self.code, self.reason)
    }
}

impl std::error::Error for ConnectionError {}

impl From<vroom_hpack::Error> for ConnectionError {
    /// A COMPRESSION_ERROR with one fixed text per HPACK error.
    fn from(e: vroom_hpack::Error) -> Self {
        use vroom_hpack::Error;
        let reason = match e {
            Error::Truncated => "header block truncated",
            Error::IntegerOverflow => "prefix integer too large",
            Error::HuffmanDecode => "invalid huffman coding",
            Error::InvalidIndex(_) => "invalid table index",
            Error::SizeUpdateTooLarge(_) => "table size update above limit",
            Error::SizeUpdateNotAtStart => "table size update after first field",
            Error::HeaderListTooLarge => "header list exceeds size limit",
            Error::InvalidString => "header string is not valid utf-8",
        };
        Self::new(ErrorCode::CompressionError, reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_known_codes() {
        for code in [
            ErrorCode::NoError,
            ErrorCode::ProtocolError,
            ErrorCode::FlowControlError,
            ErrorCode::RefusedStream,
            ErrorCode::Http11Required,
        ] {
            assert_eq!(ErrorCode::from_wire(code as u32), code);
        }
    }

    #[test]
    fn unknown_codes_map_to_internal() {
        assert_eq!(ErrorCode::from_wire(0xff), ErrorCode::InternalError);
        assert_eq!(ErrorCode::from_wire(u32::MAX), ErrorCode::InternalError);
    }

    #[test]
    fn display_is_informative() {
        let e = ConnectionError::protocol("DATA on stream 0");
        assert_eq!(
            e.to_string(),
            "connection error ProtocolError: DATA on stream 0"
        );
    }
}
