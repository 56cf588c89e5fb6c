//! `vroom-hpack` — a from-scratch implementation of HPACK, the header
//! compression format for HTTP/2 (RFC 7541).
//!
//! Built as a substrate for the Vroom reproduction: Vroom's dependency hints
//! travel as HTTP response headers (`Link`, `x-semi-important`,
//! `x-unimportant`), so the wire-level demos need real header compression.
//!
//! The crate implements the full specification:
//!
//! * prefix-coded integers (§5.1) with overflow hardening,
//! * Huffman coding with the canonical Appendix B table, including padding
//!   and EOS validation (§5.2),
//! * the static table (Appendix A) and the size-bounded dynamic table with
//!   FIFO eviction (§4),
//! * all field representations: indexed, incremental-indexing literal,
//!   non-indexed literal, never-indexed literal, and dynamic table size
//!   updates (§6),
//! * a stateful [`Encoder`]/[`Decoder`] pair whose outputs are verified
//!   byte-for-byte against the RFC's Appendix C examples.
//!
//! The crate has no dependencies. Header names and values are std
//! `Arc<str>`s, so a decoded field, a table entry and the caller's copy
//! share one allocation.
//!
//! # Example
//!
//! ```
//! use vroom_hpack::{Encoder, Decoder, HeaderField};
//!
//! let mut enc = Encoder::new();
//! let mut dec = Decoder::new();
//! let headers = vec![
//!     HeaderField::new(":status", "200"),
//!     HeaderField::new("link", "</app.js>; rel=preload; as=script"),
//! ];
//! let wire = enc.encode(&headers);
//! assert_eq!(dec.decode(&wire).unwrap(), headers);
//! ```

#![forbid(unsafe_code)]

pub mod decoder;
pub mod encoder;
pub mod huffman;
pub mod integer;
pub mod table;

pub use decoder::Decoder;
pub use encoder::Encoder;

use core::fmt;
use std::sync::Arc;

/// One HTTP header field as seen by HPACK.
///
/// Name and value are refcounted `Arc<str>`s: handing a field from the
/// decoder to the connection to the application — or from a table hit back
/// to the caller — bumps a count instead of copying header bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeaderField {
    /// Field name (lower-case by HTTP/2 convention; not enforced here).
    pub name: Arc<str>,
    /// Field value.
    pub value: Arc<str>,
    /// Whether the field must never be indexed (RFC 7541 §7.1.3).
    pub sensitive: bool,
}

impl HeaderField {
    /// A regular (indexable) field.
    pub fn new(name: impl Into<Arc<str>>, value: impl Into<Arc<str>>) -> Self {
        HeaderField {
            name: name.into(),
            value: value.into(),
            sensitive: false,
        }
    }

    /// A field that must be encoded never-indexed (e.g. credentials).
    pub fn sensitive(name: impl Into<Arc<str>>, value: impl Into<Arc<str>>) -> Self {
        HeaderField {
            name: name.into(),
            value: value.into(),
            sensitive: true,
        }
    }
}

/// HPACK decoding errors. Any of these is a `COMPRESSION_ERROR` at the
/// HTTP/2 connection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Input ended inside a field.
    Truncated,
    /// Prefix-coded integer exceeded the implementation limit.
    IntegerOverflow,
    /// Invalid Huffman coding (bad padding or explicit EOS).
    HuffmanDecode,
    /// Index pointing outside the static + dynamic tables.
    InvalidIndex(u64),
    /// Dynamic table size update exceeding the protocol limit.
    SizeUpdateTooLarge(u64),
    /// Dynamic table size update after the first header field.
    SizeUpdateNotAtStart,
    /// Decoded header list exceeds the configured cap.
    HeaderListTooLarge,
    /// Decoded string is not valid UTF-8 (implementation restriction).
    InvalidString,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "header block truncated"),
            Error::IntegerOverflow => write!(f, "prefix integer too large"),
            Error::HuffmanDecode => write!(f, "invalid huffman coding"),
            Error::InvalidIndex(i) => write!(f, "invalid table index {i}"),
            Error::SizeUpdateTooLarge(s) => write!(f, "table size update {s} above limit"),
            Error::SizeUpdateNotAtStart => write!(f, "table size update after first field"),
            Error::HeaderListTooLarge => write!(f, "header list exceeds size limit"),
            Error::InvalidString => write!(f, "header string is not valid utf-8"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn header_strategy() -> impl Strategy<Value = HeaderField> {
        // Header-ish charset: printable ASCII, lowercase-biased names.
        let name = proptest::string::string_regex("[a-z][a-z0-9-]{0,30}").unwrap();
        let value = proptest::string::string_regex("[ -~]{0,120}").unwrap();
        (name, value, any::<bool>()).prop_map(|(n, v, s)| HeaderField {
            name: n.into(),
            value: v.into(),
            sensitive: s,
        })
    }

    proptest! {
        /// Any sequence of header blocks roundtrips through a stateful
        /// encoder/decoder pair.
        #[test]
        fn stateful_roundtrip(blocks in proptest::collection::vec(
            proptest::collection::vec(header_strategy(), 0..12), 1..6)) {
            let mut enc = Encoder::new();
            let mut dec = Decoder::new();
            for headers in &blocks {
                let wire = enc.encode(headers);
                let back = dec.decode(&wire).unwrap();
                prop_assert_eq!(&back, headers);
            }
        }

        /// Huffman coding roundtrips arbitrary bytes.
        #[test]
        fn huffman_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..500)) {
            let mut encoded = Vec::new();
            huffman::encode(&data, &mut encoded);
            let mut decoded = Vec::new();
            huffman::decode(&encoded, &mut decoded).unwrap();
            prop_assert_eq!(decoded, data);
        }

        /// The decoder never panics on arbitrary garbage.
        #[test]
        fn decoder_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut dec = Decoder::new();
            let _ = dec.decode(&garbage);
        }

        /// Integers roundtrip at every prefix width.
        #[test]
        fn integer_roundtrip(v in 0u64..=integer::MAX_INT, prefix in 1u8..=8) {
            let mut out = Vec::new();
            integer::encode(v, prefix, 0, &mut out);
            let (got, used) = integer::decode(&out, prefix).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(used, out.len());
        }
    }
}
