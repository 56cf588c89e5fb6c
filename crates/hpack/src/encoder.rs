//! HPACK encoder (RFC 7541 §6).
//!
//! Strategy: exact (name, value) matches are emitted as indexed fields;
//! everything else is emitted as a literal with incremental indexing (using a
//! name index when available) and inserted into the dynamic table — the same
//! strategy the RFC's Appendix C examples use, which lets the test suite
//! compare byte-for-byte against the spec. Fields marked `sensitive` are
//! emitted never-indexed (RFC 7541 §7.1.3).

use crate::huffman;
use crate::integer;
use crate::table::{self, DynamicTable};
use crate::HeaderField;
use std::sync::Arc;

/// A stateful HPACK encoder for one connection direction.
#[derive(Debug)]
pub struct Encoder {
    table: DynamicTable,
    use_huffman: bool,
    pending_size_update: Option<usize>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// An encoder with the default 4096-byte dynamic table, Huffman enabled.
    pub fn new() -> Self {
        Encoder {
            table: DynamicTable::default(),
            use_huffman: true,
            pending_size_update: None,
        }
    }

    /// Disable Huffman coding of string literals (useful for debugging and
    /// for matching the RFC's plain-literal examples).
    pub fn with_huffman(mut self, on: bool) -> Self {
        self.use_huffman = on;
        self
    }

    /// Request a dynamic table size change; emitted at the start of the next
    /// header block (RFC 7541 §4.2).
    pub fn set_max_table_size(&mut self, size: usize) {
        self.table.set_capacity_limit(size);
        self.pending_size_update = Some(size);
    }

    /// Encoder-side view of the dynamic table (for tests/diagnostics).
    pub fn table(&self) -> &DynamicTable {
        &self.table
    }

    /// Encode one complete header block.
    pub fn encode(&mut self, headers: &[HeaderField]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(headers, &mut out);
        out
    }

    /// Encode one complete header block, appending to `out`.
    pub fn encode_into(&mut self, headers: &[HeaderField], out: &mut Vec<u8>) {
        if let Some(size) = self.pending_size_update.take() {
            integer::encode(size as u64, 5, 0b0010_0000, out);
            let ok = self.table.set_max_size(size);
            debug_assert!(ok, "pending update within our own limit");
        }
        for h in headers {
            self.encode_field(h, out);
        }
    }

    fn encode_field(&mut self, h: &HeaderField, out: &mut Vec<u8>) {
        if h.sensitive {
            // Literal never indexed, with a name index when possible.
            let name_idx = table::find_name(&self.table, &h.name).unwrap_or(0);
            integer::encode(name_idx as u64, 4, 0b0001_0000, out);
            if name_idx == 0 {
                self.encode_string(&h.name, out);
            }
            self.encode_string(&h.value, out);
            return;
        }
        if let Some(idx) = table::find(&self.table, &h.name, &h.value) {
            integer::encode(idx as u64, 7, 0b1000_0000, out);
            return;
        }
        // Literal with incremental indexing.
        let name_idx = table::find_name(&self.table, &h.name).unwrap_or(0);
        integer::encode(name_idx as u64, 6, 0b0100_0000, out);
        if name_idx == 0 {
            self.encode_string(&h.name, out);
        }
        self.encode_string(&h.value, out);
        // Refcount bumps: the table entry shares the field's bytes.
        self.table.insert(Arc::clone(&h.name), Arc::clone(&h.value));
    }

    fn encode_string(&self, s: &str, out: &mut Vec<u8>) {
        let raw = s.as_bytes();
        if self.use_huffman {
            let hlen = huffman::encoded_len(raw);
            if hlen < raw.len() {
                integer::encode(hlen as u64, 7, 0b1000_0000, out);
                huffman::encode(raw, out);
                return;
            }
        }
        integer::encode(raw.len() as u64, 7, 0, out);
        out.extend_from_slice(raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeaderField;

    fn h(name: &str, value: &str) -> HeaderField {
        HeaderField::new(name, value)
    }

    /// RFC 7541 §C.3: three requests on one connection, without Huffman.
    #[test]
    fn rfc_c3_request_examples() {
        let mut enc = Encoder::new().with_huffman(false);

        let block1 = enc.encode(&[
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
        ]);
        assert_eq!(
            block1,
            [
                0x82, 0x86, 0x84, 0x41, 0x0f, 0x77, 0x77, 0x77, 0x2e, 0x65, 0x78, 0x61, 0x6d, 0x70,
                0x6c, 0x65, 0x2e, 0x63, 0x6f, 0x6d
            ]
        );
        assert_eq!(enc.table().size(), 57);

        let block2 = enc.encode(&[
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
            h("cache-control", "no-cache"),
        ]);
        assert_eq!(
            block2,
            [0x82, 0x86, 0x84, 0xbe, 0x58, 0x08, 0x6e, 0x6f, 0x2d, 0x63, 0x61, 0x63, 0x68, 0x65]
        );
        assert_eq!(enc.table().size(), 110);

        let block3 = enc.encode(&[
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":path", "/index.html"),
            h(":authority", "www.example.com"),
            h("custom-key", "custom-value"),
        ]);
        assert_eq!(
            block3,
            [
                0x82, 0x87, 0x85, 0xbf, 0x40, 0x0a, 0x63, 0x75, 0x73, 0x74, 0x6f, 0x6d, 0x2d, 0x6b,
                0x65, 0x79, 0x0c, 0x63, 0x75, 0x73, 0x74, 0x6f, 0x6d, 0x2d, 0x76, 0x61, 0x6c, 0x75,
                0x65
            ]
        );
        assert_eq!(enc.table().size(), 164);
    }

    /// RFC 7541 §C.4: the same requests with Huffman coding.
    #[test]
    fn rfc_c4_request_examples_huffman() {
        let mut enc = Encoder::new();

        let block1 = enc.encode(&[
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
        ]);
        assert_eq!(
            block1,
            [
                0x82, 0x86, 0x84, 0x41, 0x8c, 0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab,
                0x90, 0xf4, 0xff
            ]
        );

        let block2 = enc.encode(&[
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
            h("cache-control", "no-cache"),
        ]);
        assert_eq!(
            block2,
            [0x82, 0x86, 0x84, 0xbe, 0x58, 0x86, 0xa8, 0xeb, 0x10, 0x64, 0x9c, 0xbf]
        );

        let block3 = enc.encode(&[
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":path", "/index.html"),
            h(":authority", "www.example.com"),
            h("custom-key", "custom-value"),
        ]);
        assert_eq!(
            block3,
            [
                0x82, 0x87, 0x85, 0xbf, 0x40, 0x88, 0x25, 0xa8, 0x49, 0xe9, 0x5b, 0xa9, 0x7d, 0x7f,
                0x89, 0x25, 0xa8, 0x49, 0xe9, 0x5b, 0xb8, 0xe8, 0xb4, 0xbf
            ]
        );
        assert_eq!(enc.table().size(), 164);
    }

    #[test]
    fn sensitive_fields_are_never_indexed() {
        let mut enc = Encoder::new().with_huffman(false);
        let block = enc.encode(&[HeaderField::sensitive("password", "hunter2")]);
        // 0001 0000 prefix, no name index, two plain literals.
        assert_eq!(block[0], 0x10);
        assert!(
            enc.table().is_empty(),
            "sensitive field must not be indexed"
        );
        // Known name should use a name index under the never-indexed form.
        let block2 = enc.encode(&[HeaderField::sensitive("authorization", "secret")]);
        assert_eq!(block2[0], 0x1f, "authorization is static index 23 >= 15");
    }

    #[test]
    fn size_update_emitted_at_block_start() {
        let mut enc = Encoder::new().with_huffman(false);
        enc.set_max_table_size(256);
        let block = enc.encode(&[h(":method", "GET")]);
        // 001 prefix with value 256: 0x3f 0xe1 0x01, then 0x82.
        assert_eq!(block, [0x3f, 0xe1, 0x01, 0x82]);
        assert_eq!(enc.table().max_size(), 256);
    }

    #[test]
    fn huffman_skipped_when_longer() {
        // A string of rare symbols would inflate under Huffman; the encoder
        // must fall back to a plain literal.
        let mut enc = Encoder::new();
        let value = "\u{1}\u{2}\u{3}"; // control chars: 23+ bits each
        let block = enc.encode(&[h("k", value)]);
        // Find the value string: last literal. Its length octet must not have
        // the H bit set.
        // name "k" is not in static table, so layout: 0x40, name str, value str.
        assert_eq!(block[0], 0x40);
        // name: huffman'd or not, 1 char -> plain is 1 byte, huffman 1 byte;
        // encoder requires strictly smaller, so plain: 0x01 'k'.
        assert_eq!(&block[1..3], &[0x01, b'k']);
        assert_eq!(block[3], 0x03, "plain literal, H bit clear");
    }
}
