//! HPACK decoder (RFC 7541 §6), with the hardening a server-facing decoder
//! needs: bounded header-list size, bounded integers, validated Huffman
//! padding, and dynamic-table size updates only where the spec allows them.

use crate::huffman;
use crate::integer;
use crate::table::{self, DynamicTable};
use crate::{Error, HeaderField};
use std::sync::Arc;

/// Default cap on the decoded header list (name + value + 32 per field),
/// mirroring `SETTINGS_MAX_HEADER_LIST_SIZE` semantics.
pub const DEFAULT_MAX_HEADER_LIST_SIZE: usize = 64 * 1024;

/// A stateful HPACK decoder for one connection direction.
#[derive(Debug)]
pub struct Decoder {
    table: DynamicTable,
    max_header_list_size: usize,
    /// Reused string-decode workspace: Huffman expansion and plain copies
    /// land here, so each literal string costs exactly one allocation (the
    /// final `Arc<str>`) once the buffer has warmed up.
    scratch: Vec<u8>,
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder {
    /// A decoder with the default 4096-byte dynamic table.
    pub fn new() -> Self {
        Decoder {
            table: DynamicTable::default(),
            max_header_list_size: DEFAULT_MAX_HEADER_LIST_SIZE,
            scratch: Vec::new(),
        }
    }

    /// Start from a specific dynamic-table size.
    pub fn with_max_table_size(mut self, size: usize) -> Self {
        self.table = DynamicTable::new(size);
        self
    }

    /// Cap the total decoded header list size.
    pub fn with_max_header_list_size(mut self, size: usize) -> Self {
        self.max_header_list_size = size;
        self
    }

    /// Decoder-side view of the dynamic table (for tests/diagnostics).
    pub fn table(&self) -> &DynamicTable {
        &self.table
    }

    /// Decode one complete header block.
    pub fn decode(&mut self, mut buf: &[u8]) -> Result<Vec<HeaderField>, Error> {
        let mut out = Vec::new();
        let mut list_size = 0usize;
        let mut seen_field = false;
        while let Some(&first) = buf.first() {
            let field = if first & 0b1000_0000 != 0 {
                // Indexed header field: refcounted handles to the table's
                // bytes, no copy.
                let (idx, used) = integer::decode(buf, 7)?;
                buf = buf.get(used..).ok_or(Error::Truncated)?;
                let (name, value) = table::resolve_shared(&self.table, idx as usize)
                    .ok_or(Error::InvalidIndex(idx))?;
                seen_field = true;
                HeaderField::new(name, value)
            } else if first & 0b0100_0000 != 0 {
                // Literal with incremental indexing; the table insert shares
                // the freshly decoded strings.
                let (name, value) = self.read_literal(&mut buf, 6)?;
                self.table.insert(Arc::clone(&name), Arc::clone(&value));
                seen_field = true;
                HeaderField::new(name, value)
            } else if first & 0b0010_0000 != 0 {
                // Dynamic table size update — only before the first field.
                if seen_field {
                    return Err(Error::SizeUpdateNotAtStart);
                }
                let (size, used) = integer::decode(buf, 5)?;
                buf = buf.get(used..).ok_or(Error::Truncated)?;
                if !self.table.set_max_size(size as usize) {
                    return Err(Error::SizeUpdateTooLarge(size));
                }
                continue;
            } else {
                // Literal without indexing (0000) or never indexed (0001).
                let sensitive = first & 0b0001_0000 != 0;
                let (name, value) = self.read_literal(&mut buf, 4)?;
                seen_field = true;
                let mut f = HeaderField::new(name, value);
                f.sensitive = sensitive;
                f
            };
            list_size += field.name.len() + field.value.len() + 32;
            if list_size > self.max_header_list_size {
                return Err(Error::HeaderListTooLarge);
            }
            out.push(field);
        }
        Ok(out)
    }

    /// Read a literal field body: optional name index (at `prefix` bits),
    /// then name string if index was 0, then value string. An indexed name
    /// is a refcounted handle to the table's bytes.
    fn read_literal(&mut self, buf: &mut &[u8], prefix: u8) -> Result<(Arc<str>, Arc<str>), Error> {
        let (name_idx, used) = integer::decode(buf, prefix)?;
        *buf = buf.get(used..).ok_or(Error::Truncated)?;
        let name = if name_idx == 0 {
            self.read_string(buf)?
        } else {
            table::resolve_shared(&self.table, name_idx as usize)
                .ok_or(Error::InvalidIndex(name_idx))?
                .0
        };
        let value = self.read_string(buf)?;
        Ok((name, value))
    }

    /// Decode one string literal via the reused scratch buffer: the only
    /// allocation is the returned `Arc<str>`.
    fn read_string(&mut self, buf: &mut &[u8]) -> Result<Arc<str>, Error> {
        let first = *buf.first().ok_or(Error::Truncated)?;
        let huffman_coded = first & 0b1000_0000 != 0;
        let (len, used) = integer::decode(buf, 7)?;
        *buf = buf.get(used..).ok_or(Error::Truncated)?;
        let len = len as usize;
        if buf.len() < len {
            return Err(Error::Truncated);
        }
        let (body, rest) = buf.split_at(len);
        *buf = rest;
        self.scratch.clear();
        if huffman_coded {
            huffman::decode(body, &mut self.scratch)?;
        } else {
            self.scratch.extend_from_slice(body);
        }
        let s = std::str::from_utf8(&self.scratch).map_err(|_| Error::InvalidString)?;
        Ok(Arc::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::HeaderField;

    fn fields(pairs: &[(&str, &str)]) -> Vec<HeaderField> {
        pairs.iter().map(|&(n, v)| HeaderField::new(n, v)).collect()
    }

    fn assert_decodes(dec: &mut Decoder, bytes: &[u8], expect: &[(&str, &str)]) {
        let got = dec.decode(bytes).unwrap();
        let got_pairs: Vec<(&str, &str)> = got.iter().map(|f| (&*f.name, &*f.value)).collect();
        assert_eq!(got_pairs, expect.to_vec());
    }

    /// RFC 7541 §C.2.1: literal with indexing.
    #[test]
    fn rfc_c21_literal_with_indexing() {
        let mut dec = Decoder::new();
        let bytes = [
            0x40, 0x0a, 0x63, 0x75, 0x73, 0x74, 0x6f, 0x6d, 0x2d, 0x6b, 0x65, 0x79, 0x0d, 0x63,
            0x75, 0x73, 0x74, 0x6f, 0x6d, 0x2d, 0x68, 0x65, 0x61, 0x64, 0x65, 0x72,
        ];
        assert_decodes(&mut dec, &bytes, &[("custom-key", "custom-header")]);
        assert_eq!(dec.table().size(), 55);
    }

    /// RFC 7541 §C.2.2: literal without indexing.
    #[test]
    fn rfc_c22_literal_without_indexing() {
        let mut dec = Decoder::new();
        let bytes = [
            0x04, 0x0c, 0x2f, 0x73, 0x61, 0x6d, 0x70, 0x6c, 0x65, 0x2f, 0x70, 0x61, 0x74, 0x68,
        ];
        assert_decodes(&mut dec, &bytes, &[(":path", "/sample/path")]);
        assert!(dec.table().is_empty());
    }

    /// RFC 7541 §C.2.3: literal never indexed, flagged sensitive.
    #[test]
    fn rfc_c23_never_indexed() {
        let mut dec = Decoder::new();
        let bytes = [
            0x10, 0x08, 0x70, 0x61, 0x73, 0x73, 0x77, 0x6f, 0x72, 0x64, 0x06, 0x73, 0x65, 0x63,
            0x72, 0x65, 0x74,
        ];
        let got = dec.decode(&bytes).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&*got[0].name, "password");
        assert_eq!(&*got[0].value, "secret");
        assert!(got[0].sensitive);
        assert!(dec.table().is_empty());
    }

    /// RFC 7541 §C.2.4: indexed field from the static table.
    #[test]
    fn rfc_c24_indexed() {
        let mut dec = Decoder::new();
        assert_decodes(&mut dec, &[0x82], &[(":method", "GET")]);
    }

    /// RFC 7541 §C.5: response examples with a 256-byte table and eviction.
    #[test]
    fn rfc_c5_response_examples_with_eviction() {
        let mut dec = Decoder::new().with_max_table_size(256);

        let b1: Vec<u8> = [
            0x48, 0x03, 0x33, 0x30, 0x32, 0x58, 0x07, 0x70, 0x72, 0x69, 0x76, 0x61, 0x74, 0x65,
            0x61, 0x1d, 0x4d, 0x6f, 0x6e, 0x2c, 0x20, 0x32, 0x31, 0x20, 0x4f, 0x63, 0x74, 0x20,
            0x32, 0x30, 0x31, 0x33, 0x20, 0x32, 0x30, 0x3a, 0x31, 0x33, 0x3a, 0x32, 0x31, 0x20,
            0x47, 0x4d, 0x54, 0x6e, 0x17, 0x68, 0x74, 0x74, 0x70, 0x73, 0x3a, 0x2f, 0x2f, 0x77,
            0x77, 0x77, 0x2e, 0x65, 0x78, 0x61, 0x6d, 0x70, 0x6c, 0x65, 0x2e, 0x63, 0x6f, 0x6d,
        ]
        .to_vec();
        assert_decodes(
            &mut dec,
            &b1,
            &[
                (":status", "302"),
                ("cache-control", "private"),
                ("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
                ("location", "https://www.example.com"),
            ],
        );
        assert_eq!(dec.table().size(), 222);

        // Second response: ":status: 307" evicts ":status: 302".
        let b2 = [0x48, 0x03, 0x33, 0x30, 0x37, 0xc1, 0xc0, 0xbf];
        assert_decodes(
            &mut dec,
            &b2,
            &[
                (":status", "307"),
                ("cache-control", "private"),
                ("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
                ("location", "https://www.example.com"),
            ],
        );
        assert_eq!(dec.table().size(), 222);
        assert_eq!(&*dec.table().get(1).unwrap().value, "307");
    }

    /// Roundtrip through our encoder with table state carried across blocks.
    #[test]
    fn encoder_decoder_roundtrip_stateful() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let blocks = vec![
            fields(&[
                (":method", "GET"),
                (":path", "/news/story-1.html"),
                ("user-agent", "vroom/0.1"),
            ]),
            fields(&[
                (":method", "GET"),
                (":path", "/static/app.js"),
                ("user-agent", "vroom/0.1"),
                ("link", "</static/app.css>; rel=preload; as=style"),
            ]),
            fields(&[
                (":status", "200"),
                ("x-semi-important", "/lazy/ads.js,/lazy/social.js"),
                ("x-unimportant", "/img/hero.jpg"),
            ]),
        ];
        for headers in blocks {
            let bytes = enc.encode(&headers);
            let back = dec.decode(&bytes).unwrap();
            assert_eq!(back, headers);
        }
        assert_eq!(enc.table().size(), dec.table().size());
    }

    #[test]
    fn invalid_index_rejected() {
        let mut dec = Decoder::new();
        // Indexed field 70 with empty dynamic table.
        let err = dec.decode(&[0xc6]).unwrap_err();
        assert!(matches!(err, Error::InvalidIndex(70)));
        // Index 0 is never valid.
        assert!(matches!(
            dec.decode(&[0x80]).unwrap_err(),
            Error::InvalidIndex(0)
        ));
    }

    #[test]
    fn size_update_after_field_rejected() {
        let mut dec = Decoder::new();
        let err = dec.decode(&[0x82, 0x20]).unwrap_err();
        assert!(matches!(err, Error::SizeUpdateNotAtStart));
    }

    #[test]
    fn size_update_above_limit_rejected() {
        let mut dec = Decoder::new().with_max_table_size(4096);
        // Update to 8192: 001 prefix. 8192 -> 0x3f then varint of 8161.
        let mut bytes = vec![];
        crate::integer::encode(8192, 5, 0b0010_0000, &mut bytes);
        assert!(matches!(
            dec.decode(&bytes).unwrap_err(),
            Error::SizeUpdateTooLarge(8192)
        ));
    }

    #[test]
    fn header_list_size_enforced() {
        let mut dec = Decoder::new().with_max_header_list_size(64);
        let mut enc = Encoder::new();
        let headers = fields(&[("a", &"v".repeat(100))]);
        let bytes = enc.encode(&headers);
        assert!(matches!(
            dec.decode(&bytes).unwrap_err(),
            Error::HeaderListTooLarge
        ));
    }

    #[test]
    fn truncated_literal_rejected() {
        let mut dec = Decoder::new();
        // Claims a 10-byte name but provides 2.
        assert!(matches!(
            dec.decode(&[0x40, 0x0a, 0x61, 0x62]).unwrap_err(),
            Error::Truncated
        ));
    }
}
