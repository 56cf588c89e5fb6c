//! A pragmatic HTML tokenizer: enough of WHATWG tokenization to walk start
//! tags and their attributes through real-world markup — comments, doctypes,
//! CDATA, raw-text elements (`<script>`, `<style>`), quoted/unquoted
//! attributes — without building a DOM. Its consumer, the resource scanner
//! ([`crate::scanner`]), reads only start tags and the raw text of
//! script/style elements, so those are the only tokens: text, comments,
//! declarations and end tags are skipped, and every token borrows from the
//! input.

/// A token produced by [`Tokenizer`], borrowing from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// An opening (or self-closing) tag with its attributes.
    StartTag {
        /// Tag name as written; compare it with `eq_ignore_ascii_case`.
        name: &'a str,
        /// `(name, value)` pairs in document order, names as written;
        /// valueless attributes get an empty value.
        attrs: Vec<(&'a str, &'a str)>,
    },
    /// The raw contents of a `<script>` or `<style>` element (never empty).
    RawText {
        /// `"script"` or `"style"`.
        element: &'static str,
        /// Everything up to the element's close tag, or to the end of input.
        text: &'a str,
    },
}

/// The elements whose contents are raw text, not markup.
const RAW_TEXT: [&str; 2] = ["script", "style"];

/// Streaming tokenizer over a complete HTML document.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// Raw-text element whose contents come next, if any.
    raw: Option<&'static str>,
}

impl<'a> Tokenizer<'a> {
    /// Tokenize `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            raw: None,
        }
    }

    /// Move just past the first `delim` at or after byte `from`, or to the
    /// end of input when there is none.
    fn skip_past(&mut self, from: usize, delim: &str) {
        let len = self.input.len();
        self.pos = slice(self.input, from..len)
            .find(delim)
            .map_or(len, |i| from + i + delim.len());
    }
}

/// Panic-free slice: an out-of-range (or non-boundary) range yields "".
fn slice(s: &str, r: std::ops::Range<usize>) -> &str {
    s.get(r).unwrap_or("")
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let input = self.input;
        // Inside <script>/<style>: everything up to the matching close tag
        // is raw text.
        if let Some(element) = self.raw.take() {
            let rest = slice(input, self.pos..input.len());
            let end = find_close(rest, element).unwrap_or(rest.len());
            self.pos += end;
            if end > 0 {
                let text = slice(rest, 0..end);
                return Some(Token::RawText { element, text });
            }
        }
        loop {
            // Text up to the next '<' is skipped.
            self.pos += slice(input, self.pos..input.len()).find('<')?;
            let after = slice(input, self.pos + 1..input.len());
            if after.starts_with("!--") {
                self.skip_past(self.pos + 4, "-->");
            } else if after.starts_with(['!', '?']) {
                // Doctype / CDATA / other declarations.
                self.skip_past(self.pos, ">");
            } else if after.starts_with('/') {
                self.skip_past(self.pos + 2, ">");
            } else if after
                .as_bytes()
                .first()
                .is_some_and(u8::is_ascii_alphabetic)
            {
                return Some(self.start_tag());
            } else {
                // A stray '<' is text.
                self.pos += 1;
            }
        }
    }
}

impl<'a> Tokenizer<'a> {
    /// Read the start tag at `pos` (a '<' and a letter) and move past it.
    fn start_tag(&mut self) -> Token<'a> {
        let input = self.input;
        let bytes = input.as_bytes();
        // Past-the-end reads yield NUL, which is in no tag/attribute
        // character class, so every scan below stops at the buffer edge.
        let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
        let skip_ws = |mut i: usize| {
            while at(i).is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        let start = self.pos + 1;
        let mut i = start;
        while at(i).is_ascii_alphanumeric() || at(i) == b'-' {
            i += 1;
        }
        let name = slice(input, start..i);

        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            i = skip_ws(i);
            if i >= bytes.len() {
                self.pos = bytes.len();
                break;
            }
            match at(i) {
                b'>' => {
                    self.pos = i + 1;
                    break;
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    let astart = i;
                    while i < bytes.len()
                        && !at(i).is_ascii_whitespace()
                        && !matches!(at(i), b'=' | b'>' | b'/')
                    {
                        i += 1;
                    }
                    let aname = slice(input, astart..i);
                    i = skip_ws(i);
                    let mut value = "";
                    if at(i) == b'=' {
                        i = skip_ws(i + 1);
                        let quote = at(i);
                        if quote == b'"' || quote == b'\'' {
                            i += 1;
                            let vstart = i;
                            while i < bytes.len() && at(i) != quote {
                                i += 1;
                            }
                            value = slice(input, vstart..i);
                            i = (i + 1).min(bytes.len());
                        } else {
                            let vstart = i;
                            while i < bytes.len() && !at(i).is_ascii_whitespace() && at(i) != b'>' {
                                i += 1;
                            }
                            value = slice(input, vstart..i);
                        }
                    }
                    if !aname.is_empty() {
                        attrs.push((aname, value));
                    }
                }
            }
        }

        if !self_closing {
            self.raw = RAW_TEXT.into_iter().find(|e| name.eq_ignore_ascii_case(e));
        }
        Token::StartTag { name, attrs }
    }
}

/// Offset of the first `</element` in `s`, ignoring ASCII case.
fn find_close(s: &str, element: &str) -> Option<usize> {
    s.match_indices("</").map(|(i, _)| i).find(|&i| {
        s.as_bytes()
            .get(i + 2..i + 2 + element.len())
            .is_some_and(|name| name.eq_ignore_ascii_case(element.as_bytes()))
    })
}

/// The value of the first attribute called `name`, ignoring ASCII case.
pub(crate) fn attr<'a>(attrs: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(html: &str) -> Vec<Token<'_>> {
        Tokenizer::new(html).collect()
    }

    /// The start tag names, in order.
    fn tags(html: &str) -> Vec<&str> {
        toks(html)
            .into_iter()
            .filter_map(|t| match t {
                Token::StartTag { name, .. } => Some(name),
                Token::RawText { .. } => None,
            })
            .collect()
    }

    #[test]
    fn simple_document() {
        // Text and end tags are skipped.
        let html = "<html><body><p>Hello</p></body></html>";
        assert_eq!(toks(html).len(), 3);
        assert_eq!(tags(html), ["html", "body", "p"]);
    }

    #[test]
    fn attributes_all_quote_styles() {
        let t = toks(r#"<img src="a.png" alt='pic' width=100 hidden>"#);
        let Token::StartTag { name, attrs } = &t[0] else {
            panic!("not a start tag");
        };
        assert_eq!(*name, "img");
        assert_eq!(attr(attrs, "src"), Some("a.png"));
        assert_eq!(attr(attrs, "alt"), Some("pic"));
        assert_eq!(attr(attrs, "width"), Some("100"));
        assert_eq!(attr(attrs, "hidden"), Some(""));
    }

    #[test]
    fn self_closing_and_case_folding() {
        let html = "<BR/><IMG SRC='X.png' /><SCRIPT/><p>";
        // A self-closing script has no raw text: the next tag is markup.
        assert_eq!(tags(html), ["BR", "IMG", "SCRIPT", "p"]);
        let t = toks(html);
        assert_eq!(t.len(), 4);
        let Token::StartTag { attrs, .. } = &t[1] else {
            panic!()
        };
        assert_eq!(attr(attrs, "src"), Some("X.png"), "values keep case");
    }

    #[test]
    fn script_raw_text_not_parsed_as_tags() {
        let html = r#"<script>if (a<b) { document.write("<img src=x>"); }</script><p>after</p>"#;
        let t = toks(html);
        assert!(matches!(&t[0], Token::StartTag { name: "script", .. }));
        let Token::RawText {
            element: "script",
            text,
        } = &t[1]
        else {
            panic!("expected raw script text, got {:?}", t[1]);
        };
        assert!(text.contains("<img src=x>"));
        assert!(matches!(&t[2], Token::StartTag { name: "p", .. }));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn style_raw_text() {
        let t = toks("<style>body { background: url(bg.png); }</style>");
        assert!(
            matches!(&t[1], Token::RawText { element: "style", text } if text.contains("bg.png"))
        );
    }

    #[test]
    fn script_close_tag_case_insensitive() {
        let t = toks("<Script>x=1</SCRIPT><p>k</p>");
        assert!(matches!(
            &t[1],
            Token::RawText {
                element: "script",
                text: "x=1"
            }
        ));
        assert!(matches!(&t[2], Token::StartTag { name: "p", .. }));
    }

    #[test]
    fn comments_and_doctype() {
        // A comment hides the tags inside it.
        assert_eq!(
            tags("<!DOCTYPE html><!-- a <img src=x> inside --><?xml?><p>t</p>"),
            ["p"]
        );
    }

    #[test]
    fn unterminated_structures_do_not_panic_or_loop() {
        for html in [
            "<img src=",
            "<script>never closed",
            "<!-- never closed",
            "</",
            "<",
            "<p attr='unclosed",
        ] {
            let _ = toks(html); // must terminate
        }
    }

    #[test]
    fn stray_angle_brackets_are_text() {
        // A '<' not followed by a letter opens no tag and hides no tag.
        assert_eq!(tags("a < b > c <3 <p>"), ["p"]);
    }

    #[test]
    fn empty_script_emits_no_text() {
        let t = toks("<script src=\"x.js\"></script>");
        assert_eq!(t.len(), 1, "start tag only: {t:?}");
    }
}
