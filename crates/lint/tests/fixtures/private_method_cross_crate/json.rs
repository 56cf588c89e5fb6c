// path: crates/net/src/json.rs
pub struct Parser {
    pos: usize,
}

impl Parser {
    fn expect(&mut self, b: u8) -> Result<(), String> {
        Err(format!("expected {b} at {}", self.pos))
    }

    pub fn parse(&mut self) -> Result<(), String> {
        self.expect(b'{')
    }
}

pub struct Cursor;

impl Cursor {
    pub fn expect(&self, what: &str) -> String {
        what.to_string()
    }
}
