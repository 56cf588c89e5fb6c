// path: crates/http2/src/error.rs
pub struct ConnectionError {
    reason: String,
}

impl From<u8> for ConnectionError {
    fn from(code: u8) -> Self {
        ConnectionError {
            reason: format!("code {code}"),
        }
    }
}
