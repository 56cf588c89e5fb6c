// path: crates/server/src/wire.rs
use std::sync::Arc;

pub fn serve_connection(host: &str) -> usize {
    let shared = Arc::<str>::from(host);
    shared.len()
}
