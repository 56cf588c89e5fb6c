// path: crates/fleet/src/lib.rs
#![forbid(unsafe_code)]
pub fn run_fleet_instrumented(pass: Option<u8>) -> u8 {
    pass.expect("admitted pass was run")
}
