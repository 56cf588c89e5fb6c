// path: crates/sim/src/clock.rs
//! Fixture: `#[cfg(test)]` gates only the item it annotates. The attribute
//! on a statement ends at that statement's `;`, so `stamp` below is
//! production code and a sim-purity root, and its wall-clock read is a
//! finding.
pub fn tick(counter: &mut u64) {
    #[cfg(test)]
    let _probe = *counter;
    *counter += 1;
}

pub fn stamp() -> u128 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos()
}
