//! Deterministic parallel execution for the experiment harness.
//!
//! The simulation made every per-site load a pure function of
//! `(site, ctx, seeds)` (DESIGN.md §2a); this crate turns that purity into
//! wall-clock speed without giving up byte-identical output. Two entry
//! points share one claim loop and one slot collector:
//! [`par_map_indexed`] fans a borrowed slice out over scoped `std` threads
//! spawned for the call, and [`Pool::dispatch`] fans an owned `Vec` out
//! over long-lived workers. Both collect each result into the slot of its
//! *input* index, so the returned `Vec` — and therefore everything
//! rendered from it — is identical for any worker count and any completion
//! order. Both run a fan-out of at most one item on the calling thread.
//!
//! Output invariance argument, in three steps:
//!  1. the mapped closure is pure (enforced by `vroom-lint`'s `sim-purity`
//!     rule, which keeps analyzing closure bodies passed through here);
//!  2. results are placed by input index, not arrival order, so scheduling
//!     cannot permute them;
//!  3. `workers <= 1` (and any fan-out of at most one item) bypasses
//!     threads entirely and the result is defined to equal that sequential
//!     reference.
//!
//! Hence `par_map_indexed(items, w, f) == par_map_indexed(items, 1, f)`
//! for every `w` — the property the proptest in `tests/tests/parallel.rs`
//! and the `run_all` golden byte-identity test both pin down.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use std::sync::mpsc::{channel, Receiver, Sender};

/// The worker count to use when the user asked for "as fast as the
/// hardware allows": the machine's available parallelism, `1` when that
/// cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on `workers` threads, returning results in input
/// order. `f` receives `(index, &item)` exactly once per item.
///
/// `workers <= 1` (or fewer than two items) runs inline on the calling
/// thread with no pool at all — the sequential reference the parallel
/// path must, and does, reproduce byte-for-byte.
pub fn par_map_indexed<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let n = items.len();
    let workers = workers.min(n);
    let chunk = claim_chunk(n, workers);
    let next = AtomicUsize::new(0);
    let (tx, rx) = channel::<(usize, T)>();
    // vroom-lint: allow(sim-purity) -- one of the workspace's two sanctioned spawn sites (the other starts `Pool`'s workers): workers race only for *indices*; results land in input-index slots, so output is schedule-invariant
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || claim_loop(n, chunk, next, &tx, |i| f(i, &items[i])));
        }
        // The original sender hangs up here: the last worker's clone
        // dropping is what ends the collection.
        drop(tx);
        collect_slots(n, rx)
    })
}

/// One worker's share of a fan-out: claim `chunk` indices of `0..n` at a
/// time off the shared counter and send each `(index, f(index))` until
/// the indices run out. Stops early when the receiver is gone (a sibling
/// panicked mid-collect).
fn claim_loop<T>(
    n: usize,
    chunk: usize,
    next: &AtomicUsize,
    tx: &Sender<(usize, T)>,
    mut f: impl FnMut(usize) -> T,
) {
    loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            return;
        }
        for i in start..(start + chunk).min(n) {
            if tx.send((i, f(i))).is_err() {
                return;
            }
        }
    }
}

/// Place each `(index, value)` the workers send into its input-index slot,
/// so the result order is independent of completion order. Panics unless
/// every index in `0..n` arrived.
fn collect_slots<T>(n: usize, rx: Receiver<(usize, T)>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in rx {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

/// Indices-per-claim for the work-stealing counter: large enough to
/// amortize the atomic (and the cache-line ping-pong it causes) over many
/// items, small enough that the tail still load-balances — 8 claims per
/// worker leaves plenty of stealing opportunity for uneven item costs.
fn claim_chunk(items: usize, workers: usize) -> usize {
    (items / (workers.max(1) * 8)).max(1)
}

/// A job shipped to a pool worker: runs once against the worker's
/// long-lived scratch state.
type Job<S> = Box<dyn FnOnce(&mut S) + Send>;

/// A persistent worker pool with per-worker scratch state `S`.
///
/// [`par_map_indexed`] spawns and joins OS threads on every call — fine for
/// one fan-out per process, but a fleet run fans out *twice per batch*
/// (resolver passes, then client loads), hundreds of times per run, and the
/// spawn/join tax plus the cold per-load allocations start to dominate once
/// the per-item work is sub-millisecond. `Pool` keeps the threads (and each
/// thread's `S`, built once via `Default`) alive across calls.
///
/// [`Pool::dispatch`] has the same output contract as [`par_map_indexed`]:
/// results land in input-index slots, so the returned `Vec` is
/// byte-identical for any worker count and any completion order. The
/// scratch state is *per worker*, never shared and never migrated between
/// threads, so a job's result may depend on `S` only in ways that are
/// observationally pure (buffer reuse), which `vroom-lint`'s `sim-purity`
/// rule and the pool-vs-sequential proptests both police.
///
/// A fan-out of one item runs on the calling thread against a scratch the
/// pool keeps for its caller, as [`par_map_indexed`] runs one item inline:
/// with nothing to run in parallel, waking every worker and waiting for
/// every ack is pure overhead.
///
/// `dispatch` returns only after every worker has acknowledged completing
/// its job, and workers acknowledge *after* dropping the job closure — so
/// any `Arc` the caller moved into `f` is guaranteed to have its worker
/// clones released by the time `dispatch` returns. The inline path drops
/// `f` before returning too. Callers exploit this as a barrier:
/// `Arc::get_mut` on shared state succeeds between calls.
pub struct Pool<S> {
    senders: Vec<Sender<Job<S>>>,
    ack_rx: Receiver<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The calling thread's scratch, for one-item fan-outs.
    local: RefCell<S>,
}

impl<S: Default + 'static> Pool<S> {
    /// Spawn a pool of `workers.max(1)` long-lived threads, each owning a
    /// fresh `S::default()` scratch, plus one more scratch for the caller.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (ack_tx, ack_rx) = channel::<()>();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job<S>>();
            // vroom-lint: allow(hot-path-alloc) -- one channel handle per worker, once at pool construction
            let ack_tx = ack_tx.clone();
            // vroom-lint: allow(sim-purity) -- the pool's worker threads: jobs race only for indices; results land in input-index slots (see Pool docs)
            handles.push(std::thread::spawn(move || {
                let mut state = S::default();
                while let Ok(job) = rx.recv() {
                    job(&mut state);
                    // The job closure (and every Arc it captured) is dropped
                    // by the call above; only then acknowledge, so the
                    // caller's post-`dispatch` `Arc::get_mut` barrier holds.
                    let _ = ack_tx.send(());
                }
            }));
            senders.push(tx);
        }
        Pool {
            senders,
            ack_rx,
            handles,
            local: RefCell::default(),
        }
    }

    /// Map `f` over `items` on the pool, returning results in input order.
    /// `f` receives `(&mut scratch, index, &item)` exactly once per item;
    /// which scratch an item sees is schedule-dependent (a worker's, or the
    /// caller's for a one-item fan-out), so `f` must be pure modulo scratch
    /// reuse (see the type-level docs).
    pub fn dispatch<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + Sync + 'static,
        T: Send + 'static,
        F: Fn(&mut S, usize, &I) -> T + Send + Sync + 'static,
    {
        let n = items.len();
        if n <= 1 {
            let out = {
                let mut local = self.local.borrow_mut();
                items.iter().map(|item| f(&mut local, 0, item)).collect()
            };
            // The closure and every `Arc` it captured are gone before the
            // caller sees the result: the same barrier as the worker acks.
            drop(f);
            return out;
        }
        let chunk = claim_chunk(n, self.senders.len());
        let shared = Arc::new((items, AtomicUsize::new(0), f));
        let (res_tx, res_rx) = channel::<(usize, T)>();
        for sender in &self.senders {
            // vroom-lint: allow(hot-path-alloc) -- one refcount bump per worker per fan-out; the items are shared, never copied
            let shared = Arc::clone(&shared);
            // vroom-lint: allow(hot-path-alloc) -- one result-channel handle per worker per fan-out
            let res_tx = res_tx.clone();
            let job: Job<S> = Box::new(move |state| {
                let (items, next, f) = &*shared;
                claim_loop(n, chunk, next, &res_tx, |i| f(state, i, &items[i]));
            });
            sender.send(job).expect("pool worker thread alive");
        }
        drop(res_tx);
        // A panicked job never acks, so the collector fails on its missing
        // results *before* the barrier below could block.
        let out = collect_slots(n, res_rx);
        // Ack barrier: one acknowledgement per job, sent after the job (and
        // its Arc clones) dropped.
        for _ in &self.senders {
            self.ack_rx
                .recv()
                .expect("pool worker acknowledged its job");
        }
        out
    }
}

impl<S> Drop for Pool<S> {
    fn drop(&mut self) {
        // Hang up the job channels; workers exit their recv loops.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_for_every_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 * 1000 + x * 3)
            .collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let got = par_map_indexed(&items, workers, |i, x| i as u64 * 1000 + x * 3);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(par_map_indexed(&none, 8, |_, x| *x).is_empty());
        assert_eq!(par_map_indexed(&[41], 8, |_, x| x + 1), vec![42]);
    }

    #[test]
    fn order_restored_under_adversarial_completion_order() {
        // Early indices do the most work, so later items finish first on a
        // real pool; the output must still be in input order.
        let items: Vec<usize> = (0..16).collect();
        let got = par_map_indexed(&items, 4, |i, _| {
            let mut acc = 0u64;
            for k in 0..(16 - i) * 100_000 {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc % 7)
        });
        let idx: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, items);
    }

    #[test]
    fn workers_beyond_item_count_are_harmless() {
        let items = [1, 2, 3];
        assert_eq!(par_map_indexed(&items, 1000, |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn available_workers_is_at_least_one() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn claim_chunk_amortizes_but_never_starves() {
        assert_eq!(claim_chunk(0, 4), 1);
        assert_eq!(claim_chunk(3, 8), 1);
        assert_eq!(claim_chunk(1000, 4), 31);
        assert!(claim_chunk(1000, 4) * 4 * 8 <= 1024);
    }

    #[test]
    fn pool_matches_sequential_map_for_every_worker_count() {
        let items: Vec<u64> = (0..53).collect();
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 * 1000 + x * 3)
            .collect();
        for workers in [0, 1, 2, 3, 8] {
            // `Pool::new(0)` clamps to one worker, or nothing would run.
            let pool: Pool<()> = Pool::new(workers);
            let got = pool.dispatch(items.clone(), |_, i, x| i as u64 * 1000 + x * 3);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn pool_survives_many_runs_and_empty_inputs() {
        let pool: Pool<()> = Pool::new(4);
        assert!(pool.dispatch(Vec::<u8>::new(), |_, _, x| *x).is_empty());
        for round in 0..50u64 {
            let got = pool.dispatch(vec![round, round + 1], |_, _, x| x * 2);
            assert_eq!(got, vec![round * 2, round * 2 + 2]);
        }
    }

    #[test]
    fn pool_scratch_is_reused_but_output_is_schedule_invariant() {
        // Scratch counts how many jobs each worker ran; the *output* must
        // not depend on it (purity modulo reuse).
        #[derive(Default)]
        struct Counter(u64);
        let pool: Pool<Counter> = Pool::new(2);
        for _ in 0..20 {
            let got = pool.dispatch((0..10u64).collect::<Vec<_>>(), |s, i, x| {
                s.0 += 1;
                (i as u64) + x
            });
            assert_eq!(got, (0..10u64).map(|x| x * 2).collect::<Vec<_>>());
        }
        // Reuse check on a single-worker pool, where the claim race can't
        // route jobs away from a scratch: 20 runs x 10 items leave the one
        // counter at exactly 200, proving state persists across dispatches.
        let pool: Pool<Counter> = Pool::new(1);
        for _ in 0..20 {
            pool.dispatch((0..10u64).collect::<Vec<_>>(), |s, _, x| {
                s.0 += 1;
                *x
            });
        }
        let counts = pool.dispatch(vec![(), ()], |s, _, _| s.0);
        assert_eq!(counts, vec![200, 200]);
    }

    #[test]
    fn one_item_dispatches_run_inline_on_the_callers_scratch() {
        #[derive(Default)]
        struct Counter(u64);
        let pool: Pool<Counter> = Pool::new(4);
        let caller = std::thread::current().id();
        for round in 0..20u64 {
            let got = pool.dispatch(vec![round], move |s, i, x| {
                s.0 += 1;
                (i, x * 2, std::thread::current().id() == caller)
            });
            assert_eq!(got, vec![(0, round * 2, true)]);
        }
        // Every one-item run saw the same scratch: the caller's.
        assert_eq!(pool.dispatch(vec![()], |s, _, _| s.0), vec![20]);
        // A wider fan-out runs on the workers and leaves that scratch alone.
        pool.dispatch((0..8u64).collect::<Vec<_>>(), |s, _, _| s.0 += 1);
        assert_eq!(pool.dispatch(vec![()], |s, _, _| s.0), vec![20]);
        // The inline path keeps the `Arc::get_mut` barrier.
        let data = Arc::new(7u64);
        let captured = Arc::clone(&data);
        assert_eq!(pool.dispatch(vec![()], move |_, _, _| *captured), vec![7]);
        let mut data = data;
        assert!(Arc::get_mut(&mut data).is_some());
    }

    #[test]
    fn pool_ack_barrier_releases_shared_arcs() {
        let data = Arc::new(vec![1u64, 2, 3]);
        let pool: Pool<()> = Pool::new(3);
        let captured = Arc::clone(&data);
        let got = pool.dispatch(vec![0usize, 1, 2], move |_, _, &i| captured[i]);
        assert_eq!(got, vec![1, 2, 3]);
        // The barrier guarantees every worker's clone of `captured` is
        // dropped before `dispatch` returns: ours is the only reference left.
        let mut data = data;
        assert!(Arc::get_mut(&mut data).is_some());
    }
}
