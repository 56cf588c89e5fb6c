//! Golden proof of the deterministic parallel harness: the entire
//! `run_all` report is byte-identical for every worker count, and the
//! executor primitive itself equals a sequential `map` for arbitrary item
//! counts and worker counts.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use vroom::experiment::{run_all_report, run_sections, ExperimentConfig, RUN_ALL_SECTIONS};
use vroom_exec::{par_map_indexed, Pool};

fn cfg(workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(5);
    cfg.workers = workers;
    cfg
}

/// The tentpole acceptance test: the full report — every figure and table
/// the paper's evaluation regenerates — is byte-identical whether the
/// harness runs sequentially or on a pool, at any width.
#[test]
fn run_all_report_is_byte_identical_across_worker_counts() {
    let sequential = run_all_report(&cfg(1));
    assert!(
        sequential.contains("==== fig01 ====") && sequential.contains("==== t100 ===="),
        "report covers every section"
    );
    for workers in [2, 8] {
        let parallel = run_all_report(&cfg(workers));
        assert_eq!(
            sequential, parallel,
            "run_all output diverged at workers={workers}"
        );
    }
}

/// A report's sections share one plan of News+Sports loads. The sharing
/// must not show: each section run alone prints exactly its block of the
/// full report, at one worker and at three.
#[test]
fn each_section_alone_prints_its_block_of_the_full_report() {
    for workers in [1, 3] {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.workers = workers;
        let full = run_sections(&cfg, &RUN_ALL_SECTIONS);
        let mut rest = full.as_str();
        for id in RUN_ALL_SECTIONS {
            let alone = run_sections(&cfg, &[id]);
            assert!(
                rest.starts_with(&alone),
                "section {id} alone differs from its block of the full report at workers={workers}"
            );
            rest = &rest[alone.len()..];
        }
        assert!(
            rest.is_empty(),
            "the full report has more than its sections"
        );
    }
}

/// The pool must not skip, duplicate, or reorder sites: a keyed map over a
/// wide pool equals the sequential reference exactly.
#[test]
fn par_map_preserves_index_association() {
    let items: Vec<u64> = (0..100).map(|i| i * 31 % 17).collect();
    let reference: Vec<(usize, u64)> = items.iter().enumerate().map(|(i, &x)| (i, x * x)).collect();
    for workers in [2, 3, 7, 16] {
        let got = par_map_indexed(&items, workers, |i, &x| (i, x * x));
        assert_eq!(got, reference, "workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `par_map_indexed(items, w, f)` equals the plain `Vec` map for
    /// arbitrary item counts and worker counts, including degenerate ones
    /// (0 items, 0/1 workers, more workers than items).
    #[test]
    fn par_map_equals_sequential_map(
        items in proptest::collection::vec(any::<u32>(), 0..200),
        workers in 0usize..32,
    ) {
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64) << 32 | u64::from(x))
            .collect();
        let got = par_map_indexed(&items, workers, |i, &x| (i as u64) << 32 | u64::from(x));
        prop_assert_eq!(got, reference);
    }

    /// The persistent pool equals the same sequential reference for
    /// arbitrary item/worker counts — and a single pool reused across many
    /// differently-sized runs must not leak state between them (each
    /// worker's scratch persists, results must not).
    #[test]
    fn pool_equals_sequential_map_across_reuse(
        runs in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..80), 1..6),
        workers in 0usize..16,
    ) {
        #[derive(Default)]
        struct Scratch(u64);
        let pool: Pool<Scratch> = Pool::new(workers);
        for items in runs {
            let reference: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as u64) << 32 | u64::from(x))
                .collect();
            let got = pool.dispatch(items, |s, i, &x| {
                s.0 = s.0.wrapping_add(1); // dirty the scratch: must not leak
                (i as u64) << 32 | u64::from(x)
            });
            prop_assert_eq!(got, reference);
        }
    }
}
