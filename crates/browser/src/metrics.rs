//! Load-result metrics: everything the paper's evaluation reports.

use std::collections::BTreeMap;
use vroom_net::json::Value;
use vroom_sim::{SimDuration, SimTime};

/// Timing of one resource within a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceTiming {
    /// When the client first knew the URL (parser, hint, or push promise).
    pub discovered: SimTime,
    /// When the request was issued (or the push began); `None` if served
    /// from cache.
    pub requested: Option<SimTime>,
    /// When the last byte arrived (equals `discovered` for cache hits).
    pub fetched: SimTime,
    /// When parsing/execution finished (`None` if the resource needs no
    /// processing or processing was disabled).
    pub processed: Option<SimTime>,
    /// Whether it was served from the warm cache.
    pub from_cache: bool,
    /// Whether it arrived via server push.
    pub pushed: bool,
    /// Whether every attempt failed and the load degraded around it.
    pub failed: bool,
}

/// Result of one simulated page load.
///
/// Derives `PartialEq` so the determinism suite can assert two identically
/// seeded loads agree on every field, including the per-resource trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadResult {
    /// Page load time: when the onload event fires.
    pub plt: SimDuration,
    /// Above-the-fold time: last above-the-fold paint.
    pub aft: SimDuration,
    /// Speed Index in milliseconds (integral of visual incompleteness).
    pub speed_index: f64,
    /// When the client had discovered every resource of the load.
    pub discovery_all: SimDuration,
    /// When the client had discovered every high-priority
    /// (needs-processing) resource.
    pub discovery_high: SimDuration,
    /// When every resource had finished downloading.
    pub fetch_all: SimDuration,
    /// When every high-priority resource had finished downloading.
    pub fetch_high: SimDuration,
    /// Total time the CPU was busy before onload.
    pub cpu_busy: SimDuration,
    /// Time before onload with the CPU idle while network activity was
    /// pending (in flight or awaiting a response) — the "waiting on
    /// network" share of the load.
    pub network_wait: SimDuration,
    /// Bytes fetched that belonged to the page.
    pub useful_bytes: u64,
    /// Bytes fetched due to inaccurate hints/pushes (wasted).
    pub wasted_bytes: u64,
    /// Number of resources served from cache.
    pub cache_hits: usize,
    /// RST_STREAM-equivalent events observed (truncated bodies, aborted
    /// attempts). Zero on fault-free loads.
    pub rst_streams: usize,
    /// GOAWAY-equivalent events observed (dropped connections).
    pub goaways: usize,
    /// Fetch attempts beyond the first, across all resources.
    pub retries: usize,
    /// Attempts abandoned by the per-request timeout.
    pub timeouts: usize,
    /// Resources whose retry budget was exhausted; onload degraded
    /// around them instead of stalling.
    pub failed_resources: usize,
    /// Per-resource timings, indexed like `Page::resources`.
    pub resources: Vec<ResourceTiming>,
}

impl LoadResult {
    /// Fraction of the load spent CPU-idle waiting on the network, summed
    /// over the whole load (DESIGN.md §3). Paper Fig. 4 measures this wait
    /// along the load's critical path instead, which is not modelled yet
    /// (ROADMAP.md item 3).
    pub fn network_wait_frac(&self) -> f64 {
        if self.plt == SimDuration::ZERO {
            return 0.0;
        }
        self.network_wait.as_secs_f64() / self.plt.as_secs_f64()
    }

    /// CPU utilization before onload.
    pub fn cpu_utilization(&self) -> f64 {
        if self.plt == SimDuration::ZERO {
            return 0.0;
        }
        self.cpu_busy.as_secs_f64() / self.plt.as_secs_f64()
    }

    /// The result as a canonical-codec JSON tree: key-sorted objects,
    /// durations in integer milliseconds, per-resource trace included.
    /// Rendering the same result always yields the same bytes.
    pub fn to_json_value(&self) -> Value {
        let mut m = BTreeMap::new();
        let ms = |d: SimDuration| Value::Int(d.as_millis());
        m.insert("plt_ms".into(), ms(self.plt));
        m.insert("aft_ms".into(), ms(self.aft));
        m.insert("speed_index_ms".into(), Value::Float(self.speed_index));
        m.insert("discovery_all_ms".into(), ms(self.discovery_all));
        m.insert("discovery_high_ms".into(), ms(self.discovery_high));
        m.insert("fetch_all_ms".into(), ms(self.fetch_all));
        m.insert("fetch_high_ms".into(), ms(self.fetch_high));
        m.insert("cpu_busy_ms".into(), ms(self.cpu_busy));
        m.insert("network_wait_ms".into(), ms(self.network_wait));
        m.insert("useful_bytes".into(), Value::Int(self.useful_bytes));
        m.insert("wasted_bytes".into(), Value::Int(self.wasted_bytes));
        m.insert("cache_hits".into(), Value::Int(self.cache_hits as u64));
        m.insert("rst_streams".into(), Value::Int(self.rst_streams as u64));
        m.insert("goaways".into(), Value::Int(self.goaways as u64));
        m.insert("retries".into(), Value::Int(self.retries as u64));
        m.insert("timeouts".into(), Value::Int(self.timeouts as u64));
        m.insert(
            "failed_resources".into(),
            Value::Int(self.failed_resources as u64),
        );
        let resources = self
            .resources
            .iter()
            .map(|t| {
                let mut r = BTreeMap::new();
                let time = |t: SimTime| Value::Int(t.as_millis());
                let opt = |t: Option<SimTime>| t.map(time).unwrap_or(Value::Null);
                r.insert("discovered_ms".into(), time(t.discovered));
                r.insert("requested_ms".into(), opt(t.requested));
                r.insert("fetched_ms".into(), time(t.fetched));
                r.insert("processed_ms".into(), opt(t.processed));
                r.insert("from_cache".into(), Value::Bool(t.from_cache));
                r.insert("pushed".into(), Value::Bool(t.pushed));
                r.insert("failed".into(), Value::Bool(t.failed));
                Value::Object(r)
            })
            .collect();
        m.insert("resources".into(), Value::Array(resources));
        Value::Object(m)
    }

    /// Serialize through the canonical JSON codec into a preallocated
    /// buffer: one allocation for the output string, byte-identical across
    /// runs for equal results.
    pub fn to_json(&self) -> String {
        let v = self.to_json_value();
        // ~160 bytes per resource row plus the scalar header comfortably
        // bounds the rendered size, so the buffer never regrows.
        let mut out = String::with_capacity(512 + 192 * self.resources.len());
        v.write_pretty_into(&mut out);
        out
    }
}

/// Simple descriptive statistics over a set of per-site values.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
}

impl Quartiles {
    /// Whether the sample had any data. Quartiles of an empty sample are
    /// all-NaN; render helpers skip such rows instead of printing NaNs.
    pub fn is_defined(&self) -> bool {
        self.p25.is_finite() && self.p50.is_finite() && self.p75.is_finite()
    }
}

/// Compute quartiles of a sample (interpolated). An empty sample yields
/// all-NaN quartiles (`is_defined()` = false) rather than aborting, so
/// figure runners survive corpus slices that filter down to nothing.
/// Non-finite samples are a caller bug: debug builds assert, release
/// builds order them deterministically via `total_cmp`.
pub fn quartiles(values: &[f64]) -> Quartiles {
    debug_assert!(
        values.iter().all(|v| v.is_finite()),
        "non-finite sample in quartiles"
    );
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Quartiles {
        p25: percentile_sorted(&v, 0.25),
        p50: percentile_sorted(&v, 0.50),
        p75: percentile_sorted(&v, 0.75),
    }
}

/// Interpolated percentile of a pre-sorted sample, `q` in `[0, 1]`.
/// Returns NaN for an empty sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_sample() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.p25, 2.0);
        assert_eq!(q.p50, 3.0);
        assert_eq!(q.p75, 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn empty_sample_yields_undefined_quartiles_not_a_panic() {
        assert!(percentile_sorted(&[], 0.5).is_nan());
        let q = quartiles(&[]);
        assert!(!q.is_defined());
        assert!(q.p25.is_nan() && q.p50.is_nan() && q.p75.is_nan());
        assert!(quartiles(&[1.0, 2.0]).is_defined());
    }

    #[test]
    fn quartiles_sort_is_total() {
        // total_cmp orders -0.0 < +0.0 and never panics; a reversed input
        // sorts the same as a pre-sorted one.
        let a = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let b = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((a.p25, a.p50, a.p75), (b.p25, b.p50, b.p75));
    }

    #[test]
    fn fractions_guard_zero_plt() {
        let r = LoadResult {
            plt: SimDuration::ZERO,
            aft: SimDuration::ZERO,
            speed_index: 0.0,
            discovery_all: SimDuration::ZERO,
            discovery_high: SimDuration::ZERO,
            fetch_all: SimDuration::ZERO,
            fetch_high: SimDuration::ZERO,
            cpu_busy: SimDuration::ZERO,
            network_wait: SimDuration::ZERO,
            useful_bytes: 0,
            wasted_bytes: 0,
            cache_hits: 0,
            rst_streams: 0,
            goaways: 0,
            retries: 0,
            timeouts: 0,
            failed_resources: 0,
            resources: vec![],
        };
        assert_eq!(r.network_wait_frac(), 0.0);
        assert_eq!(r.cpu_utilization(), 0.0);
    }

    fn sample_result() -> LoadResult {
        LoadResult {
            plt: SimDuration::from_millis(1234),
            aft: SimDuration::from_millis(900),
            speed_index: 870.5,
            discovery_all: SimDuration::from_millis(400),
            discovery_high: SimDuration::from_millis(300),
            fetch_all: SimDuration::from_millis(1100),
            fetch_high: SimDuration::from_millis(800),
            cpu_busy: SimDuration::from_millis(600),
            network_wait: SimDuration::from_millis(500),
            useful_bytes: 1_000_000,
            wasted_bytes: 50_000,
            cache_hits: 2,
            rst_streams: 1,
            goaways: 0,
            retries: 1,
            timeouts: 0,
            failed_resources: 0,
            resources: vec![
                ResourceTiming {
                    discovered: SimTime::ZERO,
                    requested: Some(SimTime::from_millis(1)),
                    fetched: SimTime::from_millis(200),
                    processed: Some(SimTime::from_millis(250)),
                    from_cache: false,
                    pushed: false,
                    failed: false,
                },
                ResourceTiming {
                    discovered: SimTime::from_millis(210),
                    requested: None,
                    fetched: SimTime::from_millis(210),
                    processed: None,
                    from_cache: true,
                    pushed: false,
                    failed: false,
                },
            ],
        }
    }

    #[test]
    fn to_json_is_byte_stable_and_roundtrips_through_the_codec() {
        let r = sample_result();
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b, "equal results serialize to identical bytes");
        assert_eq!(
            a,
            r.to_json_value().to_pretty(),
            "buffered path == to_pretty"
        );

        let v = Value::parse(&a).expect("canonical codec parses its own output");
        assert_eq!(v.get("plt_ms").and_then(Value::as_u64), Some(1234));
        assert_eq!(
            v.get("useful_bytes").and_then(Value::as_u64),
            Some(1_000_000)
        );
        let resources = match v.get("resources") {
            Some(Value::Array(items)) => items,
            other => panic!("resources must be an array, got {other:?}"),
        };
        assert_eq!(resources.len(), 2);
        assert_eq!(
            resources[1].get("requested_ms"),
            Some(&Value::Null),
            "cache hits have no request time"
        );
    }
}
