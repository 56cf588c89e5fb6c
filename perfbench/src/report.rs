//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints human-readable lines first and, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. An untraced
//! run's metrics are [`END_TO_END`]; a traced run's are [`PER_LAYER`]. A
//! layer a workload does not exercise reports 0.

use std::collections::BTreeMap;

use vroom_net::json::Value;

/// `(name, unit)` of every end-to-end metric, reported on every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    // fleet: the real loop's stage clock, and the replay's per-load remainder
    ("fleet.pass_s", "s"),
    ("fleet.commit_s", "s"),
    ("fleet.load_s", "s"),
    ("fleet.account_s", "s"),
    ("fleet.origins_s", "s"),
    ("fleet.unattributed_s", "s"),
    // exec: Pool::dispatch
    ("exec.dispatches", "count"),
    ("exec.items", "count"),
    ("exec.dispatch_s", "s"),
    ("exec.idle_frac", "frac"),
    // pages: corpus construction and snapshot_arc
    ("pages.corpus_s", "s"),
    ("pages.snapshots", "count"),
    ("pages.resources", "count"),
    ("pages.snapshot_s", "s"),
    // server::store
    ("store.reads", "count"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.stale", "count"),
    ("store.evictions", "count"),
    ("store.read_s", "s"),
    ("store.write_s", "s"),
    // server::batch, resolve, freshness
    ("resolver.passes", "count"),
    ("resolver.hints", "count"),
    ("resolver.pass_s", "s"),
    ("resolver.commit_s", "s"),
    ("resolver.observed_s", "s"),
    ("resolver.embedded_s", "s"),
    // server::push_policy
    ("push.selected", "count"),
    ("push.select_s", "s"),
    // browser engine, and the link model's byte counters inside it
    ("browser.loads", "count"),
    ("browser.events", "count"),
    ("browser.load_s", "s"),
    ("browser.ns_per_event", "ns"),
    ("net.useful_bytes", "bytes"),
    ("net.wasted_bytes", "bytes"),
    // vroom::experiment, one per run_all section
    ("suite.fig01_s", "s"),
    ("suite.fig02_s", "s"),
    ("suite.fig03_s", "s"),
    ("suite.fig04_s", "s"),
    ("suite.fig07_s", "s"),
    ("suite.fig09_s", "s"),
    ("suite.fig11_s", "s"),
    ("suite.fig13_s", "s"),
    ("suite.fig14_s", "s"),
    ("suite.fig15_s", "s"),
    ("suite.fig16_s", "s"),
    ("suite.fig17_s", "s"),
    ("suite.fig18_s", "s"),
    ("suite.fig19_s", "s"),
    ("suite.fig20_s", "s"),
    ("suite.fig21_s", "s"),
    ("suite.incr_s", "s"),
    ("suite.t100_s", "s"),
    // server::wire over http2 + hpack, per staged page
    ("wire.root_ms", "ms"),
    ("wire.tier0_ms", "ms"),
    ("wire.tier1_ms", "ms"),
    ("wire.tier2_ms", "ms"),
    ("wire.requests", "count"),
    ("wire.pushed", "count"),
    ("wire.resets", "count"),
    ("wire.client_cpu_ms", "ms"),
    ("wire.server_cpu_ms", "ms"),
    ("wire.idle_frac", "frac"),
    // server::hints on the client side
    ("hints.parsed", "count"),
    ("hints.parse_us", "us"),
    // pages::render + html: the server's online analysis at set-up
    ("html.render_ms", "ms"),
    ("html.scan_ms", "ms"),
    // the traced run itself
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

/// Units whose values are whole numbers.
fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; catalogue entries absent here report 0.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result object for `catalogue`.
    pub fn result(&self, catalogue: &[(&str, &str)]) -> Value {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                let value = if is_count(unit) {
                    Value::Int(v.max(0.0).round() as u64)
                } else {
                    Value::Float(v)
                };
                let mut m = BTreeMap::new();
                m.insert("value".into(), value);
                m.insert("unit".into(), Value::Str(unit.into()));
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert(
            "correct".into(),
            Value::Bool(self.failed == 0 && self.attempted > 0),
        );
        root.insert("attempted".into(), Value::Int(self.attempted));
        root.insert("failed".into(), Value::Int(self.failed));
        root.insert("metrics".into(), Value::Object(metrics));
        Value::Object(root)
    }
}

/// Render `v` on one line: the canonical codec's conventions (sorted keys,
/// shortest round-trip floats) without its indentation.
pub fn to_line(v: &Value) -> String {
    let mut out = String::new();
    write_line(v, &mut out);
    out
}

fn write_line(v: &Value, out: &mut String) {
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_line(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Value::Str(k.clone()).to_pretty());
                out.push(':');
                write_line(item, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_pretty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome::default();
        o.check(true);
        o.check(true);
        o.set("setup_s", 0.812_734_5);
        o.set("ops_per_s", 3_106.812_5);
        o.set("peak_rss_mb", 41.0);
        o.set("store.reads", 2016.0);
        o.set("browser.ns_per_event", 1.5e-7);
        o.set("trace.overhead_s", f64::NAN);
        o
    }

    #[test]
    fn result_line_is_a_canonical_json_fixed_point() {
        for catalogue in [&END_TO_END[..], PER_LAYER] {
            let line = to_line(&sample().result(catalogue));
            assert!(!line.contains('\n'));
            let parsed = Value::parse(&line).expect("result line parses");
            assert_eq!(
                to_line(&parsed),
                line,
                "line -> parse -> line is the identity"
            );
            assert_eq!(
                parsed.to_pretty(),
                Value::parse(&parsed.to_pretty())
                    .expect("pretty parses")
                    .to_pretty(),
                "the canonical pretty form is a fixed point too"
            );
        }
    }

    #[test]
    fn result_has_exactly_the_contract_keys_and_every_metric() {
        let v = sample().result(PER_LAYER);
        let root = v.as_object().expect("object");
        let keys: Vec<&str> = root.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(root["correct"], Value::Bool(true));
        let metrics = root["metrics"].as_object().expect("metrics object");
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics["store.reads"].get("value"), Some(&Value::Int(2016)));
        assert_eq!(
            metrics["wire.root_ms"].get("value"),
            Some(&Value::Float(0.0)),
            "layers a workload does not exercise report zero"
        );
        assert_eq!(
            metrics["trace.overhead_s"].get("value"),
            Some(&Value::Float(0.0)),
            "non-finite values never reach the JSON"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = sample();
        o.check(false);
        let v = o.result(&END_TO_END);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted"), Some(&Value::Int(3)));
        assert_eq!(v.get("failed"), Some(&Value::Int(1)));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(declared)) = doc.get(key) else {
                panic!("{key} missing");
            };
            let declared: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, catalogue, "{key}");
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
