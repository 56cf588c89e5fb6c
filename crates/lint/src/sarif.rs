//! SARIF 2.1.0 rendering of a lint report.
//!
//! Built on `vroom_net::json::Value`, whose `BTreeMap`-backed objects and
//! stable pretty-printer make the output canonical: same findings, same
//! bytes — which is what keeps CI artifact diffs readable.

use crate::rules::{self, Violation};
use crate::Report;
use std::collections::BTreeMap;
use vroom_net::json::Value;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    let mut m = BTreeMap::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Render a report as a SARIF 2.1.0 document (pretty-printed, sorted keys,
/// trailing newline). Results appear in the report's own deterministic
/// order: (path, line, rule).
pub fn render(report: &Report) -> String {
    let rules: Vec<Value> = rules::RULE_IDS
        .iter()
        .map(|id| {
            obj(vec![
                ("id", s(id)),
                (
                    "shortDescription",
                    obj(vec![("text", s(rules::rule_description(id)))]),
                ),
            ])
        })
        .collect();

    let results: Vec<Value> = report.violations.iter().map(result_of).collect();

    let run = obj(vec![
        (
            "tool",
            obj(vec![(
                "driver",
                obj(vec![
                    ("name", s("vroom-lint")),
                    ("informationUri", s("https://github.com/vroom/vroom")),
                    ("rules", Value::Array(rules)),
                ]),
            )]),
        ),
        ("columnKind", s("utf16CodeUnits")),
        ("results", Value::Array(results)),
        (
            "properties",
            obj(vec![(
                "filesScanned",
                Value::Int(report.files_scanned as u64),
            )]),
        ),
    ]);

    let doc = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        ("runs", Value::Array(vec![run])),
    ]);

    let mut out = doc.to_pretty();
    out.push('\n');
    out
}

fn result_of(v: &Violation) -> Value {
    obj(vec![
        ("ruleId", s(v.rule)),
        ("level", s("error")),
        ("message", obj(vec![("text", s(&v.message))])),
        (
            "locations",
            Value::Array(vec![obj(vec![(
                "physicalLocation",
                obj(vec![
                    ("artifactLocation", obj(vec![("uri", s(&v.path))])),
                    (
                        "region",
                        obj(vec![
                            ("startLine", Value::Int(v.line as u64)),
                            ("snippet", obj(vec![("text", s(&v.snippet))])),
                        ]),
                    ),
                ]),
            )])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            violations: vec![
                Violation {
                    rule: "sim-purity",
                    path: "crates/net/src/x.rs".into(),
                    line: 3,
                    message: "wall-clock read".into(),
                    snippet: "let t = Instant::now();".into(),
                },
                Violation {
                    rule: "panic-reachable",
                    path: "crates/server/src/wire.rs".into(),
                    line: 9,
                    message: "unwrap".into(),
                    snippet: "x.unwrap()".into(),
                },
            ],
            files_scanned: 5,
        }
    }

    #[test]
    fn renders_valid_canonical_json() {
        let text = render(&sample_report());
        let v = Value::parse(text.trim_end()).expect("valid json");
        assert_eq!(v.get("version").unwrap().as_str(), Some("2.1.0"));
        let runs = match v.get("runs").unwrap() {
            Value::Array(a) => a,
            other => panic!("runs not an array: {other:?}"),
        };
        let results = match runs[0].get("results").unwrap() {
            Value::Array(a) => a,
            other => panic!("results not an array: {other:?}"),
        };
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").unwrap().as_str(),
            Some("sim-purity")
        );
        // Rendering twice is byte-identical.
        assert_eq!(text, render(&sample_report()));
    }

    #[test]
    fn driver_lists_every_rule() {
        let text = render(&sample_report());
        for id in rules::RULE_IDS {
            assert!(text.contains(&format!("\"id\": \"{id}\"")), "{id}");
        }
    }
}
