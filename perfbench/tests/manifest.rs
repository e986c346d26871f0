//! `BENCHMARK.json` at the repository root names exactly the workloads
//! the binary accepts and the metrics `src/metrics.rs` declares, with the
//! same units and directions.

use perfbench::metrics::{END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The JSON object text of the array under `key` (the manifest is
/// machine-written with one object per line group, so a bracket scan is
/// enough here).
fn array<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let rest = &doc[start..];
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &rest[..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key} array")
}

fn field_values<'a>(text: &'a str, field: &str) -> Vec<&'a str> {
    let pat = format!("\"{field}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let v = &text[i + pat.len()..];
            &v[..v.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn manifest_matches_declared_metrics() {
    let doc = manifest();
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let text = array(&doc, key);
        let names = field_values(text, "name");
        let units = field_values(text, "unit");
        let better = field_values(text, "better");
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{key} names");
        assert_eq!(
            units,
            defs.iter().map(|d| d.unit).collect::<Vec<_>>(),
            "{key} units"
        );
        assert_eq!(
            better,
            defs.iter().map(|d| d.better).collect::<Vec<_>>(),
            "{key} directions"
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
}

#[test]
fn manifest_names_the_four_workloads() {
    let doc = manifest();
    let names = field_values(array(&doc, "workloads"), "name");
    assert_eq!(
        names,
        ["bfs_large", "sb_budget", "value_fleet", "serve_zipf"]
    );
}
