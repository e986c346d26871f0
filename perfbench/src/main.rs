//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit, a stamp line, and as the last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! 1 when an output check fails and 2 on a usage error.

use perfbench::harness::{self, Outcome};
use perfbench::stamp;
use perfbench::workloads::{
    bfs_large::BfsLarge, sb_budget::SbBudget, serve_zipf::ServeZipf, value_fleet::ValueFleet,
};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["bfs_large", "sb_budget", "value_fleet", "serve_zipf"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// JSON string literal (the values printed here are plain ASCII names,
/// but escape anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in full precision (Rust's shortest round-trip form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "bfs_large" => harness::run::<BfsLarge>(args.seed, args.seconds, args.trace),
        "sb_budget" => harness::run::<SbBudget>(args.seed, args.seconds, args.trace),
        "value_fleet" => harness::run::<ValueFleet>(args.seed, args.seconds, args.trace),
        "serve_zipf" => harness::run::<ServeZipf>(args.seed, args.seconds, args.trace),
        _ => unreachable!("parse_args admits only known workloads"),
    };

    for (def, v) in &out.metrics {
        println!("{:<40} {:>18} {}", def.name, json_num(*v), def.unit);
    }
    for (name, v, unit) in &out.report {
        println!("{:<40} {:>18} {unit}", name, json_num(*v));
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }

    let mut stamp_fields = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    stamp_fields.extend(stamp::environment());
    stamp_fields.extend(out.inputs.iter().map(|(k, v)| (*k, v.clone())));
    let stamp_json: Vec<String> = stamp_fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", stamp_json.join(", "));

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(def, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(def.name),
                json_num(*v),
                json_str(def.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
