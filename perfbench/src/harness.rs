//! The run loop shared by every workload: repeated set-up and crawl
//! repetitions for a fixed wall time, output checks, medians and the
//! result line.

use crate::metrics::{self, MetricDef};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one repetition runs.
#[derive(Clone)]
pub enum Mode {
    /// The first repetition: untraced, not timed into the medians, with
    /// the expensive output checks (reachability and the like) switched
    /// on. It also warms the allocator and the code paths.
    Checked,
    /// Untraced and timed.
    Timed,
    /// Every layer wrapped; spans go to the tracer.
    Traced(Arc<Tracer>),
}

impl Mode {
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        match self {
            Mode::Traced(t) => Some(t),
            _ => None,
        }
    }
}

/// What must repeat exactly between repetitions at one seed, and between
/// traced and untraced runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Det {
    pub requests: u64,
    pub gets: u64,
    pub targets: u64,
    pub abandoned: [u64; 7],
    /// Simulated makespan (`f64::to_bits`), where it is deterministic.
    pub sim_makespan_bits: Option<u64>,
    /// Workload-specific deterministic values (per-site counts, refresh
    /// ledger, …).
    pub extra: Vec<u64>,
}

/// One repetition's outcome.
pub struct Rep {
    /// Wall seconds of the measured part (set-up excluded).
    pub wall_s: f64,
    /// Wall seconds of each chunk of the measured part, in order; they
    /// add up to `wall_s`. Chunks are cut at deterministic points (every
    /// so many steps, every fleet), so chunk `i` does the same work in
    /// every repetition at one seed. See [`best_wall_s`].
    pub chunk_s: Vec<f64>,
    pub det: Det,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of every `CrawlSession::step` call, where the benchmark
    /// drives the session step by step.
    pub step_ns: Vec<u64>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Workload-specific values (untraced ones feed the report; traced
    /// ones are per-layer metrics).
    pub values: BTreeMap<&'static str, f64>,
}

impl Rep {
    pub fn pages_per_s(&self) -> f64 {
        self.det.gets as f64 / self.wall_s.max(1e-9)
    }
}

/// One workload: generated inputs plus a repetition.
pub trait Workload {
    type Inputs;
    const NAME: &'static str;
    fn setup(seed: u64) -> Self::Inputs;
    /// Input sizes for the result stamp.
    fn describe(inputs: &Self::Inputs) -> Vec<(&'static str, String)>;
    fn run(inputs: &Self::Inputs, seed: u64, mode: &Mode) -> Rep;
}

/// The whole run's result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metrics for the final line, in declaration order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Everything else worth printing (not part of the final line).
    pub report: Vec<(String, f64, String)>,
    pub inputs: Vec<(&'static str, String)>,
}

/// Repetitions after the checked one, at least.
const MIN_TIMED: usize = 2;

/// Runs `W` for `seconds` of wall time: a checked repetition, then timed
/// (or, when tracing, alternating untraced and traced) repetitions until
/// the time is spent. Each repetition sets its inputs up afresh, so every
/// crawl pays for its own rendering and every repetition yields a set-up
/// sample.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut setups = Vec::new();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut tracer_of_first: Option<Arc<Tracer>> = None;
    let mut inputs_desc = Vec::new();
    let mut first_det: Option<Det> = None;
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut index = 0usize;
    loop {
        let mode = if index == 0 {
            Mode::Checked
        } else if trace && index.is_multiple_of(2) {
            Mode::Traced(Arc::new(Tracer::new()))
        } else {
            Mode::Timed
        };
        let cpu0 = process_cpu_s();
        let rep_started = Instant::now();
        let inputs = W::setup(seed);
        setups.push(rep_started.elapsed().as_secs_f64());
        if index == 0 {
            inputs_desc = W::describe(&inputs);
        }
        let rep = W::run(&inputs, seed, &mode);
        drop(inputs);

        let cpu = process_cpu_s() - cpu0;
        eprintln!(
            "rep {index} {:<8} cpu {cpu:.2} s  setup {:.4} s  measured {:.4} s  {:.1} GET/s",
            match mode {
                Mode::Checked => "checked",
                Mode::Timed => "timed",
                Mode::Traced(_) => "traced",
            },
            setups[index],
            rep.wall_s,
            rep.pages_per_s()
        );
        attempted += rep.attempted;
        failed += rep.failed;
        for f in &rep.failures {
            failures.push(format!("rep {index}: {f}"));
        }
        match &first_det {
            None => first_det = Some(rep.det.clone()),
            Some(d) if *d != rep.det => failures.push(format!(
                "rep {index} ({}) diverged from rep 0 at the same seed: {:?} vs {:?}",
                if mode.tracer().is_some() {
                    "traced"
                } else {
                    "untraced"
                },
                rep.det,
                d
            )),
            Some(_) => {}
        }
        if let (Some(t), None) = (mode.tracer(), &tracer_of_first) {
            tracer_of_first = Some(Arc::clone(t));
        }
        reps.push((mode.tracer().is_some(), rep));
        index += 1;

        // Stop once another repetition would end further past the
        // measuring time than stopping now falls short of it, so a run
        // lasts `seconds` give or take half a repetition.
        let timed = reps.len() - 1;
        let traced_done = !trace || reps.iter().any(|(t, _)| *t);
        let rep_time = rep_started.elapsed();
        if started.elapsed() + rep_time / 2 >= budget && timed >= MIN_TIMED && traced_done {
            break;
        }
    }

    let det = first_det.expect("at least one repetition ran");
    let untraced: Vec<&Rep> = reps
        .iter()
        .skip(1)
        .filter(|(t, _)| !t)
        .map(|(_, r)| r)
        .collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let pps = det.gets as f64 / best_wall_s(&untraced).max(1e-9);
    let setup_s = median(setups.clone());
    let targets_per_get = det.targets as f64 / det.requests.max(1) as f64;
    let peak_rss_mb = peak_rss_kb() as f64 / 1024.0;

    let mut report: Vec<(String, f64, String)> = Vec::new();
    let mut steps: Vec<u64> = untraced
        .iter()
        .flat_map(|r| r.step_ns.iter().copied())
        .collect();
    steps.sort_unstable();
    let mut layer: BTreeMap<&'static str, f64> =
        metrics::PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    if !steps.is_empty() {
        layer.insert(
            "core.session.step.p50_us",
            percentile(&steps, 0.50) as f64 / 1e3,
        );
        layer.insert(
            "core.session.step.p99_us",
            percentile(&steps, 0.99) as f64 / 1e3,
        );
        layer.insert("core.session.step.samples", steps.len() as f64);
    }
    // Untraced workload values (read QPS, freshness, makespan): medians
    // over the untraced timed repetitions.
    let mut keys: Vec<&'static str> = untraced
        .iter()
        .flat_map(|r| r.values.keys().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let v = median(
            untraced
                .iter()
                .filter_map(|r| r.values.get(k).copied())
                .collect(),
        );
        layer.insert(k, v);
    }
    if trace {
        let traced_pps = det.gets as f64 / best_wall_s(&traced).max(1e-9);
        layer.insert("trace.untraced_pages_per_s", pps);
        layer.insert("trace.traced_pages_per_s", traced_pps);
        layer.insert("trace.overhead_ratio", pps / traced_pps.max(1e-9));
        layer.insert("trace.timed_reps", untraced.len() as f64);
        if let Some(first) = traced.first() {
            for (k, v) in &first.values {
                layer.insert(k, *v);
            }
        }
        if let Some(t) = &tracer_of_first {
            layer.insert("trace.spans", t.spans().len() as f64);
        }
    }
    for (k, v) in &layer {
        if metrics::find(k).is_none() {
            failures.push(format!("workload reported undeclared metric {k}"));
        }
        if !v.is_finite() {
            failures.push(format!("metric {k} is not finite"));
        }
    }

    let e2e = [setup_s, pps, targets_per_get, peak_rss_mb];
    for (def, v) in metrics::END_TO_END.iter().zip(e2e) {
        if !(v.is_finite() && v > 0.0) {
            failures.push(format!(
                "end-to-end metric {} = {v} is not a positive number",
                def.name
            ));
        }
    }
    let metrics_out: Vec<(MetricDef, f64)> = if trace {
        metrics::PER_LAYER
            .iter()
            .map(|d| (*d, layer[d.name]))
            .collect()
    } else {
        metrics::END_TO_END.iter().copied().zip(e2e).collect()
    };
    if !trace {
        for d in metrics::PER_LAYER.iter() {
            if layer[d.name] != 0.0 {
                report.push((d.name.to_owned(), layer[d.name], d.unit.to_owned()));
            }
        }
    }
    report.push((
        "pages_per_s_wall_median".to_owned(),
        median(untraced.iter().map(|r| r.pages_per_s()).collect()),
        "1/s".to_owned(),
    ));
    for (name, n) in [
        ("repetitions", reps.len()),
        ("setup_samples", setups.len()),
        ("timed_samples", untraced.len()),
        ("gets_per_rep", det.gets as usize),
    ] {
        report.push((name.to_owned(), n as f64, "count".to_owned()));
    }

    if let Some(t) = &tracer_of_first {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("spans-{}.tsv", W::NAME));
        if let Err(e) = t.write_tsv(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }

    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        failures,
        metrics: metrics_out,
        report,
        inputs: inputs_desc,
    }
}

/// Wall seconds of the least-disturbed pass through the measured part:
/// for each chunk, its fastest time over `reps`, summed over the chunks.
///
/// The host shares caches and memory bandwidth with other tenants, so
/// the same chunk of memory-bound crawl work takes up to twice as long
/// from one second to the next. Contention only ever adds time, so the
/// fastest of several timings of identical work is the best estimate of
/// its own cost, and cutting the crawl into short chunks lets each chunk
/// find a quiet moment somewhere in the run. When the repetitions do not
/// share one chunking (they always do at one seed), the fastest whole
/// repetition is used. 0 for no repetitions.
pub fn best_wall_s(reps: &[&Rep]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    let n = first.chunk_s.len();
    if n == 0 || reps.iter().any(|r| r.chunk_s.len() != n) {
        return reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    }
    (0..n)
        .map(|i| {
            reps.iter()
                .map(|r| r.chunk_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Median of a sample (mean of the middle two for even sizes); 0 for an
/// empty sample.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// User + system CPU seconds of this process so far, all threads
/// included (`/proc/self/stat`, clock-tick resolution); 0 where it does
/// not exist.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // /proc reports ticks of USER_HZ, which Linux fixes at 100.
    (ticks(11) + ticks(12)) / 100.0
}

/// `VmHWM` (peak resident set) of this process in kB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Times link extraction over served HTML bodies with the strategy's
/// `LinkNeeds`, as `html.extract` spans, and counts pages and links.
pub fn extract_links(tracer: &Tracer, bodies: &[sb_httpsim::Body], needs: sb_html::LinkNeeds) {
    let mut links = 0usize;
    for body in bodies {
        let _span = tracer.span("html.extract");
        let html = sb_html::body_str(body.as_slice());
        links += std::hint::black_box(sb_html::extract_links_with(&html, needs)).len();
    }
    tracer.add("html.extract.pages", bodies.len() as f64);
    tracer.add("html.extract.links", links as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(chunk_s: Vec<f64>) -> Rep {
        Rep {
            wall_s: chunk_s.iter().sum(),
            chunk_s,
            det: Det {
                requests: 0,
                gets: 0,
                targets: 0,
                abandoned: [0; 7],
                sim_makespan_bits: None,
                extra: Vec::new(),
            },
            attempted: 0,
            failed: 0,
            step_ns: Vec::new(),
            failures: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    #[test]
    fn best_wall_takes_each_chunk_at_its_fastest() {
        let a = rep(vec![1.0, 5.0, 2.0]);
        let b = rep(vec![3.0, 4.0, 2.5]);
        assert_eq!(best_wall_s(&[&a, &b]), 1.0 + 4.0 + 2.0);
        assert_eq!(best_wall_s(&[&a]), a.wall_s);
        assert_eq!(best_wall_s(&[]), 0.0);
    }

    #[test]
    fn best_wall_falls_back_to_the_fastest_repetition() {
        let a = rep(vec![1.0, 5.0]);
        let b = rep(vec![2.0, 2.0, 2.0]);
        assert_eq!(best_wall_s(&[&a, &b]), 6.0);
    }
}
