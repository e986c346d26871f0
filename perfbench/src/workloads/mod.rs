//! The four workloads and the step-driven session loop two of them share.

pub mod bfs_large;
pub mod sb_budget;
pub mod serve_zipf;
pub mod value_fleet;

use crate::harness::{extract_links, Det, Mode};
use crate::trace::Tracer;
use crate::wrap::{
    EventCounts, TracedServer, TracedSource, TracedStrategy, TracedTransport, ABANDON_BUCKETS,
};
use sb_crawler::{AbandonCounts, CrawlConfig, CrawlOutcome, CrawlSession, MemGauges, Strategy};
use sb_httpsim::transport::Transport;
use sb_httpsim::{HttpServer, PipelinedTransport, SiteServer};
use sb_webgraph::gen::SiteSource;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Mixes the workload seed with a stream tag, so each derived input
/// (site graph, crawl RNG, reader RNG, …) gets its own seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn abandon_array(a: &AbandonCounts) -> [u64; 7] {
    [
        a.http_error,
        a.timeout,
        a.retries_exhausted,
        a.quarantined,
        a.redirect,
        a.session_closed,
        a.other,
    ]
}

/// Failures of the fetch path itself (timeouts, exhausted retries,
/// quarantined hosts). Dead links (4xx/5xx pages the site really serves),
/// redirect bookkeeping and selections left unfetched when the budget
/// ran out are correct crawl outcomes, not failed operations.
pub fn transport_failures(a: &AbandonCounts) -> u64 {
    a.timeout + a.retries_exhausted + a.quarantined
}

/// A site server for one repetition: plain, or with the source and the
/// server wrapped for tracing.
pub struct Served {
    pub server: Arc<dyn HttpServer>,
    /// The tracing wrapper (also `server`), whose served HTML the
    /// benchmark re-extracts.
    pub traced: Option<Arc<TracedServer>>,
}

impl Served {
    pub fn new(source: Arc<dyn SiteSource>, tracer: Option<&Arc<Tracer>>) -> Served {
        match tracer {
            None => Served {
                server: Arc::new(SiteServer::from_source(source)),
                traced: None,
            },
            Some(t) => {
                let source: Arc<dyn SiteSource> =
                    Arc::new(TracedSource::new(source, Arc::clone(t)));
                let inner: Arc<dyn HttpServer> = Arc::new(SiteServer::from_source(source));
                let traced = Arc::new(TracedServer::new(inner, Arc::clone(t)));
                Served {
                    server: Arc::clone(&traced) as Arc<dyn HttpServer>,
                    traced: Some(traced),
                }
            }
        }
    }
}

/// Steps per timed chunk of a step-driven crawl: about 1 ms of BFS work,
/// 10 ms of SB-CLASSIFIER work. Finer chunks let more of the crawl be
/// timed at a quiet moment of the host (see `harness::best_wall_s`).
pub const CHUNK_STEPS: usize = 16;

/// What the step-driven loop reports besides the session outcome.
pub struct Stepped {
    pub outcome: CrawlOutcome,
    pub wall_s: f64,
    /// Wall seconds of each run of [`CHUNK_STEPS`] steps (the first also
    /// covers opening the session, the last closing it).
    pub chunk_s: Vec<f64>,
    pub step_ns: Vec<u64>,
    /// Per-gauge peaks over every step.
    pub peak: MemGauges,
    /// Largest in-memory (unspilled) frontier seen after any step.
    pub in_mem_frontier_peak: usize,
    pub counts: Option<EventCounts>,
}

/// Drives one session step by step, timing each `step()` call. Traced
/// runs wrap the transport and strategy, open a `core.session.step` span
/// per step, and after each step re-extract the links of the HTML the
/// server just served.
pub fn drive_stepped(
    served: &Served,
    root: &str,
    strategy: Box<dyn Strategy>,
    cfg: &CrawlConfig,
    mode: &Mode,
) -> Stepped {
    let tracer = mode.tracer();
    let pipelined =
        PipelinedTransport::new(served.server.as_ref(), cfg.policy.clone(), cfg.politeness)
            .with_window(cfg.max_in_flight.max(1));
    let transport: Box<dyn Transport + '_> = match tracer {
        Some(t) => Box::new(TracedTransport::new(Box::new(pipelined), Arc::clone(t))),
        None => Box::new(pipelined),
    };
    let mut strategy: Box<dyn Strategy> = match tracer {
        Some(t) => Box::new(TracedStrategy::new(strategy, Arc::clone(t))),
        None => strategy,
    };
    let needs = strategy.link_needs();
    let mut counts = match mode {
        Mode::Checked => Some(EventCounts::keeping_urls()),
        Mode::Traced(_) => Some(EventCounts::default()),
        Mode::Timed => None,
    };

    let mut step_ns = Vec::new();
    let mut chunk_s = Vec::new();
    let mut peak = MemGauges::default();
    let mut in_mem_frontier_peak = 0usize;
    let started = Instant::now();
    let mut chunk_started = started;
    let outcome = {
        let session = CrawlSession::with_transport(transport, None, root, strategy.as_mut(), cfg)
            .expect("generated site roots are absolute URLs");
        let mut session = match counts.as_mut() {
            Some(c) => session.observe(c),
            None => session,
        };
        while !session.is_finished() {
            let t0 = Instant::now();
            let report = match tracer {
                Some(t) => {
                    let _span = t.span("core.session.step");
                    session.step()
                }
                None => session.step(),
            };
            let now = Instant::now();
            step_ns.push((now - t0).as_nanos() as u64);
            if step_ns.len().is_multiple_of(CHUNK_STEPS) {
                chunk_s.push((now - chunk_started).as_secs_f64());
                chunk_started = now;
            }
            let m = report.mem;
            peak.visited_urls = peak.visited_urls.max(m.visited_urls);
            peak.visited_bytes = peak.visited_bytes.max(m.visited_bytes);
            peak.visited_collisions = peak.visited_collisions.max(m.visited_collisions);
            peak.frontier_len = peak.frontier_len.max(m.frontier_len);
            peak.frontier_spilled = peak.frontier_spilled.max(m.frontier_spilled);
            in_mem_frontier_peak = in_mem_frontier_peak.max(m.frontier_len - m.frontier_spilled);
            if let (Some(t), Some(ts)) = (tracer, &served.traced) {
                extract_links(t, &ts.take_html_bodies(), needs);
            }
        }
        session.finish()
    };
    let ended = Instant::now();
    chunk_s.push((ended - chunk_started).as_secs_f64());
    let wall_s = (ended - started).as_secs_f64();
    drop(strategy);
    Stepped {
        outcome,
        wall_s,
        chunk_s,
        step_ns,
        peak,
        in_mem_frontier_peak,
        counts,
    }
}

/// The deterministic summary of one crawl.
pub fn crawl_det(o: &CrawlOutcome, with_makespan: bool) -> Det {
    Det {
        requests: o.traffic.requests(),
        gets: o.traffic.get_requests,
        targets: o.targets_found(),
        abandoned: abandon_array(&o.abandoned),
        sim_makespan_bits: with_makespan.then(|| o.traffic.elapsed_secs.to_bits()),
        extra: Vec::new(),
    }
}

/// Per-layer metrics every traced workload derives from its spans and
/// counters.
pub fn layer_values(t: &Tracer) -> BTreeMap<&'static str, f64> {
    let s = t.summary();
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut v = BTreeMap::new();
    let get = s.get("httpsim.server.get");
    let head = s.get("httpsim.server.head");
    v.insert("httpsim.server.get.calls", get.calls as f64);
    v.insert("httpsim.server.get.busy_s", secs(get.busy_ns));
    v.insert("httpsim.server.head.calls", head.calls as f64);
    v.insert("httpsim.server.head.busy_s", secs(head.busy_ns));
    let transport = s.prefixed("httpsim.transport.");
    v.insert("httpsim.transport.busy_s", secs(transport.busy_ns));
    v.insert("httpsim.transport.self_s", secs(transport.self_ns));
    v.insert(
        "httpsim.transport.poll.calls",
        s.get("httpsim.transport.poll").calls as f64,
    );
    let submits = t.counter("httpsim.transport.submits");
    if submits > 0.0 {
        v.insert(
            "httpsim.transport.in_flight_mean",
            t.counter("httpsim.transport.in_flight_sum") / submits,
        );
    }
    v.insert(
        "httpsim.transport.retries",
        t.counter("httpsim.transport.retries"),
    );
    let render = s.get("webgraph.render");
    v.insert("webgraph.render.calls", render.calls as f64);
    v.insert("webgraph.render.busy_s", secs(render.busy_ns));

    let extract = s.get("html.extract");
    v.insert("html.extract.busy_s", secs(extract.busy_ns));
    v.insert("html.extract.pages", t.counter("html.extract.pages"));
    v.insert("html.extract.links", t.counter("html.extract.links"));
    let step = s.get("core.session.step");
    v.insert("core.session.step.busy_s", secs(step.busy_ns));
    v.insert("core.session.self_s", secs(step.self_ns));
    if step.calls > 0 {
        v.insert(
            "core.session.unattributed_s",
            secs(step.self_ns) - secs(extract.busy_ns),
        );
    }

    let select = s.get("core.strategy.select");
    let decide = s.get("core.strategy.decide");
    let feedback = s.get("core.strategy.feedback");
    let selections = t.counter("core.strategy.selections");
    v.insert("core.strategy.select.calls", select.calls as f64);
    v.insert("core.strategy.select.busy_s", secs(select.busy_ns));
    if select.calls > 0 {
        v.insert(
            "core.strategy.select.mean_k",
            selections / select.calls as f64,
        );
    }
    v.insert("core.strategy.decide.calls", decide.calls as f64);
    v.insert("core.strategy.decide.busy_s", secs(decide.busy_ns));
    v.insert("core.strategy.feedback.busy_s", secs(feedback.busy_ns));
    v.insert(
        "core.strategy.frontier_peak",
        t.counter("core.strategy.frontier_peak"),
    );

    for (scorer, name) in [
        ("value.scorer.depth", "value.scorer.depth.busy_s"),
        ("value.scorer.classifier", "value.scorer.classifier.busy_s"),
        ("value.scorer.neardup", "value.scorer.neardup.busy_s"),
        ("value.scorer.bandit", "value.scorer.bandit.busy_s"),
    ] {
        v.insert(name, secs(s.get(scorer).busy_ns));
    }
    let instances = t.counter("value.scorer.instances");
    let strategies = t.counter("core.strategy.instances");
    if instances > 0.0 && selections > 0.0 && strategies > 0.0 {
        let per_scorer = t.counter("value.scorer.score_calls") / (instances / strategies);
        v.insert("value.scorer.calls_per_selection", per_scorer / selections);
    }

    let policy = s.get("revisit.policy");
    v.insert("revisit.policy.calls", policy.calls as f64);
    v.insert("revisit.policy.busy_s", secs(policy.busy_ns));
    v
}

/// Event counts as per-layer metrics.
pub fn event_values(counts: &EventCounts, v: &mut BTreeMap<&'static str, f64>) {
    for (i, bucket) in ABANDON_BUCKETS.iter().enumerate() {
        v.insert(abandon_metric(bucket), counts.abandoned[i] as f64);
    }
    v.insert("events.batch_selected", counts.batch_selected as f64);
}

/// Abandon counts from an outcome, for drivers that cannot attach an
/// observer (the fleet and the serve loop build their sessions inside).
pub fn abandon_values(a: &AbandonCounts, v: &mut BTreeMap<&'static str, f64>) {
    for (i, n) in abandon_array(a).iter().enumerate() {
        v.insert(abandon_metric(ABANDON_BUCKETS[i]), *n as f64);
    }
}

fn abandon_metric(bucket: &str) -> &'static str {
    match bucket {
        "http_error" => "events.abandoned.http_error",
        "timeout" => "events.abandoned.timeout",
        "retries_exhausted" => "events.abandoned.retries_exhausted",
        "quarantined" => "events.abandoned.quarantined",
        "redirect" => "events.abandoned.redirect",
        "session_closed" => "events.abandoned.session_closed",
        _ => "events.abandoned.other",
    }
}

/// Memory gauges as per-layer metrics.
pub fn mem_values(peak: &MemGauges, v: &mut BTreeMap<&'static str, f64>) {
    v.insert("scale.visited.bytes_peak", peak.visited_bytes as f64);
    v.insert("scale.visited.collisions", peak.visited_collisions as f64);
    v.insert("scale.frontier.spilled_peak", peak.frontier_spilled as f64);
}
