//! Metric names, units and directions — the single list `BENCHMARK.json`
//! mirrors (pinned by `tests/manifest.rs`).

/// One reported metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", "lower"),
    m("pages_per_s", "1/s", "higher"),
    m("targets_per_get", "targets/GET", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Printed by every traced run (`--trace 1`), on every workload; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 60] = [
    // HTTP simulation and site rendering.
    m("httpsim.server.get.calls", "count", "lower"),
    m("httpsim.server.get.busy_s", "s", "lower"),
    m("httpsim.server.head.calls", "count", "lower"),
    m("httpsim.server.head.busy_s", "s", "lower"),
    m("httpsim.transport.busy_s", "s", "lower"),
    m("httpsim.transport.self_s", "s", "lower"),
    m("httpsim.transport.poll.calls", "count", "lower"),
    m("httpsim.transport.in_flight_mean", "requests", "higher"),
    m("httpsim.transport.retries", "count", "lower"),
    m("httpsim.transport.sim_makespan_s", "sim-s", "lower"),
    m("webgraph.render.calls", "count", "lower"),
    m("webgraph.render.busy_s", "s", "lower"),
    // HTML parsing and session bookkeeping.
    m("html.extract.busy_s", "s", "lower"),
    m("html.extract.pages", "count", "lower"),
    m("html.extract.links", "count", "lower"),
    m("core.session.step.busy_s", "s", "lower"),
    m("core.session.step.p50_us", "us", "lower"),
    m("core.session.step.p99_us", "us", "lower"),
    m("core.session.step.samples", "count", "higher"),
    m("core.session.self_s", "s", "lower"),
    m("core.session.unattributed_s", "s", "lower"),
    // Strategy calls.
    m("core.strategy.select.calls", "count", "lower"),
    m("core.strategy.select.busy_s", "s", "lower"),
    m("core.strategy.select.mean_k", "selections", "higher"),
    m("core.strategy.decide.calls", "count", "lower"),
    m("core.strategy.decide.busy_s", "s", "lower"),
    m("core.strategy.feedback.busy_s", "s", "lower"),
    m("core.strategy.frontier_peak", "urls", "lower"),
    // VALUE scorers.
    m("value.scorer.depth.busy_s", "s", "lower"),
    m("value.scorer.classifier.busy_s", "s", "lower"),
    m("value.scorer.neardup.busy_s", "s", "lower"),
    m("value.scorer.bandit.busy_s", "s", "lower"),
    m("value.scorer.calls_per_selection", "calls", "lower"),
    // Memory gauges.
    m("scale.visited.bytes_peak", "bytes", "lower"),
    m("scale.visited.collisions", "count", "lower"),
    m("scale.frontier.spilled_peak", "urls", "lower"),
    // Fleet driver.
    m("fleet.stolen_sites", "count", "higher"),
    m("fleet.strategy_share", "ratio", "lower"),
    // Event counts.
    m("events.abandoned.http_error", "count", "lower"),
    m("events.abandoned.timeout", "count", "lower"),
    m("events.abandoned.retries_exhausted", "count", "lower"),
    m("events.abandoned.quarantined", "count", "lower"),
    m("events.abandoned.redirect", "count", "lower"),
    m("events.abandoned.session_closed", "count", "lower"),
    m("events.abandoned.other", "count", "lower"),
    m("events.batch_selected", "count", "lower"),
    // Serving.
    m("revisit.policy.calls", "count", "lower"),
    m("revisit.policy.busy_s", "s", "lower"),
    m("serve.refresh.changed_ratio", "ratio", "higher"),
    m("serve.refresh.failed", "count", "lower"),
    m("serve.store.read_ns_p50", "ns", "lower"),
    m("serve.store.read_ns_p99", "ns", "lower"),
    m("serve.store.commit_ns_p50", "ns", "lower"),
    m("serve.read.qps", "1/s", "higher"),
    m("serve.read.fresh_ratio", "ratio", "higher"),
    // Tracing overhead: the same workload with and without the wrappers.
    m("trace.untraced_pages_per_s", "1/s", "higher"),
    m("trace.traced_pages_per_s", "1/s", "higher"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.timed_reps", "count", "higher"),
];

/// The declaration of a per-layer or end-to-end metric.
pub fn find(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
}
