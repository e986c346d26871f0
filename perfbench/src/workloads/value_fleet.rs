//! `value_fleet`: sixteen small fleets of demo sites, each site crawled
//! by `ValueStrategy` with `xp quality`'s scorer mix at batch = window
//! 16, each fleet through `FleetMode::Sharded { shards: 2,
//! max_in_flight: 16 }`.
//!
//! The only workload on the batch-refill path, the shared pool at
//! window > 1 and the two-thread sharded driver. Whole-frontier ranking
//! dominates it.

use super::{abandon_values, derive_seed, layer_values, mem_values, transport_failures, Served};
use crate::harness::{extract_links, Det, Mode, Rep, Workload};
use crate::trace::Tracer;
use crate::wrap::{TracedScorer, TracedStrategy};
use sb_crawler::strategies::{
    BanditScorer, ClassifierScorer, DepthPriorScorer, NearDupScorer, Scorer, ValueStrategy,
};
use sb_crawler::{AbandonCounts, Budget, CrawlConfig, Fleet, FleetJob, MemGauges, Strategy};
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec};
use sb_webgraph::Website;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Fleets crawled one after another in each repetition; their sites
/// are independent inputs, so more fleets average out how much VALUE's
/// yield varies from one generated site to the next.
pub const FLEETS: usize = 16;
/// Sites per fleet: two per shard.
pub const SITES_PER_FLEET: usize = 4;
pub const PAGES: usize = 1_000;
/// GETs per site: one per ten pages.
pub const BUDGET: u64 = 100;
pub const SHARDS: usize = 2;
pub const WINDOW: usize = 16;

pub struct ValueFleet;

pub struct Inputs {
    /// `FLEETS` fleets of `SITES_PER_FLEET` sites.
    fleets: Vec<Vec<Arc<Website>>>,
}

/// `xp quality`'s `RATING_METHODS` ("depth:1.0,classifier:2.0,
/// neardup:0.5,bandit:1.0"), built as explicit scorers so each one can be
/// wrapped.
fn scorers(tracer: Option<&Arc<Tracer>>) -> Vec<(Box<dyn Scorer>, f64)> {
    let mix: Vec<(Box<dyn Scorer>, f64)> = vec![
        (Box::new(DepthPriorScorer), 1.0),
        (Box::new(ClassifierScorer::paper_default()), 2.0),
        (Box::new(NearDupScorer::new()), 0.5),
        (Box::new(BanditScorer::new()), 1.0),
    ];
    match tracer {
        None => mix,
        Some(t) => mix
            .into_iter()
            .map(|(s, w)| {
                (
                    Box::new(TracedScorer::new(s, Arc::clone(t))) as Box<dyn Scorer>,
                    w,
                )
            })
            .collect(),
    }
}

impl Workload for ValueFleet {
    type Inputs = Inputs;
    const NAME: &'static str = "value_fleet";

    fn setup(seed: u64) -> Inputs {
        let fleets = (0..FLEETS)
            .map(|f| {
                (0..SITES_PER_FLEET)
                    .map(|i| {
                        let stream = 1_000 + (f * SITES_PER_FLEET + i) as u64;
                        Arc::new(build_site(
                            &SiteSpec::demo(PAGES),
                            derive_seed(seed, stream),
                        ))
                    })
                    .collect()
            })
            .collect();
        Inputs { fleets }
    }

    fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
        vec![
            ("fleets", inputs.fleets.len().to_string()),
            ("sites_per_fleet", SITES_PER_FLEET.to_string()),
            ("pages_per_site", PAGES.to_string()),
            ("budget_per_site", BUDGET.to_string()),
            (
                "mode",
                format!("Sharded {{ shards: {SHARDS}, max_in_flight: {WINDOW} }}"),
            ),
            (
                "strategy",
                "ValueStrategy depth:1.0,classifier:2.0,neardup:0.5,bandit:1.0".to_owned(),
            ),
        ]
    }

    fn run(inputs: &Inputs, seed: u64, mode: &Mode) -> Rep {
        let tracer = mode.tracer();
        let mut wall_s = 0.0;
        let mut chunk_s = Vec::new();
        let mut failures = Vec::new();
        let mut det = Det {
            requests: 0,
            gets: 0,
            targets: 0,
            abandoned: [0; 7],
            // Which shard's clock a site joins can depend on steal timing,
            // so the makespan is left out.
            sim_makespan_bits: None,
            extra: Vec::new(),
        };
        let mut abandoned = AbandonCounts::default();
        let mut mem = MemGauges::default();
        let mut stolen = 0u64;
        let mut traced_servers = Vec::new();
        for (f, sites) in inputs.fleets.iter().enumerate() {
            // Sites are placed round-robin over the shards, so no shard
            // starts empty. Under the default hash placement a shard can
            // start empty and race the other for half its backlog; which
            // side wins is wall-clock timing, and since VALUE's batch size
            // depends on which sites share a pool window, per-site results
            // would then change from run to run at one seed (see README.md).
            let placement = (0..sites.len()).map(|i| i % SHARDS).collect();
            let mut fleet = Fleet::new(SHARDS)
                .sharded(SHARDS, WINDOW)
                .shard_assignment(placement);
            for (i, site) in sites.iter().enumerate() {
                let Served { server, traced } =
                    Served::new(Arc::clone(site) as Arc<dyn SiteSource>, tracer);
                traced_servers.extend(traced);
                let cfg = CrawlConfig::builder()
                    .budget(Budget::Requests(BUDGET))
                    .rng_seed(derive_seed(seed, 2_000 + (f * SITES_PER_FLEET + i) as u64))
                    .max_in_flight(WINDOW)
                    .build()
                    .expect("benchmark crawl config is valid");
                let t = tracer.cloned();
                let job = FleetJob::new(
                    format!("site{i}"),
                    server,
                    site.url(site.root()),
                    move || {
                        let value: Box<dyn Strategy> =
                            Box::new(ValueStrategy::new(scorers(t.as_ref())));
                        match t {
                            Some(t) => Box::new(TracedStrategy::new(value, t)),
                            None => value,
                        }
                    },
                )
                .config(cfg);
                fleet.push(job);
            }

            let started = Instant::now();
            let out = fleet.run();
            let fleet_s = started.elapsed().as_secs_f64();
            wall_s += fleet_s;
            chunk_s.push(fleet_s);

            let limit = BUDGET + WINDOW as u64;
            for report in &out.sites {
                match &report.outcome {
                    Ok(o) => {
                        if o.traffic.requests() > limit {
                            failures.push(format!(
                                "fleet {f} {}: {} requests exceed budget + window = {limit}",
                                report.name,
                                o.traffic.requests()
                            ));
                        }
                        det.extra.extend([o.traffic.requests(), o.targets_found()]);
                    }
                    Err(e) => failures.push(format!(
                        "fleet {f} {}: session failed to start: {e}",
                        report.name
                    )),
                }
            }
            det.requests += out.traffic.requests();
            det.gets += out.traffic.get_requests;
            det.targets += out.targets;
            abandoned.merge(&out.abandoned);
            mem.visited_bytes = mem.visited_bytes.max(out.mem.visited_bytes);
            mem.visited_collisions += out.mem.visited_collisions;
            mem.frontier_spilled = mem.frontier_spilled.max(out.mem.frontier_spilled);
            stolen += out.stolen_sites();
        }
        det.abandoned = super::abandon_array(&abandoned);

        let mut values = BTreeMap::new();
        if let Some(t) = tracer {
            let needs = ValueStrategy::new(scorers(None)).link_needs();
            for ts in &traced_servers {
                extract_links(t, &ts.take_html_bodies(), needs);
            }
            values = layer_values(t);
            abandon_values(&abandoned, &mut values);
            mem_values(&mem, &mut values);
            values.insert(
                "events.batch_selected",
                t.counter("core.strategy.batch_calls"),
            );
            values.insert("fleet.stolen_sites", stolen as f64);
            let strategy_s: f64 = [
                "core.strategy.select.busy_s",
                "core.strategy.decide.busy_s",
                "core.strategy.feedback.busy_s",
            ]
            .iter()
            .map(|k| values.get(k).copied().unwrap_or(0.0))
            .sum();
            values.insert(
                "fleet.strategy_share",
                strategy_s / (wall_s * SHARDS as f64),
            );
        }

        Rep {
            wall_s,
            chunk_s,
            attempted: det.gets,
            failed: transport_failures(&abandoned),
            det,
            step_ns: Vec::new(),
            failures,
            values,
        }
    }
}
