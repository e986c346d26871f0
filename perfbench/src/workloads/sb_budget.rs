//! `sb_budget`: the paper's SB-CLASSIFIER at window 1 on demo sites, with
//! a request budget of one GET per five pages on each.
//!
//! The strategy layer dominates here — online classifier training, the
//! sleeping bandit, tag-path features and the HEAD bootstrap — so this is
//! where strategy-side changes show. Quality is deterministic at a seed.

use super::{
    crawl_det, derive_seed, drive_stepped, event_values, layer_values, mem_values,
    transport_failures, Served,
};
use crate::harness::{Det, Mode, Rep, Workload};
use crate::wrap::EventCounts;
use sb_crawler::strategies::SbStrategy;
use sb_crawler::{Budget, CrawlConfig, MemGauges};
use sb_webgraph::gen::{build_site, SiteSource, SiteSpec};
use sb_webgraph::Website;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sites crawled one after another in a repetition.
pub const SITES: usize = 4;
/// Pages of each generated site.
pub const PAGES: usize = 5_000;
/// Pages per GET of budget.
pub const PAGES_PER_GET: usize = 5;
pub const WINDOW: usize = 1;

pub struct SbBudget;

pub struct Inputs {
    /// Each site with its root URL.
    sites: Vec<(Arc<Website>, String)>,
}

/// Request budget of each site's crawl.
pub fn budget() -> u64 {
    (PAGES / PAGES_PER_GET) as u64
}

impl Workload for SbBudget {
    type Inputs = Inputs;
    const NAME: &'static str = "sb_budget";

    fn setup(seed: u64) -> Inputs {
        let sites = (0..SITES)
            .map(|i| {
                let site = Arc::new(build_site(
                    &SiteSpec::demo(PAGES),
                    derive_seed(seed, 100 + i as u64),
                ));
                let root = site.url(site.root()).to_owned();
                (site, root)
            })
            .collect();
        Inputs { sites }
    }

    fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
        let pages: Vec<String> = inputs
            .sites
            .iter()
            .map(|(site, _)| site.n_pages().to_string())
            .collect();
        vec![
            ("site", "SiteSpec::demo eager".to_owned()),
            ("sites", SITES.to_string()),
            ("pages", pages.join(",")),
            ("budget_requests_per_site", budget().to_string()),
            ("window", WINDOW.to_string()),
            ("strategy", "SB-CLASSIFIER (paper defaults)".to_owned()),
        ]
    }

    fn run(inputs: &Inputs, seed: u64, mode: &Mode) -> Rep {
        let mut rep = Rep {
            wall_s: 0.0,
            chunk_s: Vec::new(),
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
        };
        // Sites are crawled one after another, so the simulated makespan
        // of the repetition is the sum of the sites'.
        let mut makespan = 0.0;
        let mut counts = EventCounts::default();
        let mut peak = MemGauges::default();
        for (i, (site, root)) in inputs.sites.iter().enumerate() {
            let cfg = CrawlConfig::builder()
                .budget(Budget::Requests(budget()))
                .rng_seed(derive_seed(seed, 200 + i as u64))
                .max_in_flight(WINDOW)
                .build()
                .expect("benchmark crawl config is valid");
            let served = Served::new(Arc::clone(site) as Arc<dyn SiteSource>, mode.tracer());
            let run = drive_stepped(
                &served,
                root,
                Box::new(SbStrategy::classifier_default()),
                &cfg,
                mode,
            );
            let o = &run.outcome;

            let limit = budget() + WINDOW as u64;
            if o.traffic.requests() > limit {
                rep.failures.push(format!(
                    "site {i}: {} requests exceed budget + window = {limit}",
                    o.traffic.requests()
                ));
            }
            let d = crawl_det(o, false);
            rep.det.requests += d.requests;
            rep.det.gets += d.gets;
            rep.det.targets += d.targets;
            for (total, n) in rep.det.abandoned.iter_mut().zip(d.abandoned) {
                *total += n;
            }
            rep.det.extra.extend([d.requests, d.targets]);
            makespan += o.traffic.elapsed_secs;
            rep.wall_s += run.wall_s;
            rep.chunk_s.extend(run.chunk_s);
            rep.step_ns.extend(run.step_ns);
            rep.attempted += o.traffic.get_requests;
            rep.failed += transport_failures(&o.abandoned);
            if let Some(c) = &run.counts {
                for (total, n) in counts.abandoned.iter_mut().zip(c.abandoned) {
                    *total += n;
                }
                counts.batch_selected += c.batch_selected;
            }
            peak.visited_bytes = peak.visited_bytes.max(run.peak.visited_bytes);
            peak.visited_collisions += run.peak.visited_collisions;
            peak.frontier_spilled = peak.frontier_spilled.max(run.peak.frontier_spilled);
        }
        rep.det.sim_makespan_bits = Some(makespan.to_bits());

        if let Mode::Traced(t) = mode {
            rep.values = layer_values(t);
            event_values(&counts, &mut rep.values);
            mem_values(&peak, &mut rep.values);
        } else {
            rep.values
                .insert("httpsim.transport.sim_makespan_s", makespan);
        }
        rep
    }
}
