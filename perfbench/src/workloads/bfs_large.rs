//! `bfs_large`: one BFS session at window 1 exhausting a large streaming
//! site under the memory-bounded configuration of `xp scale` — spilling
//! frontier, fingerprint-compacted visited set, bounded render cache.
//!
//! Fetch, render, link extraction and admission do almost all the work
//! here and the strategy is nearly free, so a strategy-side change should
//! show no effect on this workload. It is the only workload that
//! stresses `sb-scale` and peak memory.

use super::{
    crawl_det, derive_seed, drive_stepped, event_values, layer_values, mem_values,
    transport_failures, Served,
};
use crate::harness::{Mode, Rep, Workload};
use sb_crawler::strategies::QueueStrategy;
use sb_crawler::CrawlConfig;
use sb_scale::{stream_site, SpillBacking, StreamingSite};
use sb_webgraph::gen::{PageKind, SiteSource, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::url::Url;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pages of the generated site.
pub const PAGES: usize = 30_000;
/// In-memory frontier cap (ids past it spill), as in `xp scale`.
pub const FRONTIER_CAP: usize = 1024;
/// Visited-set compaction threshold, as in `xp scale`.
pub const VISITED_THRESHOLD: usize = 4096;

pub struct BfsLarge;

pub struct Inputs {
    site: Arc<StreamingSite>,
    root: String,
}

impl Workload for BfsLarge {
    type Inputs = Inputs;
    const NAME: &'static str = "bfs_large";

    fn setup(seed: u64) -> Inputs {
        let site = Arc::new(stream_site(&SiteSpec::demo(PAGES), derive_seed(seed, 1)));
        let root = site.url(site.root()).to_owned();
        Inputs { site, root }
    }

    fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
        vec![
            ("site", "SiteSpec::demo streaming".to_owned()),
            ("pages", inputs.site.n_pages().to_string()),
            ("window", "1".to_owned()),
            ("frontier_cap", FRONTIER_CAP.to_string()),
            ("visited_threshold", VISITED_THRESHOLD.to_string()),
        ]
    }

    fn run(inputs: &Inputs, _seed: u64, mode: &Mode) -> Rep {
        let cfg = CrawlConfig {
            compact_visited_threshold: VISITED_THRESHOLD,
            ..Default::default()
        };
        let served = Served::new(
            Arc::clone(&inputs.site) as Arc<dyn SiteSource>,
            mode.tracer(),
        );
        let strategy = Box::new(QueueStrategy::bfs_spilling(
            FRONTIER_CAP,
            SpillBacking::Memory,
        ));
        let run = drive_stepped(&served, &inputs.root, strategy, &cfg, mode);
        let o = &run.outcome;

        let mut failures = Vec::new();
        // The spill queue keeps its cap to within one chunk (cap / 4).
        let cap = FRONTIER_CAP + FRONTIER_CAP / 4;
        if run.in_mem_frontier_peak > cap {
            failures.push(format!(
                "in-memory frontier reached {} > cap {cap}",
                run.in_mem_frontier_peak
            ));
        }
        if run.peak.visited_collisions != 0 {
            failures.push(format!(
                "{} visited-set fingerprint collisions",
                run.peak.visited_collisions
            ));
        }
        if let Some(fetched) = run.counts.as_ref().and_then(|c| c.urls.as_ref()) {
            let expected = reachable_urls(inputs.site.as_ref(), &cfg.policy);
            let missing = expected.iter().filter(|u| !fetched.contains(*u)).count();
            let extra = fetched.iter().filter(|u| !expected.contains(*u)).count();
            if missing != 0 || extra != 0 {
                failures.push(format!(
                    "BFS did not fetch exactly the reachable pages: {missing} of {} missing, {extra} unexpected",
                    expected.len()
                ));
            }
        }

        let mut values = BTreeMap::new();
        if let Mode::Traced(t) = mode {
            values = layer_values(t);
            if let Some(c) = &run.counts {
                event_values(c, &mut values);
            }
            mem_values(&run.peak, &mut values);
        } else {
            values.insert("httpsim.transport.sim_makespan_s", o.traffic.elapsed_secs);
        }
        Rep {
            wall_s: run.wall_s,
            chunk_s: run.chunk_s,
            det: crawl_det(o, true),
            attempted: o.traffic.get_requests,
            failed: transport_failures(&o.abandoned),
            step_ns: run.step_ns,
            failures,
            values,
        }
    }
}

/// Canonical URLs of every page a crawl of `site` can reach from the
/// root: links are followed through HTML pages and redirects, and URLs
/// the MIME policy blocks by extension are never requested.
pub fn reachable_urls(
    site: &dyn SiteSource,
    policy: &MimePolicy,
) -> sb_webgraph::FxHashSet<String> {
    let n = site.n_pages();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut out = sb_webgraph::FxHashSet::default();
    let admit = |id: u32, seen: &mut Vec<bool>, queue: &mut std::collections::VecDeque<u32>| {
        if seen[id as usize] {
            return;
        }
        seen[id as usize] = true;
        let blocked = Url::parse(site.url(id))
            .map(|u| policy.has_blocked_extension(&u))
            .unwrap_or(true);
        if !blocked {
            queue.push_back(id);
        }
    };
    admit(site.root(), &mut seen, &mut queue);
    while let Some(id) = queue.pop_front() {
        out.insert(site.url(id).to_owned());
        match *site.kind(id) {
            PageKind::Redirect { to } => admit(to, &mut seen, &mut queue),
            PageKind::Html(_) => {
                for link in site.out_links(id) {
                    admit(link.to, &mut seen, &mut queue);
                }
            }
            _ => {}
        }
    }
    out
}
