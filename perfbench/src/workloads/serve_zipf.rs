//! `serve_zipf`: `serve_site` on an evolved `cl` site at `--scale 0.1`
//! size, window 4, with one Zipf(1.1) reader thread against the one
//! refreshing session over six origin epochs.
//!
//! The only workload on `sb-serve` — the `ArcCell`/`SnapshotStore` read
//! path and copy-on-write commits — `plan_epoch` and the revisit
//! policies. Its crawl side is light BFS.

use super::{abandon_values, derive_seed, layer_values, mem_values};
use crate::harness::{percentile, Det, Mode, Rep, Workload};
use crate::wrap::TracedPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::Budget;
use sb_revisit::{fnv64, ChangeModel, EvolvingSite, RevisitPolicy, ThompsonGroupsRevisit};
use sb_serve::{serve_site, ReadLoadConfig, ServeConfig, SnapshotStore, Zipf};
use sb_webgraph::gen::{build_site, profile};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const SITE: &str = "cl";
pub const SCALE: f64 = 0.1;
pub const EPOCHS: usize = 6;
pub const WINDOW: usize = 4;
pub const READERS: usize = 1;
/// Reads the reader issues per refresh epoch.
pub const READS_PER_EPOCH: usize = 50_000;
pub const ZIPF_S: f64 = 1.1;
/// Store reads and commits timed after the run (traced runs only).
const STORE_READ_SAMPLES: usize = 20_000;
const STORE_COMMIT_SAMPLES: usize = 200;

pub struct ServeZipf;

pub struct Inputs {
    site: EvolvingSite,
}

impl Inputs {
    fn corpus(&self) -> usize {
        self.site.snapshot(0).len()
    }
}

impl Workload for ServeZipf {
    type Inputs = Inputs;
    const NAME: &'static str = "serve_zipf";

    fn setup(seed: u64) -> Inputs {
        let spec = profile(SITE).expect("the cl profile exists").scaled(SCALE);
        let base = build_site(&spec, derive_seed(seed, 4));
        let model = ChangeModel {
            epochs: EPOCHS,
            ..ChangeModel::default()
        };
        Inputs {
            site: EvolvingSite::evolve(base, &model, derive_seed(seed, 5)),
        }
    }

    fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
        vec![
            ("site", format!("{SITE} profile at scale {SCALE}, evolved")),
            ("pages_epoch0", inputs.corpus().to_string()),
            ("epochs", inputs.site.epochs().to_string()),
            (
                "refresh_per_epoch",
                refresh_per_epoch(inputs.corpus()).to_string(),
            ),
            ("window", WINDOW.to_string()),
            ("readers", READERS.to_string()),
            ("reads_per_epoch", READS_PER_EPOCH.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("policy", "thompson-groups".to_owned()),
        ]
    }

    fn run(inputs: &Inputs, seed: u64, mode: &Mode) -> Rep {
        let corpus = inputs.corpus();
        let cfg = ServeConfig {
            change: ChangeModel {
                epochs: EPOCHS,
                ..ChangeModel::default()
            },
            seed: derive_seed(seed, 6),
            window: WINDOW,
            discovery_requests: corpus as u64 * 2,
            refresh_per_epoch: refresh_per_epoch(corpus),
            retain: 1,
            budget: Budget::Unlimited,
            read: Some(ReadLoadConfig {
                readers: READERS,
                reads_per_reader: READS_PER_EPOCH,
                zipf_s: ZIPF_S,
                seed: derive_seed(seed, 7),
            }),
        };
        let inner: Box<dyn RevisitPolicy> = Box::new(ThompsonGroupsRevisit::default());
        let mut policy: Box<dyn RevisitPolicy> = match mode.tracer() {
            Some(t) => Box::new(TracedPolicy::new(inner, Arc::clone(t))),
            None => inner,
        };

        let started = Instant::now();
        let out = serve_site(&inputs.site, policy.as_mut(), &cfg);
        let wall_s = started.elapsed().as_secs_f64();
        drop(policy);

        let o = &out.outcome;
        let r = o.refresh;
        let read = &out.read;
        let age_p50 = read.age_percentile(0.5);
        let mut failures = Vec::new();
        if read.misses != 0 {
            failures.push(format!(
                "{} of {} reads missed the store",
                read.misses, read.reads
            ));
        }
        if age_p50 > 2.0 {
            failures.push(format!(
                "freshness SLA violated: median age-at-read {age_p50} epochs > 2"
            ));
        }
        if read.reads != (READERS * READS_PER_EPOCH * (EPOCHS - 1)) as u64 {
            failures.push(format!(
                "{} reads issued, expected one phase per refresh epoch",
                read.reads
            ));
        }

        let mut values = BTreeMap::new();
        match mode.tracer() {
            Some(t) => {
                values = layer_values(t);
                abandon_values(&o.abandoned, &mut values);
                mem_values(&o.mem, &mut values);
                values.insert(
                    "serve.refresh.changed_ratio",
                    r.changed as f64 / r.completed.max(1) as f64,
                );
                values.insert("serve.refresh.failed", r.failed as f64);
                let (read_p50, read_p99, commit_p50) = time_store(&out.store, derive_seed(seed, 8));
                values.insert("serve.store.read_ns_p50", read_p50);
                values.insert("serve.store.read_ns_p99", read_p99);
                values.insert("serve.store.commit_ns_p50", commit_p50);
            }
            None => {
                values.insert("serve.read.qps", read.qps);
                let fresh = read.ages.first().copied().unwrap_or(0);
                values.insert(
                    "serve.read.fresh_ratio",
                    fresh as f64 / read.reads.max(1) as f64,
                );
                values.insert("httpsim.transport.sim_makespan_s", o.traffic.elapsed_secs);
            }
        }

        let schedule_hash = fnv64(out.schedule.join("\n").as_bytes());
        Rep {
            wall_s,
            // serve_site runs every epoch in one call: one chunk.
            chunk_s: vec![wall_s],
            det: Det {
                requests: o.traffic.requests(),
                gets: o.traffic.get_requests,
                targets: o.targets_found(),
                abandoned: super::abandon_array(&o.abandoned),
                sim_makespan_bits: Some(o.traffic.elapsed_secs.to_bits()),
                extra: vec![
                    r.scheduled,
                    r.completed,
                    r.changed,
                    r.failed,
                    out.store.len() as u64,
                    schedule_hash,
                ],
            },
            attempted: r.attempted() + read.reads,
            failed: read.misses,
            step_ns: Vec::new(),
            failures,
            values,
        }
    }
}

fn refresh_per_epoch(corpus: usize) -> usize {
    ((corpus as f64) * 0.12).round().max(8.0) as usize
}

/// Times single `SnapshotStore::read` calls (Zipf-sampled URLs) and
/// `SnapshotStore::commit` calls (re-committing a URL's current version)
/// on the store a run left behind. Returns (read p50, read p99, commit
/// p50) in nanoseconds, timer overhead included.
fn time_store(store: &SnapshotStore, seed: u64) -> (f64, f64, f64) {
    let urls = store.urls();
    if urls.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let zipf = Zipf::new(urls.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reads = Vec::with_capacity(STORE_READ_SAMPLES);
    for _ in 0..STORE_READ_SAMPLES {
        let url = &urls[zipf.sample(&mut rng)];
        let t0 = Instant::now();
        let v = std::hint::black_box(store.read(url));
        reads.push(t0.elapsed().as_nanos() as u64);
        drop(v);
    }
    let mut commits = Vec::with_capacity(STORE_COMMIT_SAMPLES);
    for i in 0..STORE_COMMIT_SAMPLES {
        let url = &urls[i % urls.len()];
        let Some(v) = store.peek(url) else { continue };
        let t0 = Instant::now();
        std::hint::black_box(store.commit(url, v.status, v.body.clone(), v.body_hash));
        commits.push(t0.elapsed().as_nanos() as u64);
    }
    reads.sort_unstable();
    commits.sort_unstable();
    (
        percentile(&reads, 0.5) as f64,
        percentile(&reads, 0.99) as f64,
        percentile(&commits, 0.5) as f64,
    )
}
