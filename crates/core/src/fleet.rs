//! Multi-site crawl scheduling: N independent [`CrawlSession`]s driven
//! concurrently on worker threads.
//!
//! The paper crawls one website at a time; production acquisition runs
//! thousands of per-site crawls side by side (BUbiNG-style massive
//! crawling). The session API makes that a scheduling problem rather than
//! an engine rewrite: a [`Fleet`] owns a set of [`FleetJob`]s (server +
//! root + strategy factory + config per site), deals them round-robin onto
//! worker threads, and each worker interleaves its sessions
//! **politeness-aware** — it always steps the session with the smallest
//! simulated elapsed time, so a site throttled by a long politeness delay
//! yields its worker to faster sites instead of blocking them, exactly as
//! a wall-clock scheduler would.
//!
//! Per-site results are **worker-count invariant**: sessions share nothing
//! (each has its own RNG, interner, transport and strategy), so the fleet
//! produces byte-identical per-site outcomes whether it runs on 1 worker
//! or 16 — the property the fleet determinism tests pin down. Scheduling
//! itself is deterministic too: equal simulated-elapsed times are broken
//! by submission (site) index, so the interleaving does not depend on
//! float coincidences or bucket layout.
//!
//! The fleet has three modes, all over the one transport backend — handles
//! of a [`SharedTransportPool`]. They differ only in how many sites share
//! a pool and how many threads drive the pools.
//!
//! In [`FleetMode::PerSite`] (the default) each site gets **its own
//! one-site pool** (a lone handle, `PipelinedTransport::new`), built once
//! on the worker from the job's config — the politeness gate and
//! in-flight window live for the site's whole crawl, and a job's
//! `max_in_flight` turns on intra-site pipelining inside its fleet slot.
//! Custom transports (retry policies, robots `Crawl-delay` gates) plug in
//! through [`CrawlSession::with_transport`].
//!
//! In [`FleetMode::SharedPool`] (PR 5) the fleet instead multiplexes
//! every session through **one**
//! [`SharedTransportPool`](sb_httpsim::SharedTransportPool): a single
//! global in-flight window shared across all sites, with politeness
//! sharded per host. The driver runs on one thread (the global window is
//! one serially-ordered resource; determinism requires a single ration
//! point) and alternates two moves:
//!
//! * **refill, least-elapsed-host first** — while the pool has a free
//!   slot, the unfinished session whose host has waited longest for a
//!   delivery ([`SharedTransportPool::site_elapsed`], ties by site index)
//!   is offered one submission ([`CrawlSession::refill_one`]), so no site
//!   starves and a politeness-stalled site lends its capacity onward;
//! * **drain, in pool completion order** — the site owning the globally
//!   next completion ([`SharedTransportPool::next_completion_site`]:
//!   ascending arrival, cross-site ties by site index) drains one batch
//!   ([`CrawlSession::drain_completions`]), so the shared clock advances
//!   in true arrival order.
//!
//! Per-site coverage is transport-invariant (pinned by the fleet tests:
//! shared-pool targets match per-site-transport targets site for site,
//! and at global window 1 the pool replays the sequential engine per site
//! exactly), while per-site `elapsed_secs` reads on the **shared clock**:
//! [`FleetOutcome::sim_makespan_secs`] is the pool's makespan, and
//! [`FleetOutcome::traffic`]'s `elapsed_secs` sum is not a serial-visit
//! estimate in this mode.
//!
//! In [`FleetMode::Sharded`] (PR 8) the fleet finally buys **real
//! wall-clock parallelism**: sites are hashed onto P shards, each shard
//! thread owns an independent `SharedTransportPool` (the backend is
//! `Send` since PR 8) and runs the same two-move schedule over its own
//! sites in **waves** of at most `max_in_flight` sites — a fuller wave
//! could never add in-flight concurrency, and the wave boundary is the
//! *safe* boundary for work stealing: when a shard's sites all drain
//! (frontiers exhausted or budgets spent, own backlog empty), it steals
//! whole pending sites — sites with no session and no in-flight requests —
//! from the most-loaded shard's backlog. Every site is still driven start
//! to finish by exactly one pool under the deterministic single-pool
//! schedule, so per-site results are **shard-count invariant** (and at
//! per-shard window 1, byte-identical to the shared pool minus the shared
//! clock — each site replays the sequential engine regardless of
//! tenancy). Steal timing is the one wall-clock-dependent input, and it
//! only decides *which shard's clock* a pending site later joins.
//!
//! Crawl-and-serve is not a fleet mode: `sb_serve::serve_site` refreshes a
//! live session's pages through [`CrawlSession::queue_refresh`], and a
//! session's refresh ledger stays on its own [`CrawlOutcome::refresh`].
//!
//! [`SharedTransportPool`]: sb_httpsim::SharedTransportPool

use crate::events::{AbandonCounts, FinishReason, MemGauges};
use crate::session::{ConfigError, CrawlConfig, CrawlOutcome, CrawlSession, Oracle};
use crate::strategy::Strategy;
use parking_lot::Mutex;
use sb_httpsim::{HttpServer, SharedTransportPool, Traffic};
use std::collections::VecDeque;
use std::sync::Arc;

/// Shareable server handle: fleets move jobs across threads.
pub type SharedServer = Arc<dyn HttpServer + Send + Sync>;

/// Shareable ground-truth oracle for oracle strategies.
pub type SharedOracle = Arc<dyn Oracle + Send + Sync>;

/// Builds the strategy on the worker thread that will drive the session —
/// strategies themselves never cross threads.
pub type StrategyFactory = Box<dyn FnOnce() -> Box<dyn Strategy> + Send>;

/// One site's crawl: everything a worker needs to build and drive a
/// session.
pub struct FleetJob {
    pub name: String,
    pub root: String,
    server: SharedServer,
    oracle: Option<SharedOracle>,
    strategy: StrategyFactory,
    cfg: CrawlConfig,
}

impl FleetJob {
    pub fn new(
        name: impl Into<String>,
        server: SharedServer,
        root: impl Into<String>,
        strategy: impl FnOnce() -> Box<dyn Strategy> + Send + 'static,
    ) -> Self {
        FleetJob {
            name: name.into(),
            root: root.into(),
            server,
            oracle: None,
            strategy: Box::new(strategy),
            cfg: CrawlConfig::default(),
        }
    }

    /// Per-site crawl configuration (budget, politeness, seeds, …).
    pub fn config(mut self, cfg: CrawlConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Ground truth for oracle strategies on this site.
    pub fn oracle(mut self, oracle: SharedOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }
}

/// One site's result. Construction errors (an unparseable root) are
/// reported here instead of panicking the worker.
pub struct SiteReport {
    pub name: String,
    pub outcome: Result<CrawlOutcome, ConfigError>,
}

impl SiteReport {
    /// Convenience: the outcome, or a panic naming the site.
    pub fn expect_outcome(&self) -> &CrawlOutcome {
        match &self.outcome {
            Ok(o) => o,
            Err(e) => panic!("fleet site {:?} failed to start: {e}", self.name),
        }
    }

    /// The site's per-reason abandonment tally (PR 6); zero for sites
    /// that failed to start.
    pub fn abandoned(&self) -> AbandonCounts {
        self.outcome.as_ref().map(|o| o.abandoned).unwrap_or_default()
    }
}

/// What a finished fleet reports: per-site outcomes (in submission order)
/// plus aggregate traffic.
pub struct FleetOutcome {
    pub sites: Vec<SiteReport>,
    /// Sum of every site's cost counters. `elapsed_secs` is the *serial*
    /// simulated time — what one crawler visiting the sites back to back
    /// would have waited.
    pub traffic: Traffic,
    /// Targets retrieved across the fleet.
    pub targets: u64,
    /// Real wall-clock seconds the fleet took.
    pub wall_secs: f64,
    /// Fleet-wide per-reason abandonment tally (PR 6) — the sum of every
    /// site's [`CrawlOutcome::abandoned`].
    pub abandoned: AbandonCounts,
    /// Fleet-wide memory gauges (PR 8) — the sum of every site's final
    /// [`CrawlOutcome::mem`], i.e. the combined visited-set + frontier
    /// footprint the fleet held at the instant each site finished.
    pub mem: MemGauges,
    /// Per-shard ledgers (PR 8): one entry per shard thread in
    /// [`FleetMode::Sharded`], empty in the other modes.
    pub shards: Vec<ShardReport>,
}

/// One shard thread's ledger in a [`FleetMode::Sharded`] run (PR 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardReport {
    /// Sites this shard drove to completion, steals included.
    pub sites: usize,
    /// Sites this shard stole from other shards' pending backlogs.
    pub stolen: u64,
    /// The shard pool's simulated clock when its last wave drained — the
    /// shard's own makespan on its own clock.
    pub sim_makespan_secs: f64,
    /// Final memory gauges summed over the shard's sites.
    pub mem: MemGauges,
    /// Abandonment tally summed over the shard's sites.
    pub abandoned: AbandonCounts,
}

impl FleetOutcome {
    /// Requests per real second across the whole fleet — the headline
    /// multi-site throughput number.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.traffic.requests() as f64 / self.wall_secs
    }

    /// Longest simulated per-site duration — the fleet's simulated
    /// wall-clock, since sites crawl concurrently.
    pub fn sim_makespan_secs(&self) -> f64 {
        self.sites
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok())
            .map(|o| o.traffic.elapsed_secs)
            .fold(0.0, f64::max)
    }

    /// Total sites stolen across shards (0 outside
    /// [`FleetMode::Sharded`]) — the work-stealing activity of the run.
    pub fn stolen_sites(&self) -> u64 {
        self.shards.iter().map(|s| s.stolen).sum()
    }
}

/// How a fleet's sessions reach the wire. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// One isolated one-site pool per site (`PipelinedTransport::new`),
    /// sessions dealt over worker threads (PR 4). Sites never share
    /// in-flight capacity.
    PerSite,
    /// One `SharedTransportPool` multiplexing a global window of
    /// `max_in_flight` requests across every site, driven on a single
    /// thread ([`Fleet::new`]'s `workers` is ignored): refills go to the
    /// least-elapsed host first, drains follow the pool's deterministic
    /// completion order. `max_in_flight` is clamped to ≥ 1.
    SharedPool { max_in_flight: usize },
    /// `shards` independent `SharedTransportPool`s, one per driver thread
    /// ([`Fleet::new`]'s `workers` is ignored — `shards` is the thread
    /// count; both values clamped to ≥ 1), each running the shared-pool
    /// schedule over its own hashed share of the sites in waves of at
    /// most `max_in_flight` sites, with whole-site work stealing from the
    /// most-loaded backlog once a shard's own sites all drain (PR 8). See
    /// the module docs.
    Sharded { shards: usize, max_in_flight: usize },
}

/// The multi-site scheduler. See the module docs.
pub struct Fleet {
    jobs: Vec<FleetJob>,
    workers: usize,
    mode: FleetMode,
    assignment: Option<Vec<usize>>,
}

impl Fleet {
    /// A fleet driving its sites on up to `workers` threads (clamped to
    /// the number of jobs at run time; 0 means one worker), in
    /// [`FleetMode::PerSite`] unless [`Fleet::mode`] says otherwise.
    pub fn new(workers: usize) -> Self {
        Fleet { jobs: Vec::new(), workers: workers.max(1), mode: FleetMode::PerSite, assignment: None }
    }

    /// Selects the transport mode (fluent).
    pub fn mode(mut self, mode: FleetMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`FleetMode::SharedPool`] with a global window of
    /// `max_in_flight`.
    pub fn shared_pool(self, max_in_flight: usize) -> Self {
        self.mode(FleetMode::SharedPool { max_in_flight })
    }

    /// Shorthand for [`FleetMode::Sharded`].
    pub fn sharded(self, shards: usize, max_in_flight: usize) -> Self {
        self.mode(FleetMode::Sharded { shards, max_in_flight })
    }

    /// Overrides the hash-based site→shard assignment of
    /// [`FleetMode::Sharded`]: `assignment[i] % shards` is site `i`'s
    /// initial shard (sites past the end go to shard 0). The invariance
    /// tests and load-skew drills use this to force arbitrary — including
    /// pathologically imbalanced — placements; results must not depend on
    /// it.
    pub fn shard_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = Some(assignment);
        self
    }

    pub fn push(&mut self, job: FleetJob) {
        self.jobs.push(job);
    }

    /// Fluent [`Fleet::push`].
    pub fn job(mut self, job: FleetJob) -> Self {
        self.push(job);
        self
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Crawls every site to completion and reports. In
    /// [`FleetMode::PerSite`] jobs are dealt round-robin onto workers and
    /// each worker interleaves its sessions by smallest simulated elapsed
    /// time (politeness-aware fairness); in [`FleetMode::SharedPool`] one
    /// driver thread rations the pool's global window across every
    /// session.
    pub fn run(self) -> FleetOutcome {
        let started = std::time::Instant::now();
        let (sites, shards) = match self.mode {
            FleetMode::PerSite => {
                let n = self.jobs.len();
                let workers = self.workers.clamp(1, n.max(1));

                // Deal jobs round-robin, remembering submission order.
                let mut buckets: Vec<Vec<(usize, FleetJob)>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (i, job) in self.jobs.into_iter().enumerate() {
                    buckets[i % workers].push((i, job));
                }

                let mut indexed: Vec<(usize, SiteReport)> = Vec::with_capacity(n);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = buckets
                        .into_iter()
                        .map(|bucket| scope.spawn(|| drive_bucket(bucket)))
                        .collect();
                    for h in handles {
                        indexed.extend(h.join().expect("fleet worker panicked"));
                    }
                });
                indexed.sort_by_key(|(i, _)| *i);
                (indexed.into_iter().map(|(_, r)| r).collect(), Vec::new())
            }
            FleetMode::SharedPool { max_in_flight } => {
                (drive_shared(self.jobs, max_in_flight), Vec::new())
            }
            FleetMode::Sharded { shards, max_in_flight } => {
                run_sharded(self.jobs, shards, max_in_flight, self.assignment)
            }
        };

        let mut traffic = Traffic::default();
        let mut targets = 0u64;
        let mut abandoned = AbandonCounts::default();
        let mut mem = MemGauges::default();
        for report in &sites {
            if let Ok(o) = &report.outcome {
                traffic.absorb(&o.traffic);
                targets += o.targets_found();
                abandoned.merge(&o.abandoned);
                mem.merge(&o.mem);
            }
        }
        FleetOutcome {
            sites,
            traffic,
            targets,
            wall_secs: started.elapsed().as_secs_f64(),
            abandoned,
            mem,
            shards,
        }
    }
}

/// Everything a session borrows (server, oracle, strategy, config, root),
/// materialised so sessions can borrow from the driver's frame.
struct Prepared {
    index: usize,
    name: String,
    root: String,
    server: SharedServer,
    oracle: Option<SharedOracle>,
    strategy: Box<dyn Strategy>,
    cfg: CrawlConfig,
}

impl Prepared {
    fn from_job(index: usize, job: FleetJob) -> Prepared {
        Prepared {
            index,
            name: job.name,
            root: job.root,
            server: job.server,
            oracle: job.oracle,
            strategy: (job.strategy)(),
            cfg: job.cfg,
        }
    }
}

/// Assembles the per-site reports once every session ended.
fn collect_reports<'a>(
    sessions: Vec<Result<CrawlSession<'a>, ConfigError>>,
    names: Vec<(usize, String)>,
) -> Vec<(usize, SiteReport)> {
    sessions
        .into_iter()
        .zip(names)
        .map(|(s, (index, name))| {
            let outcome = s.map(|session| {
                debug_assert!(
                    session.finish_reason() != Some(FinishReason::Cancelled),
                    "fleet sessions run to natural completion"
                );
                session.finish()
            });
            (index, SiteReport { name, outcome })
        })
        .collect()
}

/// Drives one worker's share of the fleet: builds every session, then
/// repeatedly steps the unfinished session with the smallest simulated
/// elapsed time until all are done.
fn drive_bucket(bucket: Vec<(usize, FleetJob)>) -> Vec<(usize, SiteReport)> {
    let mut prepared: Vec<Prepared> =
        bucket.into_iter().map(|(index, job)| Prepared::from_job(index, job)).collect();
    let names: Vec<(usize, String)> = prepared.iter().map(|p| (p.index, p.name.clone())).collect();

    let mut sessions: Vec<Result<CrawlSession<'_>, ConfigError>> = prepared
        .iter_mut()
        .map(|p| {
            // One transport per site for the whole crawl: `new` builds the
            // job's one-site transport (window and politeness from its
            // config) exactly as a standalone session would, so fleet and
            // solo runs cannot diverge. Jobs needing a custom transport
            // (retries, robots gates) go through
            // `CrawlSession::with_transport` instead.
            CrawlSession::new(
                p.server.as_ref(),
                p.oracle.as_ref().map(|o| o.as_ref() as &dyn Oracle),
                &p.root,
                p.strategy.as_mut(),
                &p.cfg,
            )
        })
        .collect();

    // Politeness-aware interleaving: always advance the session whose
    // simulated clock is furthest behind. Ties are broken by site
    // (submission) index — an explicit, stable order, so scheduling stays
    // deterministic even when several sites share one transport clock
    // value (common right after start, when every clock is 0).
    loop {
        let mut pick: Option<(usize, (f64, usize))> = None;
        for (k, s) in sessions.iter().enumerate() {
            let Ok(session) = s else { continue };
            if session.is_finished() {
                continue;
            }
            let key = (session.traffic().elapsed_secs, names[k].0);
            if pick.is_none_or(|(_, best)| key < best) {
                pick = Some((k, key));
            }
        }
        let Some((k, _)) = pick else { break };
        if let Ok(session) = &mut sessions[k] {
            session.step();
        }
    }

    collect_reports(sessions, names)
}

/// Builds one pool-handle session per prepared site. Pool site indexes
/// run `base..base + prepared.len()` — `base` is the number of handles
/// the pool has already issued (0 for the shared-pool mode's one-shot
/// pool; the running handle count for a sharded wave reusing its shard's
/// pool).
fn pool_sessions<'a>(
    pool: &'a SharedTransportPool,
    prepared: &'a mut [Prepared],
) -> Vec<Result<CrawlSession<'a>, ConfigError>> {
    prepared
        .iter_mut()
        .map(|p| {
            // One pool handle per site: the handle owns the site's
            // politeness shard and cost counters, the pool owns the global
            // window and clock. The handle's window (the pool's) wins over
            // the job's `max_in_flight`, as documented on
            // `CrawlSession::with_transport`.
            let handle = pool.handle(p.server.as_ref(), p.cfg.policy.clone(), p.cfg.politeness);
            CrawlSession::with_transport(
                Box::new(handle),
                p.oracle.as_ref().map(|o| o.as_ref() as &dyn Oracle),
                &p.root,
                p.strategy.as_mut(),
                &p.cfg,
            )
        })
        .collect()
}

/// The two-move shared-pool schedule (see the module docs), over sessions
/// whose pool site indexes are `base + k` for session `k`. Runs every
/// session to completion.
fn drive_pool_schedule(
    pool: &SharedTransportPool,
    sessions: &mut [Result<CrawlSession<'_>, ConfigError>],
    base: usize,
) {
    // `declined[k]`: session k was offered a slot and could not use it
    // (budget-blocked, or frontier dry pending its in-flight answers).
    // Only k's own completions can change that, so k stays out of the
    // refill rotation until its next drain.
    let mut declined = vec![false; sessions.len()];
    loop {
        // Refill: one slot at a time to the least-elapsed host (ties by
        // site index), so the site that has waited longest for a delivery
        // gets capacity first and no session can swallow the whole window.
        while pool.has_capacity() {
            let pick = sessions
                .iter()
                .enumerate()
                .filter(|(k, s)| {
                    !declined[*k] && s.as_ref().is_ok_and(|sess| !sess.is_finished())
                })
                .min_by(|(a, _), (b, _)| {
                    pool.site_elapsed(base + *a)
                        .total_cmp(&pool.site_elapsed(base + *b))
                        .then(a.cmp(b))
                })
                .map(|(k, _)| k);
            let Some(k) = pick else { break };
            let Ok(session) = &mut sessions[k] else { unreachable!("filtered above") };
            if !session.refill_one() && !session.is_finished() {
                declined[k] = true;
            }
        }
        // Drain: exactly the site owning the globally next completion, so
        // cross-site delivery order is the pool's deterministic order
        // (arrival, ties by site index) and the shared clock never jumps
        // past a pending arrival.
        let Some(site) = pool.next_completion_site() else {
            // Nothing in flight and nobody could submit: every live
            // session has finished (a session with an empty window either
            // submits or finishes during its refill offer).
            break;
        };
        let k = site - base;
        if let Ok(session) = &mut sessions[k] {
            session.drain_completions();
        }
        declined[k] = false;
    }
    debug_assert!(
        sessions.iter().all(|s| s.as_ref().map_or(true, |sess| sess.is_finished())),
        "shared-pool driver exited with live sessions"
    );
}

/// Drives the whole fleet through one [`SharedTransportPool`] on the
/// calling thread. See the module docs for the two-move schedule.
fn drive_shared(jobs: Vec<FleetJob>, max_in_flight: usize) -> Vec<SiteReport> {
    let pool = SharedTransportPool::new(max_in_flight);
    let mut prepared: Vec<Prepared> =
        jobs.into_iter().enumerate().map(|(index, job)| Prepared::from_job(index, job)).collect();
    let names: Vec<(usize, String)> = prepared.iter().map(|p| (p.index, p.name.clone())).collect();

    let mut sessions = pool_sessions(&pool, &mut prepared);
    drive_pool_schedule(&pool, &mut sessions, 0);

    collect_reports(sessions, names).into_iter().map(|(_, r)| r).collect()
}

/// Stable site → shard hash (FxHash over name then submission index):
/// deterministic across runs and shard counts, so drills and benches see
/// the same placement every time.
fn shard_of(index: usize, name: &str, shards: usize) -> usize {
    use std::hash::{BuildHasher, Hash, Hasher};
    let mut h = sb_webgraph::FxBuildHasher::default().build_hasher();
    name.hash(&mut h);
    index.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// The sharded fleet's shared work ledger: one backlog of pending
/// (submission index, job) pairs per shard. Shards pop their own backlog
/// from the front and steal from the *back* of the most-loaded backlog,
/// so a victim's imminent work is disturbed last.
type Ledger = Mutex<Vec<VecDeque<(usize, FleetJob)>>>;

/// Drives one shard: waves of at most `max_in_flight` sites through a
/// persistent per-shard [`SharedTransportPool`], stealing whole pending
/// sites from the most-loaded backlog when its own runs dry.
fn drive_shard(
    shard: usize,
    ledger: &Ledger,
    max_in_flight: usize,
) -> (Vec<(usize, SiteReport)>, ShardReport) {
    let pool = SharedTransportPool::new(max_in_flight);
    // A wave wider than the in-flight window could never add concurrency,
    // so cap it there: smaller waves mean more (steal-safe) boundaries.
    let cap = max_in_flight.max(1);
    let mut reports: Vec<(usize, SiteReport)> = Vec::new();
    let mut shard_report = ShardReport { sites: 0, stolen: 0, ..ShardReport::default() };
    // Pool site indexes keep counting across waves (one handle per driven
    // site); each wave's sessions start at the running total.
    let mut base = 0usize;

    loop {
        // Take the next wave under the ledger lock: own backlog first,
        // else steal up to half the most-loaded backlog (whole sites only
        // — pending jobs have no session and nothing in flight, so a
        // steal cannot split a crawl across pools).
        let wave: Vec<(usize, FleetJob)> = {
            let mut backlogs = ledger.lock();
            if !backlogs[shard].is_empty() {
                let take = cap.min(backlogs[shard].len());
                backlogs[shard].drain(..take).collect()
            } else {
                let victim = (0..backlogs.len())
                    .filter(|&s| s != shard && !backlogs[s].is_empty())
                    .max_by_key(|&s| (backlogs[s].len(), std::cmp::Reverse(s)));
                match victim {
                    None => break,
                    Some(v) => {
                        let take = cap.min(backlogs[v].len().div_ceil(2));
                        let at = backlogs[v].len() - take;
                        shard_report.stolen += take as u64;
                        backlogs[v].split_off(at).into()
                    }
                }
            }
        };

        let mut prepared: Vec<Prepared> =
            wave.into_iter().map(|(index, job)| Prepared::from_job(index, job)).collect();
        let names: Vec<(usize, String)> =
            prepared.iter().map(|p| (p.index, p.name.clone())).collect();
        let wave_len = prepared.len();

        let mut sessions = pool_sessions(&pool, &mut prepared);
        drive_pool_schedule(&pool, &mut sessions, base);
        base += wave_len;
        shard_report.sites += wave_len;

        for (index, report) in collect_reports(sessions, names) {
            if let Ok(o) = &report.outcome {
                shard_report.mem.merge(&o.mem);
                shard_report.abandoned.merge(&o.abandoned);
            }
            reports.push((index, report));
        }
    }

    shard_report.sim_makespan_secs = pool.clock_secs();
    (reports, shard_report)
}

/// [`FleetMode::Sharded`]: hash sites onto `shards` backlogs, drive one
/// shard per thread, steal whole pending sites at wave boundaries. See
/// the module docs for why per-site results stay shard-count invariant.
fn run_sharded(
    jobs: Vec<FleetJob>,
    shards: usize,
    max_in_flight: usize,
    assignment: Option<Vec<usize>>,
) -> (Vec<SiteReport>, Vec<ShardReport>) {
    let shards = shards.max(1);
    let mut backlogs: Vec<VecDeque<(usize, FleetJob)>> = (0..shards).map(|_| VecDeque::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        let s = match &assignment {
            Some(a) => a.get(i).copied().unwrap_or(0) % shards,
            None => shard_of(i, &job.name, shards),
        };
        backlogs[s].push_back((i, job));
    }
    let ledger: Ledger = Mutex::new(backlogs);
    let ledger = &ledger;

    let mut indexed: Vec<(usize, SiteReport)> = Vec::new();
    let mut shard_reports: Vec<ShardReport> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| scope.spawn(move || drive_shard(shard, ledger, max_in_flight)))
            .collect();
        for h in handles {
            let (reports, shard_report) = h.join().expect("fleet shard panicked");
            indexed.extend(reports);
            shard_reports.push(shard_report);
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    (indexed.into_iter().map(|(_, r)| r).collect(), shard_reports)
}
