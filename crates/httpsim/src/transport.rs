//! The nonblocking fetch boundary: a politeness-gated in-flight request
//! pool over the simulated wire (PR 4).
//!
//! The blocking [`crate::Client`] serialises a crawl on simulated latency:
//! every GET charges `delay + transfer` before the next one can even be
//! issued, so a site of `n` pages costs `n · (delay + transfer)` simulated
//! seconds no matter how many URLs the frontier holds. Production crawlers
//! (BUbiNG, and every multi-threaded design since) decouple fetch I/O from
//! page processing behind a bounded window of in-flight requests with a
//! per-host politeness gate. [`Transport`] reproduces that shape over the
//! offline simulation:
//!
//! * [`Transport::submit`] hands a [`Request`] to the pool and returns a
//!   [`RequestId`] immediately — the caller keeps at most
//!   [`Transport::max_in_flight`] requests outstanding;
//! * [`Transport::poll`] delivers finished requests in **deterministic
//!   completion order**: ascending simulated arrival time, ties broken by
//!   `RequestId` (submission order);
//! * the **politeness gate** enforces the minimum inter-request delay *at
//!   the transport*, per host: two dispatches to the same host are always
//!   at least `delay_secs` (or the host's robots `Crawl-delay` override,
//!   whichever is larger) of simulated time apart, no matter how wide the
//!   window is.
//!
//! ## Simulated-time model
//!
//! Each request occupies `delay + wire_bytes / bytes_per_sec` of connection
//! time starting at its gate-assigned dispatch instant, so
//!
//! ```text
//! start   = max(submit clock, host gate)     gate ← start + delay
//! arrival = start + delay + transfer
//! ```
//!
//! With a window of 1 this telescopes to exactly the blocking client's
//! accounting (`elapsed += delay + transfer` per request) — which is what
//! lets `CrawlSession` with `max_in_flight = 1` replay the frozen
//! `sb_bench::reference` traces byte-identically. With a wider window the
//! *transfers* overlap while the gate still spaces the *dispatches*, so the
//! crawl's simulated makespan approaches
//! `n · max(delay, (delay + transfer) / window)` instead of
//! `n · (delay + transfer)`.
//!
//! [`Traffic::elapsed_secs`] reported by the transport is the simulated
//! clock at the last delivered completion (the makespan so far), not the
//! serial sum — at window 1 the two coincide.
//!
//! ## One backend
//!
//! The only implementation is [`crate::pool::PoolHandle`]: one site's view
//! of a [`crate::SharedTransportPool`]. [`PipelinedTransport`] is kept as
//! the single-site name for it — [`PoolHandle::new`] registers the handle
//! as the lone tenant of a fresh one-site pool, so the pool's global
//! window *is* the site's window and its shared clock the site's clock.
//! The per-host politeness gates (`GateTable`) and the hazard-aware
//! dispatch loop ([`crate::hazard`]'s `dispatch_hazard_get`: retries with
//! capped exponential backoff and seeded jitter, timeouts, heavy-tailed
//! latency, bandwidth caps, 429 rate limiting and the per-host circuit
//! breaker) are defined once and used by every handle.

use crate::client::{Fetched, Politeness, Traffic};
use crate::pool::PoolHandle;
use crate::response::HeadResponse;
use crate::robots::RobotsTxt;
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::FxHashMap;

/// Identifies one submitted request; ascending in submission order, unique
/// per pool.
pub type RequestId = u64;

/// A fetch to hand to [`Transport::submit`]. Borrowed: the transport reads
/// the URL during the call and never stores it.
#[derive(Debug, Clone, Copy)]
pub struct Request<'u> {
    pub url: &'u str,
}

impl<'u> Request<'u> {
    /// A GET of `url`.
    pub fn get(url: &'u str) -> Request<'u> {
        Request { url }
    }
}

/// The nonblocking fetch boundary. See the module docs; the simulated
/// implementation is [`crate::pool::PoolHandle`] (alias
/// [`PipelinedTransport`] for a lone handle). Every implementation must
/// uphold the invariants of the conformance suite
/// (`tests/transport_conformance.rs`): politeness gate spacing,
/// deterministic completion order, window-1 equivalence with the blocking
/// [`crate::Client`], and charged-every-attempt retry accounting.
pub trait Transport {
    /// Enqueues a GET into the in-flight pool and returns its id. Callers
    /// must keep [`Transport::in_flight`] within
    /// [`Transport::max_in_flight`] (checked in debug builds).
    fn submit(&mut self, req: Request<'_>) -> RequestId;

    /// Delivers every request that has finished by the next completion
    /// instant, appending `(id, answer)` pairs to `out` in deterministic
    /// order (arrival time, ties by id). `out` is cleared first. Empty
    /// output means nothing is in flight.
    fn poll_into(&mut self, out: &mut Vec<(RequestId, Fetched)>);

    /// Allocating convenience over [`Transport::poll_into`].
    fn poll(&mut self) -> Vec<(RequestId, Fetched)> {
        let mut out = Vec::new();
        self.poll_into(&mut out);
        out
    }

    /// A synchronous HEAD through the same gate and clock (the classifier
    /// bootstrap probes links mid-decision and needs the answer now).
    fn head(&mut self, url: &str) -> HeadResponse;

    /// A synchronous charged GET through the gate (the engine's
    /// unparseable-selection parity path). No retries.
    fn fetch_now(&mut self, url: &str) -> Fetched;

    /// Requests submitted and not yet delivered.
    fn in_flight(&self) -> usize;

    /// Wire bytes of the requests submitted and not yet delivered. The
    /// simulated origin answers at dispatch, so the exact figure is known
    /// the moment a request enters the pool (a live transport would use
    /// `Content-Length` plus running transfer counts). Budget-aware
    /// callers add this to the delivered volume before refilling, so a
    /// wide window cannot overshoot a volume budget by a whole window of
    /// undelivered transfers.
    fn in_flight_bytes(&self) -> u64;

    /// The in-flight window size the caller should respect.
    fn max_in_flight(&self) -> usize;

    /// `in_flight() < max_in_flight()`.
    fn has_capacity(&self) -> bool {
        self.in_flight() < self.max_in_flight()
    }

    /// Cost counters for everything *delivered* so far (in-flight requests
    /// are not yet charged). `elapsed_secs` is the simulated clock.
    fn traffic(&self) -> Traffic;

    /// Re-attributes `bytes` from the non-target to the target volume
    /// bucket (same contract as [`crate::Client::tag_target`]).
    fn tag_target(&mut self, bytes: u64);

    /// The MIME policy governing mid-flight interruption.
    fn policy(&self) -> &MimePolicy;

    /// Raises the politeness gate for one host (e.g. a robots
    /// `Crawl-delay`). The effective inter-dispatch delay for the host
    /// becomes `max(politeness.delay_secs, delay_secs)`; keys are
    /// case-folded, so any casing of the host shares the override.
    fn set_host_min_delay(&mut self, host: &str, delay_secs: f64);

    /// Applies the `Crawl-delay` of a parsed robots.txt (if declared for
    /// `agent`) as `host`'s gate delay.
    fn apply_crawl_delay(&mut self, robots: &RobotsTxt, agent: &str, host: &str) {
        if let Some(d) = robots.crawl_delay(agent) {
            self.set_host_min_delay(host, d);
        }
    }
}

/// Per-host politeness state.
#[derive(Default)]
struct HostGate {
    /// Earliest simulated instant the next dispatch to this host may start.
    next_start: f64,
    /// Host-specific minimum inter-dispatch delay (robots `Crawl-delay`);
    /// the effective delay is the max of this and the global politeness.
    min_delay: Option<f64>,
}

/// The per-host politeness gates of one [`crate::pool::PoolHandle`]: key
/// folding, the `Crawl-delay` override rule and the
/// `start/gate/arrival` arithmetic, also used by the hazard dispatch loop.
#[derive(Default)]
pub(crate) struct GateTable {
    gates: FxHashMap<String, HostGate>,
}

impl GateTable {
    pub(crate) fn set_host_min_delay(&mut self, host: &str, delay_secs: f64) {
        self.gates.entry(host_key(host)).or_default().min_delay = Some(delay_secs.max(0.0));
    }

    /// Passes one dispatch through the host's politeness gate starting no
    /// earlier than `ready_at`, returning its `(start, arrival)` for a
    /// transfer of `wire` bytes. Gate keys are case-folded — canonical
    /// (interned) URLs carry lowercase hosts and hit the map borrowed; a
    /// mixed-case host folds once so it shares the gate (and any
    /// `Crawl-delay` override) of its lowercase form.
    pub(crate) fn dispatch(
        &mut self,
        politeness: &Politeness,
        url: &str,
        ready_at: f64,
        wire: u64,
    ) -> (f64, f64) {
        let host = host_of(url);
        let key: std::borrow::Cow<'_, str> = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            std::borrow::Cow::Owned(host_key(host))
        } else {
            std::borrow::Cow::Borrowed(host)
        };
        let base = politeness.delay_secs;
        let delay = match self.gates.get(key.as_ref()).and_then(|g| g.min_delay) {
            Some(d) => d.max(base),
            None => base,
        };
        let gate = match self.gates.get_mut(key.as_ref()) {
            Some(g) => g,
            None => self.gates.entry(key.into_owned()).or_default(),
        };
        let start = ready_at.max(gate.next_start);
        gate.next_start = start + delay;
        let arrival = start + delay + wire as f64 / politeness.bytes_per_sec;
        (start, arrival)
    }
}

/// The single-site [`Transport`]: a lone handle of a fresh one-site
/// [`crate::SharedTransportPool`]. [`PoolHandle::new`] builds it at
/// window 1 with no retries — the drop-in equivalent of the blocking
/// [`crate::Client`] — and [`PoolHandle::with_window`] widens it.
pub type PipelinedTransport<'a> = PoolHandle<'a>;

/// The host component of an absolute http(s) URL, without allocating.
/// Interned URLs are already canonical (lowercased host), so the slice is
/// usable as a gate key directly.
pub(crate) fn host_of(url: &str) -> &str {
    let rest = url.find("://").map(|i| &url[i + 3..]).unwrap_or(url);
    let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let authority = &rest[..end];
    // Strip userinfo if present (rare; robots fetching may see it).
    authority.rsplit('@').next().unwrap_or(authority)
}

/// Owned, case-folded gate key (allocated once per distinct host).
fn host_key(host: &str) -> String {
    host.to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SiteServer;
    use sb_webgraph::gen::{build_site, SiteSpec};

    fn server() -> SiteServer {
        SiteServer::new(build_site(&SiteSpec::demo(300), 5))
    }

    fn html_urls(s: &SiteServer, n: usize) -> Vec<String> {
        s.site()
            .pages()
            .iter()
            .filter(|p| matches!(p.kind, sb_webgraph::PageKind::Html(_)))
            .map(|p| p.url.clone())
            .take(n)
            .collect()
    }

    #[test]
    fn replay_store_serves_the_pipeline_from_cache() {
        use crate::replay::{Mode, ReplayStore};
        let s = server();
        let urls = html_urls(&s, 12);
        let store = ReplayStore::new(s, Mode::SemiOnline);

        let sweep = |store: &ReplayStore<SiteServer>| {
            let mut t = PipelinedTransport::new(store, MimePolicy::default(), Politeness::default())
                .with_window(4);
            let mut out = Vec::new();
            let mut bodies = Vec::new();
            for chunk in urls.chunks(4) {
                for u in chunk {
                    t.submit(Request::get(u));
                }
                while t.in_flight() > 0 {
                    t.poll_into(&mut out);
                    bodies.extend(out.drain(..).map(|(_, f)| f.body));
                }
            }
            bodies
        };

        let first = sweep(&store);
        let miss_gets = store.upstream_gets();
        assert_eq!(miss_gets, urls.len() as u64, "first sweep fills the store");
        let second = sweep(&store);
        assert_eq!(store.upstream_gets(), miss_gets, "second sweep is all cache hits");
        assert_eq!(first, second, "replayed bodies are identical");
    }

    #[test]
    fn crawl_delay_applies_to_mixed_case_hosts() {
        // A min-delay registered under any casing must govern dispatches
        // to every casing of the host — gates are case-folded.
        struct Tiny;
        impl crate::server::HttpServer for Tiny {
            fn head(&self, _url: &str) -> crate::response::HeadResponse {
                self.get("").head()
            }
            fn get(&self, _url: &str) -> crate::response::Response {
                crate::response::error_response(404)
            }
        }
        let s = Tiny;
        let pol = Politeness { delay_secs: 1.0, bytes_per_sec: 1e9 };
        let mut t = PipelinedTransport::new(&s, MimePolicy::default(), pol);
        t.set_host_min_delay("Example.com", 5.0);
        t.fetch_now("http://EXAMPLE.com/a");
        t.fetch_now("http://example.com/b");
        // Two dispatches, both gated at 5 s: the second starts at t=5.
        assert!(
            t.traffic().elapsed_secs >= 10.0 - 1e-9,
            "override dropped: elapsed {}",
            t.traffic().elapsed_secs
        );
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("https://www.a.b.com/x/y?q=1"), "www.a.b.com");
        assert_eq!(host_of("http://a.com"), "a.com");
        assert_eq!(host_of("https://user@a.com/x"), "a.com");
        assert_eq!(host_of("not a url"), "not a url");
    }
}
