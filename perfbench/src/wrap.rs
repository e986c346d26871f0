//! Delegating wrappers that time every call into a layer.
//!
//! Each wrapper implements one of the public traits the crawl already
//! takes as a trait object and forwards **every** method to the wrapped
//! value, default methods included: a wrapper that let a default method
//! run instead of the inner override would silently change behaviour
//! (`Strategy::batch_selection` falling back to the sequential path,
//! `Strategy::link_needs` switching extraction to all features,
//! `Transport::apply_crawl_delay` skipping an override). The
//! `tests/wrappers.rs` suite pins the forwarding.
//!
//! Work methods open a span on the shared [`Tracer`]; cheap accessors
//! (`traffic`, `in_flight`, `frontier_len`, …) are forwarded without one,
//! because they run on every event and timing them would cost more than
//! they do. Call counts that spans cannot give are kept in plain fields
//! and added to the tracer's counters when the wrapper drops.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use sb_crawler::events::{AbandonReason, CrawlEvent, CrawlObserver, CrawlSnapshot};
use sb_crawler::strategies::{Candidate, Scorer};
use sb_crawler::{LinkDecision, NewLink, Selection, Services, Strategy, StrategyReport};
use sb_httpsim::transport::{Request, RequestId, Transport};
use sb_httpsim::{Body, Fetched, HeadResponse, HttpServer, Response, RobotsTxt, Traffic};
use sb_revisit::{Observation, RevisitPolicy};
use sb_webgraph::gen::{OutLink, PageKind, SectionStyle, SiteSource, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::{PageId, UrlClass, UrlId};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

// ----------------------------------------------------------------------
// httpsim: Transport and HttpServer
// ----------------------------------------------------------------------

/// Times `submit`, `poll`, `head` and `fetch_now` as
/// `httpsim.transport.*` spans.
pub struct TracedTransport<'a> {
    inner: Box<dyn Transport + 'a>,
    tracer: Arc<Tracer>,
    submits: u64,
    fetch_nows: u64,
    /// Σ in-flight requests right after each submit.
    in_flight_sum: u64,
}

impl<'a> TracedTransport<'a> {
    pub fn new(inner: Box<dyn Transport + 'a>, tracer: Arc<Tracer>) -> Self {
        TracedTransport {
            inner,
            tracer,
            submits: 0,
            fetch_nows: 0,
            in_flight_sum: 0,
        }
    }
}

impl Drop for TracedTransport<'_> {
    fn drop(&mut self) {
        let gets = self.inner.traffic().get_requests;
        self.tracer
            .add("httpsim.transport.submits", self.submits as f64);
        self.tracer
            .add("httpsim.transport.in_flight_sum", self.in_flight_sum as f64);
        // Every GET the wire saw beyond one per submitted request is a retry.
        let retries = gets.saturating_sub(self.submits + self.fetch_nows);
        self.tracer.add("httpsim.transport.retries", retries as f64);
    }
}

impl Transport for TracedTransport<'_> {
    fn submit(&mut self, req: Request<'_>) -> RequestId {
        let id = {
            let _span = self.tracer.span("httpsim.transport.submit");
            self.inner.submit(req)
        };
        self.submits += 1;
        self.in_flight_sum += self.inner.in_flight() as u64;
        id
    }

    fn poll_into(&mut self, out: &mut Vec<(RequestId, Fetched)>) {
        let _span = self.tracer.span("httpsim.transport.poll");
        self.inner.poll_into(out)
    }

    fn poll(&mut self) -> Vec<(RequestId, Fetched)> {
        let _span = self.tracer.span("httpsim.transport.poll");
        self.inner.poll()
    }

    fn head(&mut self, url: &str) -> HeadResponse {
        let _span = self.tracer.span("httpsim.transport.head");
        self.inner.head(url)
    }

    fn fetch_now(&mut self, url: &str) -> Fetched {
        self.fetch_nows += 1;
        let _span = self.tracer.span("httpsim.transport.fetch_now");
        self.inner.fetch_now(url)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn in_flight_bytes(&self) -> u64 {
        self.inner.in_flight_bytes()
    }

    fn max_in_flight(&self) -> usize {
        self.inner.max_in_flight()
    }

    fn has_capacity(&self) -> bool {
        self.inner.has_capacity()
    }

    fn traffic(&self) -> Traffic {
        self.inner.traffic()
    }

    fn tag_target(&mut self, bytes: u64) {
        self.inner.tag_target(bytes)
    }

    fn policy(&self) -> &MimePolicy {
        self.inner.policy()
    }

    fn set_host_min_delay(&mut self, host: &str, delay_secs: f64) {
        self.inner.set_host_min_delay(host, delay_secs)
    }

    fn apply_crawl_delay(&mut self, robots: &RobotsTxt, agent: &str, host: &str) {
        self.inner.apply_crawl_delay(robots, agent, host)
    }
}

/// Times `get`/`head` as `httpsim.server.get`/`httpsim.server.head`
/// spans and keeps every HTML body it served, so the benchmark can re-run
/// link extraction over exactly what the crawl parsed.
pub struct TracedServer {
    inner: Arc<dyn HttpServer>,
    tracer: Arc<Tracer>,
    html_bodies: Mutex<Vec<Body>>,
}

impl TracedServer {
    pub fn new(inner: Arc<dyn HttpServer>, tracer: Arc<Tracer>) -> Self {
        TracedServer {
            inner,
            tracer,
            html_bodies: Mutex::new(Vec::new()),
        }
    }

    /// Takes the HTML bodies served since the last call.
    pub fn take_html_bodies(&self) -> Vec<Body> {
        std::mem::take(&mut *self.html_bodies.lock().expect("body buffer lock poisoned"))
    }
}

impl HttpServer for TracedServer {
    fn head(&self, url: &str) -> HeadResponse {
        let _span = self.tracer.span("httpsim.server.head");
        self.inner.head(url)
    }

    fn get(&self, url: &str) -> Response {
        let response = {
            let _span = self.tracer.span("httpsim.server.get");
            self.inner.get(url)
        };
        let html = response.status == 200
            && response
                .headers
                .content_type
                .as_deref()
                .is_some_and(|t| t.starts_with("text/html"));
        if html {
            self.html_bodies
                .lock()
                .expect("body buffer lock poisoned")
                .push(response.body.clone());
        }
        response
    }
}

// ----------------------------------------------------------------------
// webgraph: SiteSource
// ----------------------------------------------------------------------

/// Times `rendered` as `webgraph.render` spans (render-cache hits
/// included: the span measures what the server waits for).
pub struct TracedSource {
    inner: Arc<dyn SiteSource>,
    tracer: Arc<Tracer>,
}

impl TracedSource {
    pub fn new(inner: Arc<dyn SiteSource>, tracer: Arc<Tracer>) -> Self {
        TracedSource { inner, tracer }
    }

    /// The wrapped source itself. Calls go through `&dyn SiteSource`, not
    /// the `Arc`: `SiteSource for Arc<S>` forwards only the required
    /// methods, so its default methods would bypass the inner overrides.
    fn source(&self) -> &dyn SiteSource {
        self.inner.as_ref()
    }
}

impl SiteSource for TracedSource {
    fn spec(&self) -> &SiteSpec {
        self.source().spec()
    }

    fn seed(&self) -> u64 {
        self.source().seed()
    }

    fn root(&self) -> PageId {
        self.source().root()
    }

    fn n_pages(&self) -> usize {
        self.source().n_pages()
    }

    fn kind(&self, id: PageId) -> &PageKind {
        self.source().kind(id)
    }

    fn url(&self, id: PageId) -> &str {
        self.source().url(id)
    }

    fn title(&self, id: PageId) -> &str {
        self.source().title(id)
    }

    fn out_links(&self, id: PageId) -> &[OutLink] {
        self.source().out_links(id)
    }

    fn section_style(&self, section: u16) -> &SectionStyle {
        self.source().section_style(section)
    }

    fn lookup(&self, url: &str) -> Option<PageId> {
        self.source().lookup(url)
    }

    fn rendered(&self, id: PageId) -> Arc<[u8]> {
        let _span = self.tracer.span("webgraph.render");
        self.source().rendered(id)
    }

    fn content_length(&self, id: PageId) -> u64 {
        self.source().content_length(id)
    }

    fn target_payload(&self, id: PageId) -> Arc<[u8]> {
        self.source().target_payload(id)
    }

    fn render_count(&self) -> u64 {
        self.source().render_count()
    }

    fn is_empty(&self) -> bool {
        self.source().is_empty()
    }

    fn true_class(&self, id: PageId) -> UrlClass {
        self.source().true_class(id)
    }

    fn target_ids(&self) -> Vec<PageId> {
        self.source().target_ids()
    }

    fn target_urls(&self) -> Vec<String> {
        self.source().target_urls()
    }

    fn source_depths(&self) -> Vec<Option<u32>> {
        self.source().source_depths()
    }
}

// ----------------------------------------------------------------------
// core: Strategy
// ----------------------------------------------------------------------

/// Times selection (`next`, `select_batch`), routing (`decide`) and
/// learning (`feedback*`, `on_fetched`) as `core.strategy.*` spans.
pub struct TracedStrategy {
    inner: Box<dyn Strategy>,
    tracer: Arc<Tracer>,
    /// Selections handed back to the session.
    selections: u64,
    batch_calls: u64,
    /// Largest `frontier_len` answered (the session asks on every event).
    frontier_peak: Cell<usize>,
}

impl TracedStrategy {
    pub fn new(inner: Box<dyn Strategy>, tracer: Arc<Tracer>) -> Self {
        TracedStrategy {
            inner,
            tracer,
            selections: 0,
            batch_calls: 0,
            frontier_peak: Cell::new(0),
        }
    }
}

impl Drop for TracedStrategy {
    fn drop(&mut self) {
        self.tracer.add("core.strategy.instances", 1.0);
        self.tracer
            .add("core.strategy.selections", self.selections as f64);
        self.tracer
            .add("core.strategy.batch_calls", self.batch_calls as f64);
        self.tracer.max(
            "core.strategy.frontier_peak",
            self.frontier_peak.get() as f64,
        );
    }
}

impl Strategy for TracedStrategy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn link_needs(&self) -> sb_html::LinkNeeds {
        self.inner.link_needs()
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<Selection> {
        let sel = {
            let _span = self.tracer.span("core.strategy.select");
            self.inner.next(rng)
        };
        self.selections += u64::from(sel.is_some());
        sel
    }

    fn select_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<Selection> {
        let batch = {
            let _span = self.tracer.span("core.strategy.select");
            self.inner.select_batch(k, rng)
        };
        self.selections += batch.len() as u64;
        self.batch_calls += 1;
        batch
    }

    fn batch_selection(&self) -> bool {
        self.inner.batch_selection()
    }

    fn decide(&mut self, link: &NewLink<'_>, services: &mut Services<'_, '_>) -> LinkDecision {
        let _span = self.tracer.span("core.strategy.decide");
        self.inner.decide(link, services)
    }

    fn feedback(&mut self, token: u64, reward: f64) {
        let _span = self.tracer.span("core.strategy.feedback");
        self.inner.feedback(token, reward)
    }

    fn feedback_target(&mut self, token: u64) {
        let _span = self.tracer.span("core.strategy.feedback");
        self.inner.feedback_target(token)
    }

    fn feedback_error(&mut self, token: u64) {
        let _span = self.tracer.span("core.strategy.feedback");
        self.inner.feedback_error(token)
    }

    fn on_fetched(&mut self, id: UrlId, url: &str, class: UrlClass) {
        let _span = self.tracer.span("core.strategy.feedback");
        self.inner.on_fetched(id, url, class)
    }

    fn frontier_len(&self) -> usize {
        let len = self.inner.frontier_len();
        self.frontier_peak.set(self.frontier_peak.get().max(len));
        len
    }

    fn frontier_spilled(&self) -> usize {
        self.inner.frontier_spilled()
    }

    fn report(&self) -> StrategyReport {
        self.inner.report()
    }
}

// ----------------------------------------------------------------------
// core: value scorers
// ----------------------------------------------------------------------

/// Times one `ValueStrategy` scorer as `value.scorer.<name>` spans.
pub struct TracedScorer {
    inner: Box<dyn Scorer>,
    tracer: Arc<Tracer>,
    span_name: &'static str,
    score_calls: u64,
}

impl TracedScorer {
    pub fn new(inner: Box<dyn Scorer>, tracer: Arc<Tracer>) -> Self {
        let span_name = match inner.name() {
            "depth" => "value.scorer.depth",
            "classifier" => "value.scorer.classifier",
            "neardup" => "value.scorer.neardup",
            "bandit" => "value.scorer.bandit",
            _ => "value.scorer.other",
        };
        TracedScorer {
            inner,
            tracer,
            span_name,
            score_calls: 0,
        }
    }
}

impl Drop for TracedScorer {
    fn drop(&mut self) {
        self.tracer
            .add("value.scorer.score_calls", self.score_calls as f64);
        self.tracer.add("value.scorer.instances", 1.0);
    }
}

impl Scorer for TracedScorer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score(&mut self, cand: &Candidate) -> f64 {
        self.score_calls += 1;
        let _span = self.tracer.span(self.span_name);
        self.inner.score(cand)
    }

    fn on_fetched(&mut self, url: &str, class: UrlClass) {
        let _span = self.tracer.span(self.span_name);
        self.inner.on_fetched(url, class)
    }

    fn observe(&mut self, url: &str, reward: f64) {
        let _span = self.tracer.span(self.span_name);
        self.inner.observe(url, reward)
    }
}

// ----------------------------------------------------------------------
// revisit: RevisitPolicy
// ----------------------------------------------------------------------

/// Times every policy call as a `revisit.policy` span.
pub struct TracedPolicy {
    inner: Box<dyn RevisitPolicy>,
    tracer: Arc<Tracer>,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn RevisitPolicy>, tracer: Arc<Tracer>) -> Self {
        TracedPolicy { inner, tracer }
    }
}

impl RevisitPolicy for TracedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn register(&mut self, url: &str, in_path: &str) {
        let _span = self.tracer.span("revisit.policy");
        self.inner.register(url, in_path)
    }

    fn begin_epoch(&mut self) {
        let _span = self.tracer.span("revisit.policy");
        self.inner.begin_epoch()
    }

    fn next(&mut self, rng: &mut StdRng) -> Option<String> {
        let _span = self.tracer.span("revisit.policy");
        self.inner.next(rng)
    }

    fn observe(&mut self, url: &str, obs: &Observation) {
        let _span = self.tracer.span("revisit.policy");
        self.inner.observe(url, obs)
    }

    fn estimate(&self, url: &str) -> f64 {
        let _span = self.tracer.span("revisit.policy");
        self.inner.estimate(url)
    }
}

// ----------------------------------------------------------------------
// core: events
// ----------------------------------------------------------------------

/// Abandon reasons in the buckets of `AbandonCounts`.
pub const ABANDON_BUCKETS: [&str; 7] = [
    "http_error",
    "timeout",
    "retries_exhausted",
    "quarantined",
    "redirect",
    "session_closed",
    "other",
];

fn abandon_bucket(reason: AbandonReason) -> usize {
    match reason {
        AbandonReason::HttpError(_) => 0,
        AbandonReason::Timeout => 1,
        AbandonReason::RetriesExhausted => 2,
        AbandonReason::HostQuarantined => 3,
        AbandonReason::RedirectChainExhausted
        | AbandonReason::RedirectMissingLocation
        | AbandonReason::RedirectUnparseable
        | AbandonReason::RedirectOffSite
        | AbandonReason::RedirectFiltered
        | AbandonReason::RedirectAlreadyKnown => 4,
        AbandonReason::SessionClosed => 5,
        AbandonReason::UnparseableSelection
        | AbandonReason::Interrupted
        | AbandonReason::MissingMime => 6,
    }
}

/// Counts crawl events; optionally keeps every fetched URL.
#[derive(Debug, Default)]
pub struct EventCounts {
    pub abandoned: [u64; 7],
    pub batch_selected: u64,
    /// Every URL answered by a GET (`Fetched` and redirect hops), kept
    /// only when built with [`EventCounts::keeping_urls`].
    pub urls: Option<sb_webgraph::FxHashSet<String>>,
}

impl EventCounts {
    pub fn keeping_urls() -> Self {
        EventCounts {
            urls: Some(Default::default()),
            ..Default::default()
        }
    }
}

impl CrawlObserver for EventCounts {
    fn on_event(&mut self, event: &CrawlEvent<'_>, _snap: &CrawlSnapshot) {
        match *event {
            CrawlEvent::Abandoned { reason, .. } => self.abandoned[abandon_bucket(reason)] += 1,
            CrawlEvent::BatchSelected { .. } => self.batch_selected += 1,
            CrawlEvent::Fetched { url, .. } | CrawlEvent::Redirected { from: url, .. } => {
                if let Some(urls) = &mut self.urls {
                    urls.insert(url.to_owned());
                }
            }
            _ => {}
        }
    }
}
