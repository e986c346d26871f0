//! The benchmark's delegating wrappers forward every trait method —
//! default methods included — and a wrapped crawl reproduces the
//! unwrapped one exactly.

use perfbench::harness::Mode;
use perfbench::trace::Tracer;
use perfbench::workloads::{drive_stepped, Served};
use perfbench::wrap::{
    TracedPolicy, TracedScorer, TracedServer, TracedSource, TracedStrategy, TracedTransport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_crawler::strategies::{
    BanditScorer, Candidate, ClassifierScorer, DepthPriorScorer, NearDupScorer, QueueStrategy,
    SbStrategy, Scorer, ValueStrategy,
};
use sb_crawler::{
    Budget, CrawlConfig, CrawlOutcome, LinkDecision, NewLink, SelUrl, Selection, Services,
    Strategy, StrategyReport,
};
use sb_html::LinkNeeds;
use sb_httpsim::transport::{Request, RequestId, Transport};
use sb_httpsim::{Body, Fetched, HeadResponse, Headers, HttpServer, Response, RobotsTxt, Traffic};
use sb_revisit::{Observation, RevisitPolicy};
use sb_webgraph::gen::{build_site, OutLink, PageKind, SectionStyle, SiteSource, SiteSpec};
use sb_webgraph::mime::MimePolicy;
use sb_webgraph::{PageId, UrlClass, UrlId, Website};
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<&'static str>>>;

fn log() -> Log {
    Arc::new(Mutex::new(Vec::new()))
}

fn saw(log: &Log, name: &str) -> bool {
    log.lock().unwrap().contains(&name)
}

fn fetched(status: u16) -> Fetched {
    Fetched {
        status,
        mime: Some("text/html".to_owned()),
        location: None,
        body: Body::empty(),
        interrupted: false,
        wire_bytes: 7,
        attempts: 1,
    }
}

// ----------------------------------------------------------------------
// Transport
// ----------------------------------------------------------------------

struct ProbeTransport {
    log: Log,
    policy: MimePolicy,
}

impl Transport for ProbeTransport {
    fn submit(&mut self, _req: Request<'_>) -> RequestId {
        self.log.lock().unwrap().push("submit");
        41
    }
    fn poll_into(&mut self, out: &mut Vec<(RequestId, Fetched)>) {
        self.log.lock().unwrap().push("poll_into");
        out.clear();
        out.push((41, fetched(200)));
    }
    fn poll(&mut self) -> Vec<(RequestId, Fetched)> {
        self.log.lock().unwrap().push("poll");
        vec![(42, fetched(201))]
    }
    fn head(&mut self, _url: &str) -> HeadResponse {
        self.log.lock().unwrap().push("head");
        HeadResponse {
            status: 204,
            headers: Headers::default(),
        }
    }
    fn fetch_now(&mut self, _url: &str) -> Fetched {
        self.log.lock().unwrap().push("fetch_now");
        fetched(202)
    }
    fn in_flight(&self) -> usize {
        self.log.lock().unwrap().push("in_flight");
        3
    }
    fn in_flight_bytes(&self) -> u64 {
        self.log.lock().unwrap().push("in_flight_bytes");
        77
    }
    fn max_in_flight(&self) -> usize {
        self.log.lock().unwrap().push("max_in_flight");
        2
    }
    fn has_capacity(&self) -> bool {
        // Deliberately inconsistent with in_flight < max_in_flight, so a
        // wrapper that fell back to the default would answer false.
        self.log.lock().unwrap().push("has_capacity");
        true
    }
    fn traffic(&self) -> Traffic {
        self.log.lock().unwrap().push("traffic");
        Traffic {
            get_requests: 5,
            ..Traffic::default()
        }
    }
    fn tag_target(&mut self, _bytes: u64) {
        self.log.lock().unwrap().push("tag_target");
    }
    fn policy(&self) -> &MimePolicy {
        self.log.lock().unwrap().push("policy");
        &self.policy
    }
    fn set_host_min_delay(&mut self, _host: &str, _delay_secs: f64) {
        self.log.lock().unwrap().push("set_host_min_delay");
    }
    fn apply_crawl_delay(&mut self, _robots: &RobotsTxt, _agent: &str, _host: &str) {
        self.log.lock().unwrap().push("apply_crawl_delay");
    }
}

#[test]
fn transport_wrapper_forwards_every_method() {
    let log = log();
    let tracer = Arc::new(Tracer::new());
    let probe = ProbeTransport {
        log: Arc::clone(&log),
        policy: MimePolicy::default(),
    };
    let mut t = TracedTransport::new(Box::new(probe), Arc::clone(&tracer));

    assert_eq!(t.submit(Request::get("https://a.example/")), 41);
    let mut out = Vec::new();
    t.poll_into(&mut out);
    assert_eq!(out[0].1.status, 200);
    assert_eq!(
        t.poll()[0].1.status,
        201,
        "poll must reach the inner override"
    );
    assert_eq!(t.head("https://a.example/").status, 204);
    assert_eq!(t.fetch_now("https://a.example/").status, 202);
    assert_eq!(t.in_flight(), 3);
    assert_eq!(t.in_flight_bytes(), 77);
    assert_eq!(t.max_in_flight(), 2);
    assert!(
        t.has_capacity(),
        "has_capacity must reach the inner override"
    );
    assert_eq!(t.traffic().get_requests, 5);
    t.tag_target(9);
    let _ = t.policy();
    t.set_host_min_delay("a.example", 1.0);
    // The robots file declares no Crawl-delay: the default method would
    // do nothing, the probe records the call.
    t.apply_crawl_delay(
        &RobotsTxt::parse("User-agent: *\nDisallow:"),
        "sbcrawl",
        "a.example",
    );
    drop(t);

    for m in [
        "submit",
        "poll_into",
        "poll",
        "head",
        "fetch_now",
        "in_flight",
        "in_flight_bytes",
        "max_in_flight",
        "has_capacity",
        "traffic",
        "tag_target",
        "policy",
        "set_host_min_delay",
        "apply_crawl_delay",
    ] {
        assert!(saw(&log, m), "TracedTransport did not forward {m}");
    }
    let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
    for span in [
        "httpsim.transport.submit",
        "httpsim.transport.poll",
        "httpsim.transport.head",
        "httpsim.transport.fetch_now",
    ] {
        assert!(names.contains(&span), "no {span} span");
    }
}

// ----------------------------------------------------------------------
// HttpServer and SiteSource
// ----------------------------------------------------------------------

struct ProbeServer {
    log: Log,
}

impl HttpServer for ProbeServer {
    fn head(&self, _url: &str) -> HeadResponse {
        self.log.lock().unwrap().push("head");
        HeadResponse {
            status: 203,
            headers: Headers::default(),
        }
    }
    fn get(&self, _url: &str) -> Response {
        self.log.lock().unwrap().push("get");
        Response {
            status: 200,
            headers: Headers {
                content_type: Some("text/html; charset=utf-8".to_owned()),
                ..Headers::default()
            },
            body: Body::empty(),
        }
    }
}

#[test]
fn server_wrapper_forwards_and_keeps_html_bodies() {
    let log = log();
    let tracer = Arc::new(Tracer::new());
    let s = TracedServer::new(
        Arc::new(ProbeServer {
            log: Arc::clone(&log),
        }),
        tracer,
    );
    assert_eq!(s.head("https://a.example/").status, 203);
    assert_eq!(s.get("https://a.example/").status, 200);
    assert!(saw(&log, "head") && saw(&log, "get"));
    assert_eq!(s.take_html_bodies().len(), 1);
    assert!(s.take_html_bodies().is_empty());
}

/// Delegates to a real site but overrides every default method with a
/// distinctive answer, so falling back to a default shows.
struct ProbeSource {
    site: Website,
    log: Log,
}

impl ProbeSource {
    fn note(&self, m: &'static str) {
        self.log.lock().unwrap().push(m);
    }
}

impl SiteSource for ProbeSource {
    fn spec(&self) -> &SiteSpec {
        self.note("spec");
        SiteSource::spec(&self.site)
    }
    fn seed(&self) -> u64 {
        self.note("seed");
        SiteSource::seed(&self.site)
    }
    fn root(&self) -> PageId {
        self.note("root");
        SiteSource::root(&self.site)
    }
    fn n_pages(&self) -> usize {
        self.note("n_pages");
        SiteSource::n_pages(&self.site)
    }
    fn kind(&self, id: PageId) -> &PageKind {
        self.note("kind");
        SiteSource::kind(&self.site, id)
    }
    fn url(&self, id: PageId) -> &str {
        self.note("url");
        SiteSource::url(&self.site, id)
    }
    fn title(&self, id: PageId) -> &str {
        self.note("title");
        SiteSource::title(&self.site, id)
    }
    fn out_links(&self, id: PageId) -> &[OutLink] {
        self.note("out_links");
        SiteSource::out_links(&self.site, id)
    }
    fn section_style(&self, section: u16) -> &SectionStyle {
        self.note("section_style");
        SiteSource::section_style(&self.site, section)
    }
    fn lookup(&self, url: &str) -> Option<PageId> {
        self.note("lookup");
        SiteSource::lookup(&self.site, url)
    }
    fn rendered(&self, id: PageId) -> Arc<[u8]> {
        self.note("rendered");
        SiteSource::rendered(&self.site, id)
    }
    fn content_length(&self, id: PageId) -> u64 {
        self.note("content_length");
        SiteSource::content_length(&self.site, id)
    }
    fn target_payload(&self, id: PageId) -> Arc<[u8]> {
        self.note("target_payload");
        SiteSource::target_payload(&self.site, id)
    }
    fn render_count(&self) -> u64 {
        self.note("render_count");
        SiteSource::render_count(&self.site)
    }
    fn is_empty(&self) -> bool {
        self.note("is_empty");
        true
    }
    fn true_class(&self, _id: PageId) -> UrlClass {
        self.note("true_class");
        UrlClass::Target
    }
    fn target_ids(&self) -> Vec<PageId> {
        self.note("target_ids");
        vec![4242]
    }
    fn target_urls(&self) -> Vec<String> {
        self.note("target_urls");
        vec!["probe".to_owned()]
    }
    fn source_depths(&self) -> Vec<Option<u32>> {
        self.note("source_depths");
        vec![Some(99)]
    }
}

#[test]
fn source_wrapper_forwards_every_method() {
    let log = log();
    let site = build_site(&SiteSpec::demo(60), 7);
    let probe = ProbeSource {
        site,
        log: Arc::clone(&log),
    };
    let w = TracedSource::new(Arc::new(probe), Arc::new(Tracer::new()));
    let root = w.root();
    let html = (0..w.n_pages() as PageId)
        .find(|&id| matches!(w.kind(id), PageKind::Html(_)))
        .unwrap();
    let target = (0..w.n_pages() as PageId)
        .find(|&id| matches!(w.kind(id), PageKind::Target { .. }))
        .unwrap();
    let _ = (
        w.spec(),
        w.seed(),
        w.url(root),
        w.title(root),
        w.out_links(root),
        w.section_style(0),
    );
    assert_eq!(w.lookup(w.url(root)), Some(root));
    assert!(!w.rendered(html).is_empty());
    let _ = (
        w.content_length(html),
        w.target_payload(target),
        w.render_count(),
    );
    assert!(w.is_empty());
    assert_eq!(w.true_class(root), UrlClass::Target);
    assert_eq!(w.target_ids(), vec![4242]);
    assert_eq!(w.target_urls(), vec!["probe".to_owned()]);
    assert_eq!(w.source_depths(), vec![Some(99)]);
    for m in [
        "spec",
        "seed",
        "root",
        "n_pages",
        "kind",
        "url",
        "title",
        "out_links",
        "section_style",
        "lookup",
        "rendered",
        "content_length",
        "target_payload",
        "render_count",
        "is_empty",
        "true_class",
        "target_ids",
        "target_urls",
        "source_depths",
    ] {
        assert!(saw(&log, m), "TracedSource did not forward {m}");
    }
}

// ----------------------------------------------------------------------
// Strategy, Scorer, RevisitPolicy
// ----------------------------------------------------------------------

struct ProbeStrategy {
    log: Log,
}

impl ProbeStrategy {
    fn note(&self, m: &'static str) {
        self.log.lock().unwrap().push(m);
    }
}

impl Strategy for ProbeStrategy {
    fn name(&self) -> String {
        self.note("name");
        "probe".to_owned()
    }
    fn link_needs(&self) -> LinkNeeds {
        self.note("link_needs");
        LinkNeeds::TAG_PATH
    }
    fn next(&mut self, _rng: &mut StdRng) -> Option<Selection> {
        self.note("next");
        Some(Selection {
            url: SelUrl::Id(1),
            token: 1,
        })
    }
    fn select_batch(&mut self, _k: usize, _rng: &mut StdRng) -> Vec<Selection> {
        self.note("select_batch");
        vec![
            Selection {
                url: SelUrl::Id(2),
                token: 2
            };
            3
        ]
    }
    fn batch_selection(&self) -> bool {
        self.note("batch_selection");
        true
    }
    fn decide(&mut self, _link: &NewLink<'_>, _services: &mut Services<'_, '_>) -> LinkDecision {
        self.note("decide");
        LinkDecision::Skip
    }
    fn feedback(&mut self, _token: u64, _reward: f64) {
        self.note("feedback");
    }
    fn feedback_target(&mut self, _token: u64) {
        self.note("feedback_target");
    }
    fn feedback_error(&mut self, _token: u64) {
        self.note("feedback_error");
    }
    fn on_fetched(&mut self, _id: UrlId, _url: &str, _class: UrlClass) {
        self.note("on_fetched");
    }
    fn frontier_len(&self) -> usize {
        self.note("frontier_len");
        11
    }
    fn frontier_spilled(&self) -> usize {
        self.note("frontier_spilled");
        5
    }
    fn report(&self) -> StrategyReport {
        self.note("report");
        StrategyReport {
            n_actions: 9,
            arms: Vec::new(),
        }
    }
}

#[test]
fn strategy_wrapper_forwards_every_method() {
    let log = log();
    let tracer = Arc::new(Tracer::new());
    let mut s = TracedStrategy::new(
        Box::new(ProbeStrategy {
            log: Arc::clone(&log),
        }),
        Arc::clone(&tracer),
    );
    let mut rng = StdRng::seed_from_u64(0);
    assert_eq!(s.name(), "probe");
    assert_eq!(
        s.link_needs(),
        LinkNeeds::TAG_PATH,
        "link_needs must not fall back to ALL"
    );
    assert_eq!(s.next(&mut rng).unwrap().token, 1);
    assert_eq!(
        s.select_batch(8, &mut rng).len(),
        3,
        "select_batch must reach the ranking override"
    );
    assert!(
        s.batch_selection(),
        "batch_selection must not fall back to the sequential path"
    );
    s.feedback(1, 0.5);
    s.feedback_target(1);
    s.feedback_error(1);
    s.on_fetched(1, "https://a.example/", UrlClass::Html);
    assert_eq!(s.frontier_len(), 11);
    assert_eq!(s.frontier_spilled(), 5);
    assert_eq!(s.report().n_actions, 9);
    drop(s);
    for m in [
        "name",
        "link_needs",
        "next",
        "select_batch",
        "batch_selection",
        "feedback",
        "feedback_target",
        "feedback_error",
        "on_fetched",
        "frontier_len",
        "frontier_spilled",
        "report",
    ] {
        assert!(saw(&log, m), "TracedStrategy did not forward {m}");
    }
    // `decide` needs the session's `Services`; the crawl-equality tests
    // below cover it.
    assert_eq!(tracer.counter("core.strategy.selections"), 4.0);
    assert_eq!(tracer.counter("core.strategy.frontier_peak"), 11.0);
}

struct ProbeScorer {
    log: Log,
}

impl Scorer for ProbeScorer {
    fn name(&self) -> &'static str {
        self.log.lock().unwrap().push("name");
        "neardup"
    }
    fn score(&mut self, _cand: &Candidate) -> f64 {
        self.log.lock().unwrap().push("score");
        0.25
    }
    fn on_fetched(&mut self, _url: &str, _class: UrlClass) {
        self.log.lock().unwrap().push("on_fetched");
    }
    fn observe(&mut self, _url: &str, _reward: f64) {
        self.log.lock().unwrap().push("observe");
    }
}

#[test]
fn scorer_wrapper_forwards_every_method() {
    let log = log();
    let tracer = Arc::new(Tracer::new());
    let mut s = TracedScorer::new(
        Box::new(ProbeScorer {
            log: Arc::clone(&log),
        }),
        Arc::clone(&tracer),
    );
    let cand = Candidate {
        id: 3,
        url: "https://a.example/x".into(),
        depth: 2,
        anchor_len: 4,
    };
    assert_eq!(s.name(), "neardup");
    assert_eq!(s.score(&cand), 0.25);
    s.on_fetched("https://a.example/x", UrlClass::Html);
    s.observe("https://a.example/x", 1.0);
    drop(s);
    for m in ["name", "score", "on_fetched", "observe"] {
        assert!(saw(&log, m), "TracedScorer did not forward {m}");
    }
    assert_eq!(tracer.summary().get("value.scorer.neardup").calls, 3);
}

struct ProbePolicy {
    log: Log,
}

impl RevisitPolicy for ProbePolicy {
    fn name(&self) -> String {
        self.log.lock().unwrap().push("name");
        "probe".to_owned()
    }
    fn register(&mut self, _url: &str, _in_path: &str) {
        self.log.lock().unwrap().push("register");
    }
    fn begin_epoch(&mut self) {
        self.log.lock().unwrap().push("begin_epoch");
    }
    fn next(&mut self, _rng: &mut StdRng) -> Option<String> {
        self.log.lock().unwrap().push("next");
        Some("u".to_owned())
    }
    fn observe(&mut self, _url: &str, _obs: &Observation) {
        self.log.lock().unwrap().push("observe");
    }
    fn estimate(&self, _url: &str) -> f64 {
        self.log.lock().unwrap().push("estimate");
        0.125
    }
}

#[test]
fn policy_wrapper_forwards_every_method() {
    let log = log();
    let mut p = TracedPolicy::new(
        Box::new(ProbePolicy {
            log: Arc::clone(&log),
        }),
        Arc::new(Tracer::new()),
    );
    let mut rng = StdRng::seed_from_u64(0);
    assert_eq!(p.name(), "probe");
    p.register("u", "html body a");
    p.begin_epoch();
    assert_eq!(p.next(&mut rng).as_deref(), Some("u"));
    p.observe(
        "u",
        &Observation {
            changed: true,
            new_targets: 1,
            died: false,
        },
    );
    assert_eq!(
        p.estimate("u"),
        0.125,
        "estimate must not fall back to the default 1.0"
    );
    for m in [
        "name",
        "register",
        "begin_epoch",
        "next",
        "observe",
        "estimate",
    ] {
        assert!(saw(&log, m), "TracedPolicy did not forward {m}");
    }
}

// ----------------------------------------------------------------------
// Wrapped crawls reproduce unwrapped ones
// ----------------------------------------------------------------------

fn summary(o: &CrawlOutcome) -> String {
    let targets: Vec<&str> = o.targets.iter().map(|t| t.url.as_str()).collect();
    format!(
        "traffic={:?} pages={} targets={:?} abandoned={:?} finish={:?} mem={:?} trace={:?}",
        o.traffic,
        o.pages_crawled,
        targets,
        o.abandoned,
        o.finish_reason,
        o.mem,
        o.trace.points()
    )
}

fn crawl_both(
    make: impl Fn() -> Box<dyn Strategy>,
    cfg: &CrawlConfig,
) -> (String, String, Arc<Tracer>) {
    let site: Arc<dyn SiteSource> = Arc::new(build_site(&SiteSpec::demo(600), 11));
    let root = site.url(site.root()).to_owned();
    let plain = drive_stepped(
        &Served::new(Arc::clone(&site), None),
        &root,
        make(),
        cfg,
        &Mode::Timed,
    );
    let tracer = Arc::new(Tracer::new());
    let mode = Mode::Traced(Arc::clone(&tracer));
    let traced = drive_stepped(&Served::new(site, mode.tracer()), &root, make(), cfg, &mode);
    (summary(&plain.outcome), summary(&traced.outcome), tracer)
}

#[test]
fn wrapped_bfs_crawl_matches_unwrapped() {
    let cfg = CrawlConfig::default();
    let (plain, traced, tracer) = crawl_both(|| Box::new(QueueStrategy::bfs()), &cfg);
    assert_eq!(plain, traced);
    assert!(tracer.summary().get("core.strategy.decide").calls > 0);
    assert!(tracer.summary().get("httpsim.server.get").calls > 0);
}

#[test]
fn wrapped_sb_classifier_crawl_matches_unwrapped() {
    let cfg = CrawlConfig::builder()
        .budget(Budget::Requests(150))
        .rng_seed(5)
        .build()
        .unwrap();
    let (plain, traced, tracer) = crawl_both(|| Box::new(SbStrategy::classifier_default()), &cfg);
    assert_eq!(plain, traced);
    // The HEAD bootstrap reaches the server through the wrapped transport.
    assert!(tracer.summary().get("httpsim.transport.head").calls > 0);
}

#[test]
fn wrapped_value_crawl_matches_unwrapped_on_the_batch_path() {
    let cfg = CrawlConfig::builder()
        .budget(Budget::Requests(120))
        .rng_seed(5)
        .max_in_flight(16)
        .build()
        .unwrap();
    let tracer_for_scorers = Arc::new(Tracer::new());
    let mix = |t: Option<&Arc<Tracer>>| -> Box<dyn Strategy> {
        let raw: Vec<(Box<dyn Scorer>, f64)> = vec![
            (Box::new(DepthPriorScorer), 1.0),
            (Box::new(ClassifierScorer::paper_default()), 2.0),
            (Box::new(NearDupScorer::new()), 0.5),
            (Box::new(BanditScorer::new()), 1.0),
        ];
        let scorers = match t {
            None => raw,
            Some(t) => raw
                .into_iter()
                .map(|(s, w)| {
                    (
                        Box::new(TracedScorer::new(s, Arc::clone(t))) as Box<dyn Scorer>,
                        w,
                    )
                })
                .collect(),
        };
        Box::new(ValueStrategy::new(scorers))
    };
    let (plain, _, _) = crawl_both(|| mix(None), &cfg);
    let (_, traced, tracer) = crawl_both(|| mix(Some(&tracer_for_scorers)), &cfg);
    assert_eq!(plain, traced);
    // Batches of more than one selection: the batch path was taken.
    let select = tracer.summary().get("core.strategy.select");
    assert!(select.calls > 0);
    assert!(tracer.counter("core.strategy.selections") > select.calls as f64);
    assert!(
        tracer_for_scorers
            .summary()
            .get("value.scorer.neardup")
            .calls
            > 0
    );
}
