//! In-memory span recorder for the traced benchmark runs.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the tracer was created), the span that was open on the same
//! thread when it began (its parent) and the thread it ran on. Spans are
//! kept in memory while the workload runs and summarised (or written out)
//! afterwards. A layer's *self* time is its span time minus the time of
//! its direct children.
//!
//! The tracer only exists in traced runs: untraced runs call the crates
//! directly and never touch this module.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Records spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `v` to the named counter.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counters
            .lock()
            .expect("counter lock poisoned")
            .entry(name)
            .or_default() += v;
    }

    /// Raises the named gauge to `v` if `v` is larger.
    pub fn max(&self, name: &'static str, v: f64) {
        let mut counters = self.counters.lock().expect("counter lock poisoned");
        let slot = counters.entry(name).or_default();
        *slot = slot.max(v);
    }

    /// The named counter (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    fn close(&self, guard: &SpanGuard<'_>) {
        let end = Instant::now();
        OPEN.with(|open| {
            let popped = open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(guard.id), "spans close innermost first");
        });
        let span = Span {
            id: guard.id,
            parent: guard.parent,
            thread: THREAD.with(|t| *t),
            name: guard.name,
            start_ns: (guard.start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Per-name totals over every recorded span.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.spans())
    }

    /// Writes every span as one tab-separated line:
    /// `id parent thread name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, parent, s.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self);
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    /// Σ span durations.
    pub busy_ns: u64,
    /// Σ (span duration − its direct children's durations).
    pub self_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        // Span ids are dense (one atomic counter), so a vector indexes them.
        let n = spans.iter().map(|s| s.id as usize + 1).max().unwrap_or(0);
        let mut child_ns = vec![0u64; n];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans {
            let t = by_name.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
        }
        Summary { by_name }
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Totals summed over every name starting with `prefix`.
    pub fn prefixed(&self, prefix: &str) -> NameTotals {
        let mut sum = NameTotals::default();
        for (name, t) in &self.by_name {
            if name.starts_with(prefix) {
                sum.calls += t.calls;
                sum.busy_ns += t.busy_ns;
                sum.self_ns += t.self_ns;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            Span {
                id: 0,
                parent: None,
                thread: 0,
                name: "a",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                thread: 0,
                name: "b",
                start_ns: 10,
                end_ns: 50,
            },
            Span {
                id: 2,
                parent: Some(1),
                thread: 0,
                name: "c",
                start_ns: 20,
                end_ns: 30,
            },
        ];
        let s = Summary::of(&spans);
        assert_eq!(
            s.get("a"),
            NameTotals {
                calls: 1,
                busy_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(
            s.get("b"),
            NameTotals {
                calls: 1,
                busy_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(
            s.get("c"),
            NameTotals {
                calls: 1,
                busy_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn nested_guards_record_parents() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
    }
}
