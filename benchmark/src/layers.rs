//! Per-layer accounting for the traced run.
//!
//! Spans come from two places, both recorded by `xlink_obs::prof` in
//! `Mode::Record`:
//!
//! * the program's own spans (`quic/*`, `core/*`, `netsim/*`, `fleet/*`);
//! * spans this benchmark opens around each public call it makes
//!   (`harness/run_pop`, `netsim/run_until`, `traces/*`) and around every
//!   `Endpoint` method of the mobility session, through [`Timed`].
//!
//! The program's spans nest under the benchmark's, so a layer's self time
//! is its inclusive time minus the time its child spans cover.

use std::time::Duration as WallDuration;
use xlink_clock::Instant;
use xlink_netsim::{Endpoint, Transmit};
use xlink_obs::prof::{self, is_stack_prefix, ProfReport, ProfRow};

/// Totals over every row whose span is `leaf` (under any parent).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub self_allocs: u64,
}

impl SpanTotals {
    /// Inclusive nanoseconds per call (0 when the span never ran).
    pub fn incl_per_call(&self) -> f64 {
        ratio(self.incl_ns as f64, self.calls as f64)
    }

    /// Self nanoseconds per call (0 when the span never ran).
    pub fn self_per_call(&self) -> f64 {
        ratio(self.self_ns as f64, self.calls as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn matches_leaf(path: &str, leaf: &str) -> bool {
    path == leaf || (path.ends_with(leaf) && path[..path.len() - leaf.len()].ends_with(';'))
}

/// Rows directly below `parent` in the span tree.
fn children<'a>(report: &'a ProfReport, parent: &'a str) -> impl Iterator<Item = &'a ProfRow> {
    report.rows.iter().filter(move |c| {
        is_stack_prefix(parent, &c.path)
            && !report
                .rows
                .iter()
                .any(|m| is_stack_prefix(parent, &m.path) && is_stack_prefix(&m.path, &c.path))
    })
}

/// Sum a span over every place it appears in the tree. `leaf` is the
/// folded form of the span name (`quic;aead_seal` for `quic/aead_seal`).
pub fn span(report: &ProfReport, leaf: &str) -> SpanTotals {
    let mut t = SpanTotals::default();
    for r in report.rows.iter().filter(|r| matches_leaf(&r.path, leaf)) {
        let child_allocs: u64 = children(report, &r.path).map(|c| c.allocs).sum();
        t.calls += r.calls;
        t.incl_ns += r.incl_ns;
        t.self_ns += r.excl_ns;
        t.allocs += r.allocs;
        t.self_allocs += r.allocs.saturating_sub(child_allocs);
    }
    t
}

/// Calls of span `leaf` that ran inside span `ancestor`.
pub fn calls_within(report: &ProfReport, ancestor: &str, leaf: &str) -> u64 {
    report
        .rows
        .iter()
        .filter(|r| matches_leaf(&r.path, leaf) && r.path.contains(&format!("{ancestor};")))
        .map(|r| r.calls)
        .sum()
}

/// Root rows: spans with no ancestor among the rows.
fn roots(report: &ProfReport) -> impl Iterator<Item = &ProfRow> {
    report.rows.iter().filter(|r| !report.rows.iter().any(|p| is_stack_prefix(&p.path, &r.path)))
}

/// Nest a profile taken by the program itself (`run_fleet_profiled`
/// drains the recorder on entry, so no benchmark span can stay open
/// across it) under a span named `name` that lasted `wall`.
pub fn graft(name: &str, wall: WallDuration, inner: &ProfReport) -> ProfReport {
    let wall_ns = wall.as_nanos() as u64;
    let (root_ns, root_allocs, root_bytes) = roots(inner)
        .fold((0, 0, 0), |(n, a, b), r| (n + r.incl_ns, a + r.allocs, b + r.alloc_bytes));
    let mut rows = vec![ProfRow {
        path: name.to_string(),
        calls: 1,
        incl_ns: wall_ns,
        excl_ns: wall_ns.saturating_sub(root_ns),
        allocs: root_allocs,
        alloc_bytes: root_bytes,
    }];
    rows.extend(
        inner.rows.iter().map(|r| ProfRow { path: format!("{name};{}", r.path), ..r.clone() }),
    );
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    ProfReport { rows }
}

/// Run `f` with this thread's recorder on and return its spans.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, ProfReport) {
    prof::set_mode(prof::Mode::Record);
    let _stale = prof::take_report();
    let out = f();
    let report = prof::take_report();
    prof::set_mode(prof::Mode::Off);
    (out, report)
}

/// Opens the client- or server-side span of one `Endpoint` method.
macro_rules! side_span {
    ($server:expr, $client_name:literal, $server_name:literal) => {
        if $server {
            prof::span!($server_name)
        } else {
            prof::span!($client_name)
        }
    };
}

/// An `Endpoint` that opens a span around every method of the one it
/// wraps and counts empty `poll_transmit` results. `SERVER` picks the
/// span names.
pub struct Timed<E, const SERVER: bool> {
    pub inner: E,
    pub polls: u64,
    pub empty_polls: u64,
}

impl<E, const SERVER: bool> Timed<E, SERVER> {
    pub fn new(inner: E) -> Self {
        Timed { inner, polls: 0, empty_polls: 0 }
    }
}

impl<E: Endpoint, const SERVER: bool> Endpoint for Timed<E, SERVER> {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        let _s = side_span!(SERVER, "harness/client_on_datagram", "harness/server_on_datagram");
        self.inner.on_datagram(now, path, payload)
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        let _s = side_span!(SERVER, "harness/client_poll_transmit", "harness/server_poll_transmit");
        let tx = self.inner.poll_transmit(now);
        self.polls += 1;
        self.empty_polls += u64::from(tx.is_none());
        tx
    }

    fn poll_timeout(&self) -> Option<Instant> {
        let _s = side_span!(SERVER, "harness/client_poll_timeout", "harness/server_poll_timeout");
        self.inner.poll_timeout()
    }

    fn on_timeout(&mut self, now: Instant) {
        let _s = side_span!(SERVER, "harness/client_on_timeout", "harness/server_on_timeout");
        self.inner.on_timeout(now)
    }

    fn on_tick(&mut self, now: Instant) {
        let _s = side_span!(SERVER, "video/client_on_tick", "harness/server_on_tick");
        self.inner.on_tick(now)
    }

    fn is_done(&self) -> bool {
        let _s = side_span!(SERVER, "harness/client_is_done", "harness/server_is_done");
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, incl_ns: u64, allocs: u64) -> ProfRow {
        ProfRow { path: path.into(), calls: 2, incl_ns, excl_ns: incl_ns, allocs, alloc_bytes: 0 }
    }

    #[test]
    fn span_sums_a_leaf_everywhere_and_subtracts_children() {
        let report = ProfReport {
            rows: vec![
                row("a;core;reinject", 100, 10),
                row("a;core;reinject;quic;aead_seal", 40, 3),
                row("b;core;reinject", 50, 5),
                row("b;xcore;reinject", 999, 999),
            ],
        };
        let t = span(&report, "core;reinject");
        assert_eq!(t.calls, 4);
        assert_eq!(t.incl_ns, 150);
        assert_eq!(t.allocs, 15);
        assert_eq!(t.self_allocs, 12);
        assert_eq!(calls_within(&report, "core;reinject", "quic;aead_seal"), 2);
    }

    #[test]
    fn graft_nests_roots_under_the_wrapper() {
        let inner =
            ProfReport { rows: vec![row("fleet;admit", 30, 1), row("fleet;admit;x", 10, 0)] };
        let g = graft("harness;run_fleet_profiled", WallDuration::from_nanos(100), &inner);
        let top = g.get("harness;run_fleet_profiled").expect("wrapper row");
        assert_eq!((top.incl_ns, top.excl_ns), (100, 70));
        assert!(g.get("harness;run_fleet_profiled;fleet;admit;x").is_some());
    }
}
