//! In-memory spans recorded from outside the program, around the calls
//! into each layer's public functions. A span's self time is its
//! duration minus the part of it its child spans cover.

use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `pdg.build`.
    pub name: &'static str,
    /// Start, from the tracer's epoch.
    pub start: Duration,
    /// End, from the tracer's epoch.
    pub end: Duration,
    /// The span open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans; nesting follows enter/exit order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            at("op", 0, 100, None),
            at("ir.parse", 10, 30, Some(0)),
            at("scan", 40, 90, Some(0)),
            at("inner", 50, 60, Some(2)),
        ];
        let ms: Vec<u128> = self_times(&spans).iter().map(Duration::as_millis).collect();
        assert_eq!(ms, [30, 20, 40, 10]);
        assert_eq!(spans[0].duration(), Duration::from_millis(100));
    }

    #[test]
    fn tracer_nests_by_enter_order() {
        let mut t = Tracer::new();
        let root = t.enter("op");
        let v = t.span("child", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
