//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into the program: its name,
//! a tag (policy, entry or phase), start and end on the run's monotonic
//! clock, the span that caused it, and the request it serves — the
//! (mix, policy), (replication, entry) or (round, batch) pair. Spans stay
//! in memory and are written out as JSON lines when the run ends, so the
//! recorder never does I/O while the program is being measured.
//!
//! With tracing off, [`Tracer::span`] only calls its closure.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The request a span serves: two indices whose meaning depends on the
/// workload — (mix, policy) for the campaign, (replication, entry) for
/// the storm, (round, batch) for the firehose, (repetition, 0) for
/// set-up.
pub type Request = (u32, u32);

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span id, 1-based in recording order.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Layer boundary name, e.g. `scheduler.run_schedule`.
    pub name: &'static str,
    /// Qualifier within the layer (policy, entry or phase); may be empty.
    pub tag: &'static str,
    /// The request served.
    pub request: Request,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; otherwise a pass-through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_id: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Turns recording on or off between calls (the traced run alternates
    /// traced and untraced rounds to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span. Spans opened by `f` through the tracer it
    /// receives become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        request: Request,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            tag,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in the order they closed.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"request\":[{},{}],\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.tag, s.request.0, s.request.1, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_records_parents() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", "", (0, 0), |t| {
            t.span("inner", "x", (1, 2), |_| 7) + t.span("inner", "y", (1, 3), |_| 1)
        });
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        for inner in spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(inner.parent, outer.id);
            assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(
            t.span("a", "", (0, 0), |t| t.span("b", "", (0, 0), |_| 3)),
            3
        );
        assert!(t.spans().is_empty());
    }
}
