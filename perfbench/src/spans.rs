//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the arithmetic that turns them into per-layer rows.
//!
//! Nothing inside the program is instrumented: a span brackets one call
//! the benchmark makes to a layer's public function. Spans stay in memory
//! and are written out as JSONL when the run ends.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `serve.api.parse`.
    pub name: &'static str,
    /// Free-form label; the execute span carries the resolved scheme.
    pub tag: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request, trial or event the span belongs to.
    pub req: u64,
}

impl Span {
    /// Span length in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder. When off, every call is a branch and nothing else, so
/// the same code path runs traced and untraced.
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span whose end is set by [`Tracer::close`]; returns its
    /// index for use as a parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag: "",
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Sets the tag of an open or closed span.
    pub fn tag(&mut self, span: Option<usize>, tag: &'static str) {
        if let Some(i) = span {
            self.spans[i].tag = tag;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, req);
        let out = f();
        self.close(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name` (and tagged
    /// `tag`, when given).
    pub fn layer(&self, name: &str, tag: Option<&str>) -> Samples {
        Samples::new(
            self.spans
                .iter()
                .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
                .map(Span::us)
                .collect(),
        )
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Layer time that exceeds the end-to-end time it is supposed to explain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverAccounted {
    /// End-to-end time per operation, µs.
    pub e2e_us: f64,
    /// Sum of the layers' per-operation shares, µs.
    pub layers_us: f64,
}

impl OverAccounted {
    /// The (negative) unaccounted time this represents.
    pub fn signed_us(&self) -> f64 {
        self.e2e_us - self.layers_us
    }
}

impl fmt::Display for OverAccounted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layers sum to {:.3} us per operation, more than the {:.3} us end-to-end time",
            self.layers_us, self.e2e_us
        )
    }
}

/// The part of the end-to-end time per operation that no layer row
/// explains: `e2e_us − Σ shares_us`. Layers that add up to more than the
/// end-to-end time are an error the caller must report, never a silent 0.
pub fn unaccounted(e2e_us: f64, shares_us: &[f64]) -> Result<f64, OverAccounted> {
    let layers_us: f64 = shares_us.iter().sum();
    let rest = e2e_us - layers_us;
    if rest < 0.0 {
        Err(OverAccounted { e2e_us, layers_us })
    } else {
        Ok(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaccounted_is_what_the_layers_leave() {
        assert_eq!(unaccounted(10.0, &[2.0, 3.0]), Ok(5.0));
        assert_eq!(unaccounted(5.0, &[2.0, 3.0]), Ok(0.0));
        assert_eq!(unaccounted(4.0, &[]), Ok(4.0));
    }

    #[test]
    fn unaccounted_never_goes_negative_silently() {
        let err = unaccounted(4.0, &[2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            OverAccounted {
                e2e_us: 4.0,
                layers_us: 5.0
            }
        );
        assert_eq!(err.signed_us(), -1.0);
        assert!(err.to_string().contains("more than"));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("root", None, 1);
        assert_eq!(t.time("leaf", root, 1, || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, 3);
        t.time("leaf", root, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.tag(root, "x");
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].req, 3);
        assert!(spans[1].us() >= 2000.0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.layer("leaf", None).len(), 1);
        assert_eq!(t.layer("root", Some("x")).len(), 1);
        assert_eq!(t.layer("root", Some("y")).len(), 0);
    }
}
