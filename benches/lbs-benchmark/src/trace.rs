//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark records a span from its own code around every call into
//! a layer's public entry point; spans stay in memory and are written as
//! JSONL when the pass ends. Stage totals that a layer reports through its
//! `lbs_metrics::Metrics` sink become *derived* child spans: their length
//! is exact, their position inside the parent is not (they are laid end to
//! end from the parent's start).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `pump` or `stage.dp`.
    pub name: &'static str,
    /// Enclosing span (always recorded before this one).
    pub parent: Option<usize>,
    /// Step, epoch or request id the span belongs to.
    pub key: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Whether the span was reconstructed from a stage total.
    pub derived: bool,
}

impl Span {
    /// Length of the interval in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// End of the last derived child laid out under each parent.
    derived_cursor: BTreeMap<usize, u64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            derived_cursor: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, key: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            key,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let end_ns = self.now_ns();
            if let Some(span) = self.spans.get_mut(id.0) {
                span.end_ns = end_ns;
            }
        }
    }

    /// Records a derived child of `parent` lasting `length` (a stage total
    /// the layer measured itself). Zero-length stages are skipped.
    pub fn derived(&mut self, parent: SpanId, name: &'static str, length: Duration) {
        let Some(p) = self.spans.get(parent.0) else { return };
        let length = u64::try_from(length.as_nanos()).unwrap_or(u64::MAX);
        if length == 0 {
            return;
        }
        let (key, parent_start) = (p.key, p.start_ns);
        let cursor = self.derived_cursor.entry(parent.0).or_insert(parent_start);
        let start_ns = *cursor;
        *cursor += length;
        self.spans.push(Span {
            name,
            parent: Some(parent.0),
            key,
            start_ns,
            end_ns: start_ns + length,
            derived: true,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    /// Any I/O failure creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"derived\":{}}}",
                s.name, s.key, s.start_ns, s.end_ns, s.derived
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time per span name, in nanoseconds: each span's length minus the
/// lengths of its direct children (never below zero), summed over every
/// span whose outermost ancestor is named in `roots`.
///
/// Children of one span must not overlap each other, which holds for the
/// benchmark's single-threaded harness: work that runs on worker threads
/// is covered by one span around the whole pool phase.
pub fn self_times(spans: &[Span], roots: &[&str]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut root = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        root[i] = match span.parent {
            Some(p) if p < i => {
                covered[p] += span.duration_ns();
                root[p]
            }
            _ => i,
        };
    }
    let mut out = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if roots.contains(&spans[root[i]].name) {
            *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered[i]);
        }
    }
    out
}

/// Total length of the spans named `name` that have no parent.
pub fn root_total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.parent.is_none() && s.name == name).map(Span::duration_ns).sum()
}
