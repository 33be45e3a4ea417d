//! In-memory spans: recorded by the benchmark around calls into each
//! layer, written out at exit, and folded into per-layer self time.
//!
//! A span's layer is the first dot-separated component of its name
//! (`gc.online.op3-relu` belongs to `gc`), and its self time is its
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Microseconds since the tracer's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The session (request) the span belongs to.
    pub session: u64,
}

impl Span {
    /// The span's layer: the name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Duration in microseconds.
    #[must_use]
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span collector with one time origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Microseconds from the epoch to `t`.
    #[must_use]
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index (for children).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        session: u64,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start_us: self.at(start),
            end_us: self.at(end),
            parent,
            session,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves another tracer's spans in, re-parenting them past ours and
    /// re-basing their times on our epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.at(other.epoch) - other.at(other.epoch);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_us += offset;
            s.end_us += offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path` as JSON lines (see [`Tracer::write_to`]).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut out)?;
        out.flush()
    }

    /// Writes one JSON object per span and line: id, name, start, end,
    /// parent id and session id.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"session\":{}}}",
                s.name, s.start_us, s.end_us, s.session
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus its direct children's.
#[must_use]
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

/// Self time summed per layer, in microseconds.
#[must_use]
pub fn layer_self_us(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_us: start, end_us: end, parent, session: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("core.session", 0.0, 100.0, None),
            span("ot.base_setup", 0.0, 30.0, Some(0)),
            span("net.recv", 5.0, 25.0, Some(1)),
            span("gc.online.op1-relu", 40.0, 90.0, Some(0)),
            span("net.recv", 50.0, 60.0, Some(3)),
            span("net.recv", 70.0, 75.0, Some(3)),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 10.0, 20.0, 35.0, 10.0, 5.0]);
        let layers = layer_self_us(&spans);
        assert_eq!(layers["core"], 20.0);
        assert_eq!(layers["ot"], 10.0);
        assert_eq!(layers["gc"], 35.0);
        assert_eq!(layers["net"], 35.0);
        // Self times partition the root span exactly.
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn absorb_rebases_parents_and_times() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.push("core.session", t0, t0 + Duration::from_millis(10), None, 1);
        let mut b = Tracer::new(t0 + Duration::from_millis(2));
        let root = b.push("core.session", b.epoch, b.epoch + Duration::from_millis(4), None, 2);
        b.push("net.recv", b.epoch, b.epoch + Duration::from_millis(1), Some(root), 2);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert!((s[1].start_us - 2000.0).abs() < 1e-6);
        assert!((s[1].end_us - 6000.0).abs() < 1e-6);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        let root = t.push("core.session", t0, t0 + Duration::from_millis(3), None, 7);
        t.push("net.recv", t0, t0 + Duration::from_millis(1), Some(root), 7);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"session\":7"));
        assert!(lines[1].contains("\"name\":\"net.recv\"") && lines[1].contains("\"parent\":0"));
    }
}
