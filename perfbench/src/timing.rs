//! A timing [`Transport`] decorator: splits a party's wall time into
//! labelled segments at every `mark_phase` call, records how long each
//! blocking `recv` waited for the peer, and counts bytes per frame tag.
//!
//! Over the session driver the marks arrive as `Mark` effects, which are
//! applied after the driver step that produced them. A segment therefore
//! holds the compute of every step that started while its label was
//! current: replay work lands on the op the driver was parked in.

use crate::trace::Tracer;
use abnn2_net::{CommSnapshot, Transport, TransportError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One labelled stretch of a party's wall time.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The `mark_phase` label, e.g. `"offline:op0/dense"`.
    pub label: String,
    /// When the label became current.
    pub start: Instant,
    /// When the next label replaced it (or the session ended).
    pub end: Instant,
    /// Blocking `recv` intervals inside the segment.
    pub waits: Vec<(Instant, Instant)>,
    /// Bytes sent and received inside the segment.
    pub bytes: u64,
}

impl Segment {
    /// Wall time of the segment.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }

    /// Time blocked in `recv`.
    #[must_use]
    pub fn wait(&self) -> Duration {
        self.waits.iter().map(|(a, b)| b.saturating_duration_since(*a)).sum()
    }

    /// Wall time not spent blocked in `recv`.
    #[must_use]
    pub fn compute(&self) -> Duration {
        self.wall().saturating_sub(self.wait())
    }

    /// The top-level phase: the label up to the first `:`.
    #[must_use]
    pub fn phase(&self) -> &str {
        self.label.split(':').next().unwrap_or("")
    }

    /// The op part of the label (`"op0/dense"`), if the label has one.
    #[must_use]
    pub fn op(&self) -> Option<&str> {
        self.label.split_once(':').map(|(_, op)| op)
    }
}

/// What a timed session observed.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Labelled segments in order.
    pub segments: Vec<Segment>,
    /// Bytes sent plus received, per frame tag.
    pub tag_bytes: BTreeMap<u8, u64>,
}

impl Timeline {
    /// Wall time from the first segment's start to the last one's end.
    #[must_use]
    pub fn wall(&self) -> Duration {
        match (self.segments.first(), self.segments.last()) {
            (Some(a), Some(b)) => b.end.saturating_duration_since(a.start),
            _ => Duration::ZERO,
        }
    }

    /// Records the session as spans under one `core.session` root:
    /// phase spans, op spans inside them, and `net.recv` spans inside
    /// those. Returns the root's index.
    pub fn to_spans(&self, tracer: &mut Tracer, session: u64) -> Option<usize> {
        let (first, last) = (self.segments.first()?, self.segments.last()?);
        let root = tracer.push("core.session", first.start, last.end, None, session);
        let mut i = 0;
        while i < self.segments.len() {
            let phase = self.segments[i].phase();
            let mut j = i;
            while j < self.segments.len() && self.segments[j].phase() == phase {
                j += 1;
            }
            let run = &self.segments[i..j];
            let phase_span = tracer.push(
                format!("{}.{phase}", phase_layer(phase)),
                run[0].start,
                run[run.len() - 1].end,
                Some(root),
                session,
            );
            for seg in run {
                let parent = match seg.op() {
                    Some(op) => tracer.push(
                        format!("{}.{}", op_layer(phase, op), metric_label(&seg.label)),
                        seg.start,
                        seg.end,
                        Some(phase_span),
                        session,
                    ),
                    None => phase_span,
                };
                for &(a, b) in &seg.waits {
                    tracer.push("net.recv", a, b, Some(parent), session);
                }
            }
            i = j;
        }
        Some(root)
    }
}

/// The layer a whole phase belongs to: base-OT setup and triplet
/// generation are OT work, everything else is the protocol core.
#[must_use]
pub fn phase_layer(phase: &str) -> &'static str {
    match phase {
        "setup" | "offline" => "ot",
        _ => "core",
    }
}

/// The layer an op belongs to: offline ops generate triplets over OT,
/// online nonlinear ops run garbled circuits, the rest is share
/// arithmetic in the core.
#[must_use]
pub fn op_layer(phase: &str, op: &str) -> &'static str {
    if phase == "offline" {
        return "ot";
    }
    match op.rsplit('/').next() {
        Some("relu" | "maxpool" | "softmax" | "gelu" | "layernorm") => "gc",
        _ => "core",
    }
}

/// `"online:op3/relu"` → `"online.op3-relu"`: a label as a metric-name
/// component.
#[must_use]
pub fn metric_label(label: &str) -> String {
    label.replace(':', ".").replace('/', "-")
}

/// The decorator. Wrap a party's transport, run the session, then call
/// [`Timed::finish`].
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    line: Timeline,
}

impl<T: Transport> Timed<T> {
    /// Starts timing now, under the label `first` until the first mark.
    pub fn new(inner: T, first: &str) -> Self {
        let now = Instant::now();
        let seg =
            Segment { label: first.into(), start: now, end: now, waits: Vec::new(), bytes: 0 };
        Timed { inner, line: Timeline { segments: vec![seg], tag_bytes: BTreeMap::new() } }
    }

    fn current(&mut self) -> &mut Segment {
        self.line.segments.last_mut().expect("a timed transport always has a segment")
    }

    fn count(&mut self, frame: &[u8]) {
        let len = frame.len() as u64;
        *self.line.tag_bytes.entry(frame.first().copied().unwrap_or(0)).or_insert(0) += len;
        self.current().bytes += len;
    }

    /// Closes the last segment now and returns the timeline.
    pub fn finish(mut self) -> Timeline {
        self.current().end = Instant::now();
        self.line
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.count(payload);
        self.inner.send(payload)
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        self.count(&payload);
        self.inner.send_owned(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let t0 = Instant::now();
        let frame = self.inner.recv();
        let t1 = Instant::now();
        self.current().waits.push((t0, t1));
        if let Ok(f) = &frame {
            self.count(f);
        }
        frame
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }

    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_phase_budget(budget)
    }

    fn mark_phase(&mut self, label: &str) {
        let now = Instant::now();
        self.current().end = now;
        self.line.segments.push(Segment {
            label: label.into(),
            start: now,
            end: now,
            waits: Vec::new(),
            bytes: 0,
        });
        self.inner.mark_phase(label);
    }

    fn take_scratch(&mut self) -> Vec<u8> {
        self.inner.take_scratch()
    }

    fn store_scratch(&mut self, buf: Vec<u8>) {
        self.inner.store_scratch(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{Endpoint, NetworkModel};

    #[test]
    fn segments_split_at_marks_and_count_tag_bytes() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut t = Timed::new(a, "handshake");
        t.send(&[0x30, 1, 2, 3]).unwrap();
        t.mark_phase("online:op1/relu");
        b.send(&[0x21, 9, 9]).unwrap();
        assert_eq!(t.recv().unwrap(), vec![0x21, 9, 9]);
        t.send_owned(vec![0x21, 7]).unwrap();
        let line = t.finish();
        assert_eq!(line.segments.len(), 2);
        assert_eq!(line.segments[0].label, "handshake");
        assert_eq!(line.segments[0].bytes, 4);
        assert_eq!(line.segments[1].op(), Some("op1/relu"));
        assert_eq!(line.segments[1].waits.len(), 1);
        assert_eq!(line.segments[1].bytes, 5);
        assert_eq!(line.tag_bytes[&0x30], 4);
        assert_eq!(line.tag_bytes[&0x21], 5);
        // The byte split per segment and per tag account for the same traffic.
        let by_seg: u64 = line.segments.iter().map(|s| s.bytes).sum();
        assert_eq!(by_seg, line.tag_bytes.values().sum::<u64>());
        assert_eq!(b.recv().unwrap(), vec![0x30, 1, 2, 3]);
    }

    #[test]
    fn spans_nest_ops_and_waits_by_layer() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut t = Timed::new(a, "handshake");
        t.mark_phase("online");
        t.mark_phase("online:op0/dense");
        t.mark_phase("online:op1/relu");
        b.send(&[0x21]).unwrap();
        t.recv().unwrap();
        let line = t.finish();
        let mut tracer = Tracer::new(line.segments[0].start);
        let root = line.to_spans(&mut tracer, 3).unwrap();
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "core.session",
                "core.handshake",
                "core.online",
                "core.online.op0-dense",
                "gc.online.op1-relu",
                "net.recv"
            ]
        );
        let parents: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(root), Some(root), Some(2), Some(2), Some(4)]);
    }

    #[test]
    fn layers_of_labels() {
        assert_eq!(op_layer("offline", "op0/dense"), "ot");
        assert_eq!(op_layer("online", "op3/softmax"), "gc");
        assert_eq!(op_layer("online", "op2/matmulss"), "core");
        assert_eq!(metric_label("offline:op4/dense"), "offline.op4-dense");
    }
}
