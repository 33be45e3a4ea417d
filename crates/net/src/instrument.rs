//! Per-phase accounting [`Transport`] decorator.
//!
//! [`InstrumentedTransport`] wraps any transport and attributes traffic to
//! named phases (e.g. `"base-ot"`, `"offline"`, `"online"`). The wrapper
//! counts application payload bytes and messages itself — independent of the
//! inner transport's own counters — so phase attribution works identically
//! over the simulated [`Endpoint`](crate::Endpoint), real TCP, or any future
//! transport, which is what the paper's per-phase Comm. tables need.
//!
//! Phase stats live behind a shared, cloneable [`InstrumentHandle`]: any
//! number of observers can snapshot the counters concurrently while the
//! transport is in use on another thread — a multi-session server
//! aggregates live per-phase traffic across all of its connections this
//! way, without `&mut` access to any transport.

use crate::channel::CommSnapshot;
use crate::transport::{Transport, TransportError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Traffic and wall-clock time attributed to one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Payload bytes sent during the phase.
    pub bytes_sent: u64,
    /// Payload bytes received during the phase.
    pub bytes_received: u64,
    /// Messages sent during the phase.
    pub messages_sent: u64,
    /// Messages received during the phase.
    pub messages_received: u64,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

impl PhaseStats {
    /// Accumulates `other` into `self` (counter-wise sum; elapsed adds).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.elapsed += other.elapsed;
    }

    /// Total payload bytes crossing the wire in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Traffic attributed to one frame tag (see [`crate::wire::tags`]).
///
/// Unlike [`PhaseStats`], byte counts here **exclude** the one-byte frame
/// tag: they are the frames' payload bytes, directly comparable to the
/// paper's per-message counts (e.g. the γ(N−1) masked-message bytes of
/// §4.1.3 for the KK13 triplet frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Payload bytes sent under this tag (tag byte excluded).
    pub bytes_sent: u64,
    /// Payload bytes received under this tag (tag byte excluded).
    pub bytes_received: u64,
    /// Frames sent under this tag.
    pub messages_sent: u64,
    /// Frames received under this tag.
    pub messages_received: u64,
}

impl TagStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &TagStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
    }

    /// Total payload bytes under this tag in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Shared, cloneable read handle onto an [`InstrumentedTransport`]'s phase
/// counters. Snapshots never block the transport for longer than a counter
/// update, and remain valid after the transport is dropped (they report the
/// final state).
#[derive(Debug, Clone, Default)]
pub struct InstrumentHandle {
    phases: Arc<Mutex<Vec<(String, PhaseStats)>>>,
    /// Per-frame-tag counters, keyed by each message's leading tag byte.
    tags: Arc<Mutex<BTreeMap<u8, TagStats>>>,
}

impl InstrumentHandle {
    fn new() -> Self {
        InstrumentHandle {
            phases: Arc::new(Mutex::new(vec![("setup".to_string(), PhaseStats::default())])),
            tags: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Snapshot of all phases in chronological order (current phase last,
    /// with its clock up to date as of the last channel operation).
    #[must_use]
    pub fn phases(&self) -> Vec<(String, PhaseStats)> {
        self.phases.lock().expect("instrument lock").clone()
    }

    /// Stats for the most recent phase with this name, if any.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<PhaseStats> {
        self.phases
            .lock()
            .expect("instrument lock")
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    /// Sum of every phase with this name (a re-entered phase opens a fresh
    /// entry; this folds them back together).
    #[must_use]
    pub fn phase_total(&self, name: &str) -> PhaseStats {
        let mut total = PhaseStats::default();
        for (n, s) in self.phases.lock().expect("instrument lock").iter() {
            if n == name {
                total.merge(s);
            }
        }
        total
    }

    /// Sum over all phases.
    #[must_use]
    pub fn total(&self) -> PhaseStats {
        let mut total = PhaseStats::default();
        for (_, s) in self.phases.lock().expect("instrument lock").iter() {
            total.merge(s);
        }
        total
    }

    /// Whether this is the last handle standing — the transport (and every
    /// other clone) has been dropped, so the counters are final. Lets a
    /// long-lived registry fold finished sessions into a frozen total
    /// instead of holding live handles forever.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        Arc::strong_count(&self.phases) == 1
    }

    /// Counters for one frame tag (zero if the tag never crossed the wire).
    #[must_use]
    pub fn tag(&self, tag: u8) -> TagStats {
        self.tags.lock().expect("instrument lock").get(&tag).copied().unwrap_or_default()
    }

    /// Every tag observed on the wire with its counters, in tag order.
    #[must_use]
    pub fn tags(&self) -> Vec<(u8, TagStats)> {
        self.tags.lock().expect("instrument lock").iter().map(|(&t, &s)| (t, s)).collect()
    }

    fn with_current<F: FnOnce(&mut PhaseStats)>(&self, f: F) {
        let mut phases = self.phases.lock().expect("instrument lock");
        f(&mut phases.last_mut().expect("at least one phase").1)
    }

    /// Attributes one sent message to its leading tag byte. Payload bytes
    /// are counted without the tag byte itself; empty (untagged) messages
    /// are skipped.
    fn record_tag_send(&self, payload: &[u8]) {
        if let Some((&tag, rest)) = payload.split_first() {
            let mut tags = self.tags.lock().expect("instrument lock");
            let entry = tags.entry(tag).or_default();
            entry.bytes_sent += rest.len() as u64;
            entry.messages_sent += 1;
        }
    }

    fn push(&self, name: &str) {
        self.phases
            .lock()
            .expect("instrument lock")
            .push((name.to_string(), PhaseStats::default()));
    }
}

/// Decorator recording per-phase byte/message/time counters, readable
/// concurrently through [`InstrumentHandle`]s.
pub struct InstrumentedTransport<T> {
    inner: T,
    handle: InstrumentHandle,
    phase_started: Instant,
}

impl<T: Transport> InstrumentedTransport<T> {
    /// Wraps `inner`, opening an initial phase named `"setup"`.
    pub fn new(inner: T) -> Self {
        Self { inner, handle: InstrumentHandle::new(), phase_started: Instant::now() }
    }

    /// A cloneable read handle onto this transport's phase counters.
    #[must_use]
    pub fn handle(&self) -> InstrumentHandle {
        self.handle.clone()
    }

    /// Closes the current phase and opens a new one. Re-entering a name
    /// opens a fresh entry; entries are reported in chronological order.
    pub fn enter_phase(&mut self, name: &str) {
        self.roll_clock();
        self.handle.push(name);
    }

    /// Stats for the most recent phase with this name, if any.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<PhaseStats> {
        self.handle.phase(name)
    }

    /// All phases in chronological order (current phase last, with its
    /// clock up to date as of the last channel operation).
    #[must_use]
    pub fn phases(&self) -> Vec<(String, PhaseStats)> {
        self.handle.phases()
    }

    /// Unwraps the decorator, returning the inner transport. Handles stay
    /// valid and report the final counters.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Meters one received frame of `len` bytes (tag byte included) led
    /// by `tag`, exactly as a [`recv`](Transport::recv) of that frame
    /// would — for hosts that consume frames elsewhere and mirror only
    /// their shape here. An empty frame (`len == 0`) counts toward the
    /// phase but carries no tag.
    pub fn record_recv(&mut self, tag: u8, len: usize) {
        self.roll_clock();
        self.handle.with_current(|s| {
            s.bytes_received += len as u64;
            s.messages_received += 1;
        });
        if let Some(rest) = len.checked_sub(1) {
            let mut tags = self.handle.tags.lock().expect("instrument lock");
            let entry = tags.entry(tag).or_default();
            entry.bytes_received += rest as u64;
            entry.messages_received += 1;
        }
    }

    fn roll_clock(&mut self) {
        let now = Instant::now();
        let delta = now.duration_since(self.phase_started);
        self.handle.with_current(|s| s.elapsed += delta);
        self.phase_started = now;
    }
}

impl<T: Transport> Transport for InstrumentedTransport<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)?;
        self.roll_clock();
        self.handle.with_current(|s| {
            s.bytes_sent += payload.len() as u64;
            s.messages_sent += 1;
        });
        self.handle.record_tag_send(payload);
        Ok(())
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        let len = payload.len() as u64;
        let tag_prefix: Option<u8> = payload.first().copied();
        self.inner.send_owned(payload)?;
        self.roll_clock();
        self.handle.with_current(|s| {
            s.bytes_sent += len;
            s.messages_sent += 1;
        });
        if let Some(tag) = tag_prefix {
            let mut tags = self.handle.tags.lock().expect("instrument lock");
            let entry = tags.entry(tag).or_default();
            entry.bytes_sent += len - 1;
            entry.messages_sent += 1;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv()?;
        self.record_recv(payload.first().copied().unwrap_or(0), payload.len());
        Ok(payload)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_phase_budget(budget)
    }

    fn mark_phase(&mut self, label: &str) {
        self.enter_phase(label);
    }

    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
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
    use crate::{Endpoint, NetworkModel};

    #[test]
    fn traffic_is_attributed_to_phases() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        a.send(b"xy").unwrap();
        a.enter_phase("online");
        a.send_u64(1).unwrap();
        a.send_u64(2).unwrap();
        b.send(b"reply").unwrap();
        let _ = a.recv().unwrap();

        let setup = a.phase("setup").unwrap();
        assert_eq!(setup.bytes_sent, 2);
        assert_eq!(setup.messages_sent, 1);
        assert_eq!(setup.bytes_received, 0);

        let online = a.phase("online").unwrap();
        assert_eq!(online.bytes_sent, 18, "two u64 frames: 2 × (1 tag + 8 payload)");
        assert_eq!(online.messages_sent, 2);
        assert_eq!(online.bytes_received, 5);
        assert_eq!(online.messages_received, 1);

        // Global counters come from the inner transport, unchanged.
        assert_eq!(a.snapshot().bytes_sent, 20);
    }

    #[test]
    fn traffic_is_attributed_to_frame_tags() {
        use crate::wire::tags;
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        let handle = a.handle();
        a.send_u64(1).unwrap();
        a.send_u64(2).unwrap();
        a.send_blocks(&[abnn2_crypto::Block::from(7u128)]).unwrap();
        b.send_u64(3).unwrap();
        let _ = a.recv_u64().unwrap();

        // Tag counters exclude the tag byte: pure payload bytes.
        let u64s = handle.tag(tags::U64);
        assert_eq!(u64s.bytes_sent, 16);
        assert_eq!(u64s.messages_sent, 2);
        assert_eq!(u64s.bytes_received, 8);
        assert_eq!(u64s.messages_received, 1);
        let blocks = handle.tag(tags::BLOCKS);
        assert_eq!(blocks.bytes_sent, 16);
        assert_eq!(blocks.messages_sent, 1);
        assert_eq!(handle.tag(tags::HELLO), TagStats::default());
        assert_eq!(handle.tags().len(), 2);
        for _ in 0..3 {
            let _ = b.recv().unwrap();
        }
    }

    /// Metering a frame by shape counts exactly what receiving it does.
    #[test]
    fn record_recv_matches_a_metered_recv() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut received = InstrumentedTransport::new(a);
        let (c, _d) = Endpoint::pair(NetworkModel::instant());
        let mut recorded = InstrumentedTransport::new(c);
        for frame in [vec![7u8, 1, 2, 3], vec![9u8], Vec::new()] {
            b.send(&frame).unwrap();
            let got = received.recv().unwrap();
            recorded.record_recv(got.first().copied().unwrap_or(0), got.len());
        }
        let strip = |phases: Vec<(String, PhaseStats)>| -> Vec<(String, u64, u64)> {
            phases.into_iter().map(|(n, s)| (n, s.bytes_received, s.messages_received)).collect()
        };
        assert_eq!(strip(received.phases()), strip(recorded.phases()));
        assert_eq!(received.handle().tags(), recorded.handle().tags());
        assert_eq!(recorded.handle().tag(7).bytes_received, 3);
        assert_eq!(recorded.phase("setup").unwrap().messages_received, 3);
    }

    #[test]
    fn reentered_phase_gets_fresh_entry() {
        let (a, _b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        a.enter_phase("layer");
        a.enter_phase("relu");
        a.enter_phase("layer");
        assert_eq!(a.phases().len(), 4);
        assert_eq!(a.phases()[1].0, "layer");
        assert_eq!(a.phases()[3].0, "layer");
    }

    #[test]
    fn handle_snapshots_concurrently_and_survives_drop() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        let handle = a.handle();
        a.enter_phase("offline");

        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                // Live snapshot from another thread, no &mut access.
                loop {
                    if handle.phase_total("offline").messages_sent >= 3 {
                        return;
                    }
                    std::thread::yield_now();
                }
            });
            for v in 0..3u64 {
                a.send_u64(v).unwrap();
            }
            watcher.join().unwrap();
        });
        for _ in 0..3 {
            let _ = b.recv().unwrap();
        }

        let handle2 = handle.clone();
        drop(a);
        assert_eq!(handle2.phase("offline").unwrap().bytes_sent, 27);
        assert_eq!(handle2.total().bytes_sent, 27);
    }

    #[test]
    fn merge_and_totals() {
        let mut a = PhaseStats {
            bytes_sent: 1,
            bytes_received: 2,
            messages_sent: 3,
            messages_received: 4,
            elapsed: Duration::from_millis(5),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.bytes_sent, 2);
        assert_eq!(a.messages_received, 8);
        assert_eq!(a.elapsed, Duration::from_millis(10));
        assert_eq!(a.total_bytes(), 6);
    }
}
