//! The served path end to end: a real `abnn2_serve::Server` on loopback
//! TCP, driven by a closed-loop `ServeClient`, every logit checked
//! against the plaintext oracle.

use crate::stats::process_cpu;
use crate::timing::metric_label;
use crate::trace::Tracer;
use crate::workload::{Model, ModelKind, Workload, FIG4_OFFLINE_BYTES, FIG4_ONLINE_BYTES};
use abnn2_serve::{ServeClient, ServeConfig, ServeReport, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Ready bundle pairs per worker shard for warm workloads: enough that
/// the closed-loop client never finds the pool empty.
pub const POOL_DEPTH: usize = 4;

/// The server configuration every workload uses: two event-loop workers
/// with one session each, a precompute pool only when clients ask for
/// bundles.
#[must_use]
pub fn config(wl: &Workload, seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        sessions_per_worker: 1,
        queue_capacity: 4,
        pool_depth: if wl.warm { POOL_DEPTH } else { 0 },
        pool_batches: vec![1],
        seed,
        ..ServeConfig::default()
    }
}

/// Set-up as a user pays it: build the model, start the server, and
/// fill the pool to depth.
///
/// # Errors
///
/// Binding the listener, or a pool that does not fill within a minute.
pub fn set_up(wl: &Workload, seed: u64) -> Result<(Model, Server), String> {
    let model = Model::build(wl.model, seed);
    let server = Server::start(model.served(), "127.0.0.1:0", config(wl, seed))
        .map_err(|e| format!("server start: {e}"))?;
    if wl.warm && !server.warm_up(1, POOL_DEPTH, Duration::from_secs(60)) {
        return Err("pool did not reach its depth".into());
    }
    Ok((model, server))
}

/// One verified prediction.
#[derive(Debug, Clone)]
pub struct Sample {
    /// From the `ServeClient::run` call to verified logits (and, in a
    /// traced loop, recorded spans).
    pub latency: Duration,
    /// The client's per-phase account of the session.
    pub report: ServeReport,
}

/// What one closed-loop run produced.
#[derive(Debug)]
pub struct LoopOutcome {
    /// Verified predictions, in completion order.
    pub samples: Vec<Sample>,
    /// Why each failed prediction failed.
    pub failures: Vec<String>,
    /// From the first request to the last completion.
    pub window: Duration,
    /// Process CPU time (user + system) over the window.
    pub cpu: Duration,
    /// Spans of the requests, when the loop was traced.
    pub spans: Tracer,
}

impl LoopOutcome {
    /// Predictions issued.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.samples.len() + self.failures.len()
    }
}

/// Runs one closed-loop client against `addr` until `duration` has
/// passed: it issues its next request only after the previous one was
/// verified, and issues at least one. `stream` separates the input
/// streams of several loops under one seed. With `trace`, every request
/// records its spans (a `serve.request` root with one child per
/// reported phase) before it counts as done.
#[must_use]
pub fn closed_loop(
    addr: SocketAddr,
    model: &Model,
    wl: &Workload,
    seed: u64,
    stream: u64,
    duration: Duration,
    trace: bool,
) -> LoopOutcome {
    let client = ServeClient::for_model(model.public()).with_bundles(wl.warm);
    let mut rng = StdRng::seed_from_u64(input_seed(seed, stream));
    let cpu0 = process_cpu();
    let started = Instant::now();
    let (mut samples, mut failures) = (Vec::new(), Vec::new());
    let mut spans = Tracer::new(started);
    let mut issued = 0u64;
    while issued == 0 || started.elapsed() < duration {
        let session = issued;
        issued += 1;
        let x = model.input(&mut rng);
        let expected = model.expected(&x);
        let t0 = Instant::now();
        let verdict = match client.run(addr, std::slice::from_ref(&x), &mut rng) {
            Ok((y, report)) if y.col(0) == expected => check_bytes(wl, &report).map(|()| report),
            Ok(_) => Err("served logits differ from forward_exact".to_string()),
            Err(e) => Err(format!("request failed: {e}")),
        };
        if let (true, Ok(report)) = (trace, &verdict) {
            record(&mut spans, t0, report, session);
        }
        let latency = t0.elapsed();
        match verdict {
            Ok(report) => samples.push(Sample { latency, report }),
            Err(e) => failures.push(format!("request {session}: {e}")),
        }
    }
    let window = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    LoopOutcome { samples, failures, window, cpu, spans }
}

/// Records one served request issued at `t0`: a `serve.request` root
/// ending now, and its reported phases laid end to end as children.
fn record(tracer: &mut Tracer, t0: Instant, report: &ServeReport, session: u64) {
    let root = tracer.push("serve.request", t0, Instant::now(), None, session);
    let mut at = t0;
    for (name, stats) in &report.phases {
        let name = format!("serve.{}", metric_label(name));
        tracer.push(name, at, at + stats.elapsed, Some(root), session);
        at += stats.elapsed;
    }
}

/// The RNG seed of input stream `stream` of a run seeded with `seed`
/// (splitmix64 finaliser, so neighbouring seeds and streams diverge).
#[must_use]
pub fn input_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes and messages of one served prediction, by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bytes {
    /// Hello exchange.
    pub handshake: u64,
    /// Base-OT setup.
    pub setup: u64,
    /// Interactive offline phase (all `offline:*` ops).
    pub offline: u64,
    /// Dealer-bundle transfer of a warm session.
    pub bundle: u64,
    /// Online phase (all `online:*` ops).
    pub online: u64,
    /// Every phase.
    pub total: u64,
    /// Messages sent plus received, every phase.
    pub messages: u64,
}

impl Bytes {
    /// Folds a report's phases (sub-phases such as `offline:op0/dense`
    /// count toward their phase).
    #[must_use]
    pub fn of(report: &ServeReport) -> Self {
        let total = report.phases.iter().fold((0, 0), |(b, m), (_, s)| {
            (b + s.total_bytes(), m + s.messages_sent + s.messages_received)
        });
        Bytes {
            handshake: report.phase("handshake").total_bytes(),
            setup: report.phase("setup").total_bytes(),
            offline: report.phase("offline").total_bytes(),
            bundle: report.phase("bundle").total_bytes(),
            online: report.phase("online").total_bytes(),
            total: total.0,
            messages: total.1,
        }
    }

    /// Offline-side bytes as the paper counts them for a warm or cold
    /// session: the interactive offline phase plus any bundle.
    #[must_use]
    pub fn offline_side(&self) -> u64 {
        self.offline + self.bundle
    }
}

/// Cross-checks a Fig-4 session's bytes against the paper's Table 4: a
/// cold session moves exactly the Table-4 handshake + setup + offline
/// and online bytes; a warm one the Table-4 online bytes.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_bytes(wl: &Workload, report: &ServeReport) -> Result<(), String> {
    if wl.model != ModelKind::Fig4 {
        return Ok(());
    }
    let b = Bytes::of(report);
    let pre_online = b.handshake + b.setup + b.offline;
    if !report.warm && pre_online != FIG4_OFFLINE_BYTES {
        return Err(format!(
            "cold handshake+setup+offline moved {pre_online} B, Table 4 says {FIG4_OFFLINE_BYTES} B"
        ));
    }
    if b.online != FIG4_ONLINE_BYTES {
        return Err(format!("online moved {} B, Table 4 says {FIG4_ONLINE_BYTES} B", b.online));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;
    use abnn2_net::PhaseStats;

    fn stats(sent: u64, received: u64) -> PhaseStats {
        PhaseStats {
            bytes_sent: sent,
            bytes_received: received,
            messages_sent: 1,
            messages_received: 1,
            elapsed: Duration::ZERO,
        }
    }

    fn report(warm: bool, phases: &[(&str, PhaseStats)]) -> ServeReport {
        ServeReport {
            attempts: 1,
            resumed: false,
            warm,
            phases: phases.iter().map(|(n, s)| ((*n).to_string(), *s)).collect(),
        }
    }

    #[test]
    fn bytes_fold_sub_phases_into_their_phase() {
        let r = report(
            false,
            &[
                ("handshake", stats(56, 56)),
                ("setup", stats(1000, 2000)),
                ("offline", stats(0, 0)),
                ("offline:op0/dense", stats(10, 20)),
                ("offline:op2/dense", stats(1, 2)),
                ("online", stats(0, 0)),
                ("online:input", stats(5, 0)),
                ("online:op1/relu", stats(7, 8)),
            ],
        );
        let b = Bytes::of(&r);
        assert_eq!(b.handshake, 112);
        assert_eq!(b.setup, 3000);
        assert_eq!(b.offline, 33);
        assert_eq!(b.bundle, 0);
        assert_eq!(b.online, 20);
        assert_eq!(b.total, 112 + 3000 + 33 + 20);
        assert_eq!(b.messages, 16);
        assert_eq!(b.offline_side(), 33);
    }

    #[test]
    fn fig4_sessions_must_match_table_4() {
        let cold = find("fig4_cold").unwrap();
        let warm = find("fig4_warm").unwrap();
        let online = stats(FIG4_ONLINE_BYTES, 0);
        let exact = report(
            false,
            &[
                ("handshake", stats(112, 0)),
                ("setup", stats(FIG4_OFFLINE_BYTES - 112 - 500, 0)),
                ("offline:op0/dense", stats(250, 250)),
                ("online:op0/dense", online),
            ],
        );
        assert_eq!(check_bytes(&cold, &exact), Ok(()));
        let short = report(false, &[("handshake", stats(112, 0)), ("online", online)]);
        assert!(check_bytes(&cold, &short).unwrap_err().contains("Table 4"));
        // A warm session moves a bundle instead; only online is pinned.
        let bundled = report(
            true,
            &[("handshake", stats(112, 0)), ("bundle", stats(9, 0)), ("online", online)],
        );
        assert_eq!(check_bytes(&warm, &bundled), Ok(()));
        let off = report(true, &[("online", stats(FIG4_ONLINE_BYTES + 1, 0))]);
        assert!(check_bytes(&warm, &off).is_err());
        // The encoder has no paper golden.
        assert_eq!(check_bytes(&find("encoder_warm").unwrap(), &off), Ok(()));
    }

    #[test]
    fn input_seeds_differ_per_seed_and_stream() {
        let a = input_seed(1, 0);
        assert_ne!(a, input_seed(1, 1));
        assert_ne!(a, input_seed(2, 0));
        assert_ne!(input_seed(0, 0), input_seed(0, 1));
        assert_eq!(a, input_seed(1, 0));
    }
}
