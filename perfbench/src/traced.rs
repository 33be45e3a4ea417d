//! `--trace 1`: the per-layer breakdown of a workload's sessions.
//!
//! Everything here is timed from the benchmark's own calls into each
//! layer's public API; nothing is read from counters inside the crates
//! except the serving layer's own metrics snapshot and reports.
//!
//! * `core`: the server side of a session driven by `SessionDriver` +
//!   `drive_frames` over a [`Timed`] transport, with a benchmark
//!   [`SessionHost`] that hands out a pre-dealt bundle on warm
//!   workloads; the same session again on the straight-line
//!   `SecureServer` path for the replay-tax ratio.
//! * `ot` / `gc`: the client's `FragmentSender::setup` and
//!   `YaoGarbler::setup` calls, the OT-extension and garbled-table
//!   bytes, and the garbled-circuit ops of the driver's online phase.
//! * `crypto`: `backend()` batch throughput.
//! * `net`: bytes per frame tag, and the driver session over loopback
//!   TCP against an in-memory channel.
//! * `serve`: a traced closed loop against the real server, read through
//!   `Server::metrics()` and each `ServeReport`.
//! * `trace`: per-layer self time of the driver sessions' spans, and the
//!   overhead of the timing transport: driver sessions over it against
//!   the same sessions over the bare transport, interleaved.

use crate::served::{self, closed_loop};
use crate::stats::{median, ms, peak_rss_mib, percentile};
use crate::timing::{op_layer, Timed, Timeline};
use crate::trace::{layer_self_us, Tracer};
use crate::workload::{Model, Workload};
use crate::{Args, Outcome};
use abnn2_core::bundle::{dealer_bundle_for, ClientBundle, ServerBundle};
use abnn2_core::driver::{drive_frames, SessionDriver, SessionHost};
use abnn2_core::frames::Bundle;
use abnn2_core::handshake::{
    handshake_client_ext, handshake_server_ext, HelloRequest, ResumeToken, SessionParams,
};
use abnn2_core::inference::{ClientOffline, ServerOffline};
use abnn2_core::session::{ClientSession, ServerSession};
use abnn2_core::{
    ExecConfig, OfflineMode, ProtocolError, SecureClient, SecureGraph, SecureServer, ServedModel,
};
use abnn2_crypto::{backend, Aes128, Block};
use abnn2_gc::YaoGarbler;
use abnn2_math::Matrix;
use abnn2_net::wire::tags;
use abnn2_net::{Endpoint, NetworkModel, TcpTransport, Transport};
use abnn2_ot::FragmentSender;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame tags reported as `net.bytes_per_pred.<name>`: every tag that
/// carries traffic in one of the workloads.
const TAGS: [(u8, &str); 15] = [
    (tags::HELLO, "hello"),
    (tags::BASE_POINT, "base_point"),
    (tags::BASE_POINT_BATCH, "base_point_batch"),
    (tags::BASE_CT_BATCH, "base_ct_batch"),
    (tags::IKNP_COLUMNS, "iknp_columns"),
    (tags::IKNP_CTS, "iknp_cts"),
    (tags::KK_COLUMNS, "kk_columns"),
    (tags::TRIPLET_MASKED, "triplet_masked"),
    (tags::GC_LABELS, "gc_labels"),
    (tags::GC_TABLES, "gc_tables"),
    (tags::GC_DECODE_MAP, "gc_decode_map"),
    (tags::BLINDED_INPUT, "blinded_input"),
    (tags::OUTPUT_SHARES, "output_shares"),
    (tags::BUNDLE, "bundle"),
    (tags::MATMUL_OPENINGS, "matmul_openings"),
];

/// Phases reported as `core.<phase>.compute_ms` / `.wait_ms`.
const PHASES: [&str; 5] = ["handshake", "setup", "offline", "bundle", "online"];

/// Ops reported as `core.<phase>.opN-<kind>.ms`: every op that carries
/// traffic in one of the workloads. An op a workload does not have
/// reports 0.
const OPS: [&str; 14] = [
    "offline.op0-dense",
    "offline.op2-dense",
    "offline.op4-dense",
    "online.input",
    "online.op1-relu",
    "online.op3-relu",
    "online.op5-output",
    "online.op3-matmulss",
    "online.op4-softmax",
    "online.op5-matmulss",
    "online.op7-layernorm",
    "online.op9-gelu",
    "online.op11-layernorm",
    "online.op13-output",
];

/// One core session: the server's timeline (empty when untimed), its
/// wall time, and the client's timed base-OT setups.
#[derive(Debug)]
struct CoreRun {
    server: Timeline,
    /// The server side from its first step to its last, timed around
    /// the transport, so timed and untimed sessions compare.
    wall: Duration,
    suspensions: u32,
    ot_setup: Duration,
    gc_setup: Duration,
}

/// Hands the driver one pre-dealt bundle pair (warm workloads), the way
/// the serving layer's pool does, and never resumes.
struct BenchHost {
    params: SessionParams,
    bundle: RefCell<Option<(ServerBundle, ClientBundle)>>,
}

impl SessionHost for BenchHost {
    fn params_for(&self, _batch: usize) -> SessionParams {
        self.params
    }
    fn claim_checkpoint(&self, _token: &ResumeToken) -> Option<ServerBundle> {
        None
    }
    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        self.bundle.borrow_mut().take()
    }
}

/// Which server-side flow a core session runs.
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// `SessionDriver` + `drive_frames`, as every served session.
    Driver,
    /// The straight-line `SecureServer` calls.
    Direct,
}

/// Whether the server side of a core session runs over the [`Timed`]
/// transport or the bare one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Timed,
    Bare,
}

/// Shared state of the core sessions.
struct Core {
    model: Model,
    served: ServedModel,
    wl: Workload,
    server: Arc<SecureServer>,
    client: SecureClient,
    sg: SecureGraph,
    params: SessionParams,
}

impl Core {
    fn new(model: Model, wl: Workload) -> Result<Self, String> {
        let served = model.served();
        let public = served.public();
        let variant = ExecConfig::new().variant;
        let sg = SecureGraph::new(public.graph(), 1).map_err(|e| e.to_string())?;
        Ok(Core {
            params: SessionParams::for_graph(&public.graph(), variant, 1),
            server: Arc::new(SecureServer::for_model(served.clone())),
            client: SecureClient::for_model(public).with_variant(variant),
            model,
            served,
            wl,
            sg,
        })
    }

    /// A fresh bundle pair for a warm session, dealt outside the timing.
    fn deal(&self, rng: &mut StdRng) -> Option<(ServerBundle, ClientBundle)> {
        self.wl.warm.then(|| dealer_bundle_for(&self.served, &self.sg, rng))
    }

    /// One session over TCP loopback (or an in-memory channel when
    /// `tcp` is false), the server running `flow` on this thread and the
    /// client on another. The same `seed` gives the same transcript.
    fn session(&self, flow: Flow, probe: Probe, tcp: bool, seed: u64) -> Result<CoreRun, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = self.deal(&mut rng);
        let inputs = vec![self.model.input(&mut rng)];
        let expected = self.model.expected(&inputs[0]);
        let (server_seed, client_seed) = (rng.gen::<u64>(), rng.gen::<u64>());
        if tcp {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let cch = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let sch = TcpTransport::from_stream(stream).map_err(|e| e.to_string())?;
            self.run_pair(flow, probe, sch, cch, pair, &inputs, &expected, server_seed, client_seed)
        } else {
            let (sch, cch) = Endpoint::pair(NetworkModel::instant());
            self.run_pair(flow, probe, sch, cch, pair, &inputs, &expected, server_seed, client_seed)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_pair<S: Transport, C: Transport + Send>(
        &self,
        flow: Flow,
        probe: Probe,
        sch: S,
        mut cch: C,
        pair: Option<(ServerBundle, ClientBundle)>,
        inputs: &[Vec<u64>],
        expected: &[u64],
        server_seed: u64,
        client_seed: u64,
    ) -> Result<CoreRun, String> {
        std::thread::scope(|scope| {
            let client = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(client_seed);
                self.client_flow(&mut cch, inputs, &mut rng)
            });
            let rng = StdRng::seed_from_u64(server_seed);
            let t0 = Instant::now();
            let (served, server) = match probe {
                Probe::Timed => {
                    let mut ch = Timed::new(sch, "handshake");
                    let served = self.server_flow(flow, &mut ch, pair, rng);
                    (served, ch.finish())
                }
                Probe::Bare => {
                    let mut ch = sch;
                    (self.server_flow(flow, &mut ch, pair, rng), Timeline::default())
                }
            };
            let wall = t0.elapsed();
            let (y, ot_setup, gc_setup) = client
                .join()
                .map_err(|_| "client thread panicked".to_string())?
                .map_err(|e| format!("client: {e}"))?;
            let suspensions = served.map_err(|e| format!("server: {e}"))?;
            if y.col(0) != expected {
                return Err("traced session logits differ from forward_exact".into());
            }
            Ok(CoreRun { server, wall, suspensions, ot_setup, gc_setup })
        })
    }

    /// The server side of one session; returns the driver's suspensions
    /// (0 on the direct path).
    fn server_flow<T: Transport>(
        &self,
        flow: Flow,
        ch: &mut T,
        pair: Option<(ServerBundle, ClientBundle)>,
        mut rng: StdRng,
    ) -> Result<u32, ProtocolError> {
        match flow {
            Flow::Driver => {
                let host = BenchHost { params: self.params, bundle: RefCell::new(pair) };
                let mut driver = SessionDriver::new(Arc::clone(&self.server), host, rng);
                drive_frames(ch, &mut driver, |_| {}).map(|s| s.suspensions)
            }
            Flow::Direct => self.direct_flow(ch, pair, &mut rng).map(|()| 0),
        }
    }

    /// The server side without the driver: the same protocol calls in a
    /// straight line.
    fn direct_flow<T: Transport>(
        &self,
        ch: &mut T,
        pair: Option<(ServerBundle, ClientBundle)>,
        rng: &mut StdRng,
    ) -> Result<(), ProtocolError> {
        match pair {
            None => {
                let state = self.server.offline(ch, 1, rng)?;
                self.server.online(ch, state)?;
            }
            Some((sb, cb)) => {
                let params = self.params;
                let (_, _, reply) = handshake_server_ext(ch, |_| params, |_| false, |_, _| true)?;
                ch.mark_phase("setup");
                let session = ServerSession::setup_with(ch, reply.mode(), rng)?;
                ch.mark_phase("bundle");
                ch.send_frame(&Bundle(cb.encode(self.sg.graph().config.ring)))?;
                ch.flush()?;
                ch.mark_phase("online");
                self.server.online(ch, ServerOffline::from_bundle(session, sb))?;
            }
        }
        ch.flush()?;
        Ok(())
    }

    /// The client side, with the base-OT setups of the OT and GC layers
    /// timed call by call.
    fn client_flow<T: Transport>(
        &self,
        ch: &mut T,
        inputs: &[Vec<u64>],
        rng: &mut StdRng,
    ) -> Result<(Matrix, Duration, Duration), ProtocolError> {
        let mut token: ResumeToken = [0; 16];
        rng.fill(&mut token);
        let request = HelloRequest { resume: false, bundle: self.wl.warm, silent: false };
        let reply = handshake_client_ext(ch, self.params, &token, request)?;
        let t0 = Instant::now();
        let kk = FragmentSender::setup(ch, reply.mode(), rng)?;
        let t1 = Instant::now();
        let yao = YaoGarbler::setup(ch, rng)?;
        let t2 = Instant::now();
        let session = ClientSession { kk, yao };
        let state = if reply.bundle {
            let Bundle(bytes) = ch.recv_frame()?;
            ClientOffline::from_bundle(session, ClientBundle::decode(&bytes, &self.sg)?)
        } else {
            self.client.offline_with(ch, session, 1, rng)?
        };
        let y = self.client.online_raw(ch, state, inputs, rng)?;
        Ok((y, t1 - t0, t2 - t1))
    }
}

/// Runs `f` at least once and until `budget` has passed, at most `cap`
/// times.
fn repeat<T>(
    budget: Duration,
    cap: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || (t0.elapsed() < budget && out.len() < cap) {
        out.push(f(out.len())?);
    }
    Ok(out)
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = v.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Blocks per second of one batched backend call over a 16 Ki-block
/// buffer, repeated for at least 200 ms.
fn blocks_per_s(mut op: impl FnMut(&mut [Block])) -> f64 {
    let mut buf: Vec<Block> = (0..1u128 << 14).map(Block::from).collect();
    let t0 = Instant::now();
    let mut blocks = 0usize;
    while t0.elapsed() < Duration::from_millis(200) {
        op(&mut buf);
        blocks += buf.len();
    }
    std::hint::black_box(&buf);
    blocks as f64 / t0.elapsed().as_secs_f64()
}

/// Every per-layer metric with its unit, in output order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&[
        ("core.driver.suspensions_per_pred", "count"),
        ("core.driver.server_ms", "ms"),
        ("core.direct.server_ms", "ms"),
        ("core.driver_vs_direct", "ratio"),
    ]);
    for phase in PHASES {
        out.push((format!("core.{phase}.compute_ms"), "ms"));
        out.push((format!("core.{phase}.wait_ms"), "ms"));
    }
    out.extend(OPS.iter().map(|op| (format!("core.{op}.ms"), "ms")));
    out.extend(fixed(&[
        ("ot.base_setup_ms", "ms"),
        ("ot.extension_bytes_per_pred", "B"),
        ("gc.base_setup_ms", "ms"),
        ("gc.online_ms", "ms"),
        ("gc.online_share", "ratio"),
        ("gc.table_bytes_per_pred", "B"),
        ("crypto.aes_blocks_per_s", "blocks/s"),
        ("crypto.mmo_blocks_per_s", "blocks/s"),
        ("crypto.prg_blocks_per_s", "blocks/s"),
    ]));
    out.extend(TAGS.iter().map(|(_, name)| (format!("net.bytes_per_pred.{name}"), "B")));
    out.extend(fixed(&[
        ("net.tcp_vs_mem", "ratio"),
        ("serve.handshake_ms_p50", "ms"),
        ("serve.pool_hit_ratio", "ratio"),
        ("serve.pool_produced_per_pred", "count"),
        ("serve.retries_per_pred", "count"),
        ("serve.rejected", "count"),
        ("serve.evicted", "count"),
        ("serve.peak_rss_mib", "MiB"),
        ("trace.self_ms.core", "ms"),
        ("trace.self_ms.ot", "ms"),
        ("trace.self_ms.gc", "ms"),
        ("trace.self_ms.net", "ms"),
        ("trace.overhead_pct", "%"),
    ]));
    out
}

/// The traced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let epoch = Instant::now();
    let mut failures = Vec::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };

    // serve: a traced closed loop against the real server.
    let (model, server) = served::set_up(&wl, args.seed)?;
    let served = closed_loop(server.addr(), &model, &wl, args.seed, 1, budget / 3, true);
    let snapshot = server.metrics();
    drop(server);
    let mut attempted = served.attempted();
    failures.extend(served.failures.iter().cloned());
    let reports: Vec<_> = served.samples.iter().map(|s| &s.report).collect();
    let preds = reports.len().max(1) as f64;
    let mut handshake: Vec<f64> =
        reports.iter().map(|r| ms(r.phase("handshake").elapsed)).collect();
    handshake.sort_by(f64::total_cmp);
    let pool = snapshot.pool;
    let lookups = pool.hits + pool.misses;

    // core, ot, gc, net: sessions the benchmark drives itself.
    let core = Core::new(model, wl)?;
    let per_path = budget.mul_f64(0.15);
    let seed = |k: usize, salt: u64| served::input_seed(args.seed, ((16 + salt) << 32) | k as u64);
    // Each driver session runs twice on the same seed, over the timing
    // transport and over the bare one, in alternating order.
    let pairs = repeat(per_path * 2, 20, |k| {
        let once = |probe| core.session(Flow::Driver, probe, true, seed(k, 0));
        Ok(if k % 2 == 0 {
            (once(Probe::Timed)?, once(Probe::Bare)?)
        } else {
            let bare = once(Probe::Bare)?;
            (once(Probe::Timed)?, bare)
        })
    })?;
    let (driver, bare): (Vec<CoreRun>, Vec<CoreRun>) = pairs.into_iter().unzip();
    let direct =
        repeat(per_path, 20, |k| core.session(Flow::Direct, Probe::Timed, true, seed(k, 1)))?;
    let memory =
        repeat(per_path, 20, |k| core.session(Flow::Driver, Probe::Timed, false, seed(k, 2)))?;
    attempted += driver.len() + bare.len() + direct.len() + memory.len();
    let median_wall =
        |runs: &[CoreRun]| median(&runs.iter().map(|r| ms(r.wall)).collect::<Vec<_>>());
    let overhead = (median_wall(&driver) / median_wall(&bare) - 1.0) * 100.0;
    let wall = |runs: &[CoreRun]| mean(runs.iter().map(|r| ms(r.server.wall())));
    let (driver_ms, direct_ms) = (wall(&driver), wall(&direct));
    let mut core_tracer = Tracer::new(epoch);
    for (i, r) in driver.iter().enumerate() {
        r.server.to_spans(&mut core_tracer, i as u64 + 1);
    }
    let sessions = driver.len() as f64;

    put("core.driver.suspensions_per_pred", mean(driver.iter().map(|r| f64::from(r.suspensions))));
    put("core.driver.server_ms", driver_ms);
    put("core.direct.server_ms", direct_ms);
    put("core.driver_vs_direct", driver_ms / direct_ms);
    let seg_ms = |keep: &dyn Fn(&crate::timing::Segment) -> bool,
                  value: &dyn Fn(&crate::timing::Segment) -> Duration| {
        driver
            .iter()
            .flat_map(|r| r.server.segments.iter())
            .filter(|s| keep(s))
            .map(|s| ms(value(s)))
            .sum::<f64>()
            / sessions
    };
    for phase in PHASES {
        put(&format!("core.{phase}.compute_ms"), seg_ms(&|s| s.phase() == phase, &|s| s.compute()));
        put(&format!("core.{phase}.wait_ms"), seg_ms(&|s| s.phase() == phase, &|s| s.wait()));
    }
    let mut op_ms: BTreeMap<String, f64> = BTreeMap::new();
    for s in driver.iter().flat_map(|r| r.server.segments.iter()) {
        if s.op().is_some() && s.bytes > 0 {
            *op_ms.entry(crate::timing::metric_label(&s.label)).or_insert(0.0) +=
                ms(s.wall()) / sessions;
        }
    }
    for op in OPS {
        put(&format!("core.{op}.ms"), op_ms.get(op).copied().unwrap_or(0.0));
    }
    for label in op_ms.keys().filter(|l| !OPS.contains(&l.as_str())) {
        eprintln!("perfbench: op {label} carries traffic but is not reported");
    }

    let tag_bytes = |tag: u8| {
        mean(driver.iter().map(|r| r.server.tag_bytes.get(&tag).copied().unwrap_or(0) as f64))
    };
    let online_ms = seg_ms(&|s| s.phase() == "online", &|s| s.wall());
    let gc_ms = seg_ms(
        &|s| s.phase() == "online" && s.op().is_some_and(|op| op_layer("online", op) == "gc"),
        &|s| s.wall(),
    );
    put("ot.base_setup_ms", mean(driver.iter().map(|r| ms(r.ot_setup))));
    put("ot.extension_bytes_per_pred", tag_bytes(tags::KK_COLUMNS) + tag_bytes(tags::IKNP_COLUMNS));
    put("gc.base_setup_ms", mean(driver.iter().map(|r| ms(r.gc_setup))));
    put("gc.online_ms", gc_ms);
    put("gc.online_share", gc_ms / online_ms);
    put("gc.table_bytes_per_pred", tag_bytes(tags::GC_TABLES) + tag_bytes(tags::GC_LABELS));

    let aes = Aes128::new(Block::from(0x5EED_u128));
    let b = backend();
    put("crypto.aes_blocks_per_s", blocks_per_s(|buf| b.aes_encrypt_blocks(&aes, buf)));
    put("crypto.mmo_blocks_per_s", blocks_per_s(|buf| b.mmo_hash_blocks(&aes, buf)));
    put("crypto.prg_blocks_per_s", blocks_per_s(|buf| b.prg_fill(&aes, 7, buf)));

    for (tag, name) in TAGS {
        put(&format!("net.bytes_per_pred.{name}"), tag_bytes(tag));
    }
    for r in &driver {
        for (&tag, &bytes) in
            r.server.tag_bytes.iter().filter(|(t, _)| !TAGS.iter().any(|(k, _)| k == *t))
        {
            eprintln!(
                "perfbench: tag {tag:#04x} ({}) carries {bytes} B but is not reported",
                tags::name(tag)
            );
        }
    }
    put("net.tcp_vs_mem", driver_ms / wall(&memory));

    put("serve.handshake_ms_p50", percentile(&handshake, 50.0));
    put("serve.pool_hit_ratio", if lookups == 0 { 0.0 } else { pool.hits as f64 / lookups as f64 });
    put("serve.pool_produced_per_pred", pool.produced as f64 / preds);
    put(
        "serve.retries_per_pred",
        reports.iter().map(|r| f64::from(r.attempts - 1)).sum::<f64>() / preds,
    );
    put("serve.rejected", snapshot.rejected as f64);
    put("serve.evicted", snapshot.evicted as f64);
    put("serve.peak_rss_mib", peak_rss_mib());

    let layers = layer_self_us(core_tracer.spans());
    for layer in ["core", "ot", "gc", "net"] {
        put(
            &format!("trace.self_ms.{layer}"),
            layers.get(layer).copied().unwrap_or(0.0) / 1e3 / sessions,
        );
    }
    put("trace.overhead_pct", overhead);

    core_tracer.absorb(served.spans);
    let path =
        PathBuf::from(".perfbench").join(format!("trace-{}-seed{}.jsonl", wl.name, args.seed));
    core_tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "[{}] traced: {} spans written to {}",
        wl.name,
        core_tracer.spans().len(),
        path.display()
    );
    Ok(Outcome { attempted, failures, metrics: crate::collect(&per_layer_metrics(), values)? })
}
