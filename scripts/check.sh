#!/usr/bin/env bash
# Full local CI gate: build, test, formatting, lints. Run from the repo root.
#
#   ./scripts/check.sh [--chaos-seeds N] [--serve-smoke] [--cnn-serve-smoke] \
#                      [--async-serve-smoke] [--wire-fuzz-smoke] [--governor-smoke] \
#                      [--silent-ot-smoke] [--transformer-smoke] [--bench]
#
# --chaos-seeds N widens the seeded chaos suite (tests/chaos.rs) from its
# default of 64 seeds without recompiling.
#
# --serve-smoke additionally drives the serving frontend end to end:
# examples/serve_load.rs starts a server and fires 8 concurrent TCP
# clients at it, checking every logit against forward_exact.
#
# --cnn-serve-smoke does the same with a conv→pool→dense model, proving
# the graph executor serves spatial topologies through the same frontend.
#
# --async-serve-smoke exercises the event-driven session engine: the
# sessions-per-worker scaling test (64 clients multiplexed over 4
# event-loop workers, O(workers) protocol threads), the event-loop chaos
# tests (mid-session cut while the driver is parked -> checkpoint ->
# bit-exact resume; delayed frames), and the load generator with more
# clients than workers so warm-pool sessions time-share the event loops.
#
# --wire-fuzz-smoke runs the typed-wire-layer adversarial suites in
# release mode: frame round-trip/truncation/corruption totality
# (tests/wire_roundtrip.rs), the tag-flip sweep over a live session
# (tests/chaos.rs), and the per-transport malformed-frame contract
# (tests/transport_contract.rs).
#
# --governor-smoke exercises the session governor and worker supervisor:
# the hostile-peer chaos tests (slowloris eviction, never-draining
# reader hitting the outbound cap, mid-online panic quarantined while
# bit-exact siblings finish), the retry_after_ms load-shed round-trip,
# and the load generator with governor budgets on plus an injected
# mid-online panic — the clean siblings must still verify bit-exact and
# the metrics must show exactly one quarantined session.
#
# --silent-ot-smoke exercises the silent-OT offline subsystem in release
# mode: the η-sweep bit-exactness acceptance (tests/silent_ot.rs), the
# silent chaos batch (seeded cuts, tag flips over the 0x40–0x43 frames,
# cut-after-expansion checkpoint/resume, mixed silent+IKNP fleet), and
# the pinned silent-vs-KK13 byte-count comparison (tests/comm_shape.rs).
#
# --transformer-smoke exercises the generalized op pipeline in release
# mode: the transformer acceptance suite (logits bit-exact vs the
# plaintext oracle across eta in {2,3,4,8}; warm-from-pool with zero
# offline-phase bytes), the transformer chaos tests (tag-flip sweep over
# the new frames; cut during a MATMUL_OPENINGS exchange -> checkpoint ->
# bit-exact resume), and the load generator serving the encoder block
# through the event-loop workers.
#
# --bench regenerates the machine-readable benchmark files:
# BENCH_silent_ot.json (offline/online bytes and wall-clock per table
# workload, with the silent-vs-IKNP offline comparison pinned as the
# first entry — the ≥10× OT-extension reduction is asserted at
# generation time), BENCH_transformer.json (cold vs warm offline and
# online costs of one encoder-block prediction, bit-exactness asserted
# at generation time), and BENCH_crypto.json (blocks/sec per crypto
# backend for AES/MMO/PRG plus the IKNP transpose wall time, with the
# ≥4× AES-NI speedup asserted at generation time where the CPU has it).
#
# The container has no network access to crates.io; all dependencies are
# vendored as stubs under stubs/ (see stubs/README.md), so every cargo
# invocation runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

while [[ $# -gt 0 ]]; do
  case "$1" in
    --chaos-seeds)
      [[ $# -ge 2 ]] || { echo "--chaos-seeds requires a value" >&2; exit 2; }
      export CHAOS_SEEDS="$2"
      shift 2
      ;;
    --serve-smoke)
      SERVE_SMOKE=1
      shift
      ;;
    --cnn-serve-smoke)
      CNN_SERVE_SMOKE=1
      shift
      ;;
    --async-serve-smoke)
      ASYNC_SERVE_SMOKE=1
      shift
      ;;
    --wire-fuzz-smoke)
      WIRE_FUZZ_SMOKE=1
      shift
      ;;
    --governor-smoke)
      GOVERNOR_SMOKE=1
      shift
      ;;
    --silent-ot-smoke)
      SILENT_OT_SMOKE=1
      shift
      ;;
    --transformer-smoke)
      TRANSFORMER_SMOKE=1
      shift
      ;;
    --bench)
      RUN_BENCH=1
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

# The served-path benchmark is a workspace of its own that compiles
# against SessionDriver, drive_frames, SecureServer::offline/online and
# ServerSession::setup_with; build and unit-test it so an API change that
# breaks it fails here rather than at benchmark time.
echo "==> cargo test --release --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

if [[ "${SERVE_SMOKE:-0}" == "1" ]]; then
  echo "==> serve smoke: 8 concurrent clients x 2 requests"
  cargo run --release --example serve_load -- --clients 8 --requests 2
fi

if [[ "${CNN_SERVE_SMOKE:-0}" == "1" ]]; then
  echo "==> CNN serve smoke: 4 concurrent clients x 2 requests"
  cargo run --release --example serve_load -- --cnn --clients 4 --requests 2
fi

if [[ "${ASYNC_SERVE_SMOKE:-0}" == "1" ]]; then
  echo "==> async serve smoke: multiplexed event-loop serving, cut/resume, warm pool"
  cargo test --release --test serve_scale
  cargo test --release --test chaos event_loop
  cargo run --release --example serve_load -- --clients 12 --requests 2 --sessions-per-worker 4
fi

if [[ "${WIRE_FUZZ_SMOKE:-0}" == "1" ]]; then
  echo "==> wire fuzz smoke: frame totality, tag-flip sweep, transport contract"
  cargo test --release --test wire_roundtrip
  cargo test --release --test chaos tag_flip_at_every_entry_point_names_the_expected_frame
  cargo test --release --test transport_contract
fi

if [[ "${GOVERNOR_SMOKE:-0}" == "1" ]]; then
  echo "==> governor smoke: hostile-peer eviction, panic quarantine, load shedding"
  cargo test --release --test chaos governor_
  cargo test --release --test chaos mid_online_panic
  cargo test --release --test serve retry_after
  cargo run --release --example serve_load -- \
    --clients 8 --requests 2 --sessions-per-worker 4 --governor --inject-panic 3
fi

if [[ "${SILENT_OT_SMOKE:-0}" == "1" ]]; then
  echo "==> silent-OT smoke: eta-sweep bit-exactness, silent chaos, pinned byte counts"
  cargo test --release --test silent_ot
  cargo test --release --test chaos silent
  cargo test --release --test comm_shape silent_extension_bytes_beat_kk13_by_an_order_of_magnitude
fi

if [[ "${TRANSFORMER_SMOKE:-0}" == "1" ]]; then
  echo "==> transformer smoke: eta-sweep bit-exactness, warm pool, chaos, served load"
  cargo test --release --test transformer
  cargo test --release --test chaos transformer_tag_flip
  cargo test --release --test chaos cut_during_matmul
  cargo run --release --example serve_load -- --transformer --clients 4 --requests 2
fi

if [[ "${RUN_BENCH:-0}" == "1" ]]; then
  echo "==> bench: regenerating BENCH_silent_ot.json"
  cargo run --release -p abnn2-bench --bin bench_json -- BENCH_silent_ot.json
  echo "==> bench: regenerating BENCH_transformer.json"
  cargo run --release -p abnn2-bench --bin bench_json -- --transformer BENCH_transformer.json
  echo "==> bench: regenerating BENCH_crypto.json"
  cargo run --release -p abnn2-bench --bin bench_json -- --crypto BENCH_crypto.json
fi

echo "All checks passed."
