//! The served-path benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4_warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of real served sessions
//! (see [`served`]); `--trace 1` runs the traced per-layer breakdown (see
//! [`traced`]) and writes its spans to `.perfbench/`. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any prediction failed or disagreed
//! with the plaintext oracle.

mod served;
mod stats;
mod timing;
mod trace;
mod traced;
mod workload;

use stats::{median, ms, peak_rss_mib, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-up is repeated until this much time has passed, counting the
/// untimed shutdowns in between, and at least [`SETUP_MIN_REPS`] times;
/// `setup_s` is the median.
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// See [`SETUP_BUDGET`].
const SETUP_MIN_REPS: usize = 21;

/// Percentiles considered for a tail: the reported one is fixed per
/// workload, chosen as the highest of these that leaves ten samples
/// beyond it at the workload's usual sample count.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 80.0, 90.0, 95.0, 99.0];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Metrics in output order: name, value, unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Every end-to-end metric with its unit, in output order.
#[must_use]
pub fn end_to_end_metrics() -> Vec<(String, &'static str)> {
    [
        ("latency_p50_ms", "ms"),
        ("latency_tail_ms", "ms"),
        ("throughput_pred_s", "1/s"),
        ("cpu_ms_per_pred", "ms"),
        ("bytes_per_pred", "B"),
        ("offline_bytes_per_pred", "B"),
        ("online_bytes_per_pred", "B"),
        ("messages_per_pred", "count"),
        ("setup_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// Orders measured `values` by the declared `spec`, attaching units.
///
/// # Errors
///
/// A declared metric that was not measured, or a measured one that is
/// not declared.
pub fn collect(
    spec: &[(String, &'static str)],
    mut values: BTreeMap<String, f64>,
) -> Result<Metrics, String> {
    let metrics = spec
        .iter()
        .map(|(name, unit)| {
            let value = values.remove(name).ok_or(format!("metric {name} was not measured"))?;
            Ok((name.clone(), value, *unit))
        })
        .collect::<Result<Metrics, String>>()?;
    match values.keys().next() {
        Some(extra) => Err(format!("metric {extra} is measured but not declared")),
        None => Ok(metrics),
    }
}

/// The benchmark's verdict, printed as the last line of standard output.
#[derive(Debug)]
pub struct Outcome {
    /// Predictions issued.
    pub attempted: usize,
    /// Predictions that failed or disagreed with the oracle.
    pub failures: Vec<String>,
    /// Every reported metric.
    pub metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
                let value = if value.is_finite() { value + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Repeats set-up (see [`SETUP_BUDGET`]) and keeps the last server.
fn set_up(wl: &Workload, seed: u64) -> Result<(workload::Model, abnn2_serve::Server, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPS || started.elapsed() < SETUP_BUDGET {
        // Shut the previous server down outside the timed region.
        drop(kept.take());
        let t0 = Instant::now();
        let built = served::set_up(wl, seed)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let (model, server) = kept.expect("at least one set-up");
    let setup_s = median(&times);
    eprintln!(
        "[{}] set-up: median {:.3} ms of {} repetitions",
        wl.name,
        setup_s * 1e3,
        times.len()
    );
    Ok((model, server, setup_s))
}

/// `--trace 0`: the end-to-end metrics of served sessions.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let wl = &args.workload;
    let (model, server, setup_s) = set_up(wl, args.seed)?;
    let run = served::closed_loop(
        server.addr(),
        &model,
        wl,
        args.seed,
        0,
        Duration::from_secs(args.seconds),
        false,
    );
    drop(server);

    let n = run.samples.len().max(1) as f64;
    let mut lat: Vec<f64> = run.samples.iter().map(|s| ms(s.latency)).collect();
    lat.sort_by(f64::total_cmp);
    let bytes: Vec<served::Bytes> =
        run.samples.iter().map(|s| served::Bytes::of(&s.report)).collect();
    let per_pred = |f: fn(&served::Bytes) -> u64| bytes.iter().map(f).sum::<u64>() as f64 / n;
    let beyond = stats::beyond(lat.len(), wl.tail_pct);
    let best = stats::highest_tail_pct(lat.len(), &TAIL_CANDIDATES, 10)
        .map_or("none".to_string(), |p| format!("p{p}"));
    eprintln!(
        "[{}] {} verified, {} failed in {:.1}s; p50 {:.1} ms, p{} {:.1} ms ({beyond} samples \
         beyond; highest percentile with 10 beyond: {best}); peak RSS {:.1} MiB; {} cores",
        wl.name,
        run.samples.len(),
        run.failures.len(),
        run.window.as_secs_f64(),
        percentile(&lat, 50.0),
        wl.tail_pct,
        percentile(&lat, wl.tail_pct),
        peak_rss_mib(),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    let values = BTreeMap::from([
        ("latency_p50_ms".to_string(), percentile(&lat, 50.0)),
        ("latency_tail_ms".to_string(), percentile(&lat, wl.tail_pct)),
        ("throughput_pred_s".to_string(), run.samples.len() as f64 / run.window.as_secs_f64()),
        ("cpu_ms_per_pred".to_string(), ms(run.cpu) / n),
        ("bytes_per_pred".to_string(), per_pred(|b| b.total)),
        ("offline_bytes_per_pred".to_string(), per_pred(served::Bytes::offline_side)),
        ("online_bytes_per_pred".to_string(), per_pred(|b| b.online)),
        ("messages_per_pred".to_string(), per_pred(|b| b.messages)),
        ("setup_s".to_string(), setup_s),
    ]);
    let metrics = collect(&end_to_end_metrics(), values)?;
    Ok(Outcome { attempted: run.attempted(), failures: run.failures, metrics })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig4_cold|fig4_warm|encoder_warm> --seed N \
                 --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace { traced::run(&args) } else { end_to_end(&args) };
    match outcome {
        Ok(outcome) => {
            for f in &outcome.failures {
                eprintln!("perfbench: FAILED {f}");
            }
            println!("{}", outcome.json());
            if !outcome.failures.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn declared(spec: &str, section: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).expect("section present");
        let body = &spec[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = |v: Vec<(String, &str)>| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(declared(&spec, "end_to_end"), names(end_to_end_metrics()));
        assert_eq!(declared(&spec, "per_layer"), names(traced::per_layer_metrics()));
        let workloads: Vec<String> = workload::WORKLOADS.iter().map(|w| w.name.into()).collect();
        assert_eq!(declared(&spec, "workloads"), workloads);
    }

    #[test]
    fn collect_orders_by_spec_and_rejects_drift() {
        let spec = vec![("b".to_string(), "ms"), ("a".to_string(), "B")];
        let values = BTreeMap::from([("a".to_string(), 1.0), ("b".to_string(), 2.0)]);
        let got = collect(&spec, values.clone()).unwrap();
        assert_eq!(got, vec![("b".to_string(), 2.0, "ms"), ("a".to_string(), 1.0, "B")]);
        assert!(collect(&spec[..1], values).unwrap_err().contains("not declared"));
        let missing = BTreeMap::from([("b".to_string(), 2.0)]);
        assert!(collect(&spec, missing).unwrap_err().contains("not measured"));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failures: vec![],
            metrics: vec![("x_ms".into(), -0.0, "ms"), ("y".into(), f64::NAN, "B")],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x_ms\": {\"value\": 0.0, \"unit\": \"ms\"}, \"y\": {\"value\": 0.0, \"unit\": \"B\"}}}"
        );
    }
}
