//! End-to-end benchmark of the paper's three case studies, run through
//! `Session` and `Server`, with a traced mode that splits the time and the
//! work across the layers.
//!
//! ```text
//! perfbench --workload <resolve_stream|sort_routed|serve_impute>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones. See README.md for the workloads and metrics.

mod check;
mod measure;
mod resolve_stream;
mod serve_impute;
mod sort_routed;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use crowdprompt_oracle::LlmClient;

use measure::{median, percentile};
use trace::{Probes, Tracer};

/// Rounds every run completes at least, so that medians over rounds and
/// the tail percentile always have enough samples.
const MIN_ROUNDS: usize = 3;

/// Set-ups per round: at least [`MIN_SETUPS`] and [`MIN_SETUP_S`] seconds
/// of them, at most [`MAX_SETUPS`]. The round keeps the last and reports
/// the median time, so that a set-up of a fraction of a millisecond still
/// reads steadily.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const MIN_SETUP_S: f64 = 0.2;

/// Where runs leave their span files and scratch stores, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics, with their units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_item", "ms"),
    ("peak_rss_mb", "MB"),
    ("llm_calls", "count"),
    ("cost_usd", "usd"),
    ("quality", "ratio"),
];

/// The per-layer metrics of the traced run, with their units. Every
/// workload reports all of them; a layer a workload does not exercise
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("blocking.build_ms", "ms"),
    ("plan.plan_ms", "ms"),
    ("plan.execute_ms", "ms"),
    ("plan.estimate_error", "ratio"),
    ("engine.self_cpu_ms", "ms"),
    ("engine.self_us_per_call", "us"),
    ("engine.inflight_mean", "count"),
    ("client.lookups", "count"),
    ("client.cache_hits", "count"),
    ("client.coalesced", "count"),
    ("client.misses", "count"),
    ("client.hit_ratio", "ratio"),
    ("store.open_ms", "ms"),
    ("store.records", "count"),
    ("store.hits", "count"),
    ("store.admits", "count"),
    ("store.bytes_written", "bytes"),
    ("route.retries", "count"),
    ("route.hedges_launched", "count"),
    ("route.hedges_won", "count"),
    ("route.useful_ratio", "ratio"),
    ("backend.attempts", "count"),
    ("backend.failed", "count"),
    ("backend.busy_ms", "ms"),
    ("backend.attempt_p50_ms", "ms"),
    ("backend.attempt_tail_ms", "ms"),
    ("sim.calls", "count"),
    ("sim.busy_ms", "ms"),
    ("serve.submits", "count"),
    ("serve.shed", "count"),
    ("serve.lag_ms", "ms"),
    ("serve.share_spread", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values of one traced round, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One round: a fresh set-up, then the workload's fixed operations over
/// the generated inputs. Every round of a run does the same work.
#[derive(Debug, Default)]
pub struct Round {
    /// Seconds from building the client and session to ready.
    pub setup_s: f64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) in the timed phase.
    pub cpu_s: f64,
    /// Logical items completed in the timed phase.
    pub items: u64,
    /// Latency of every request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted. An operation that fails fails the round,
    /// so a round that returns has no failed operation.
    pub attempted: u64,
    /// Backend calls the client ledger charged, and its dollars.
    pub llm_calls: u64,
    pub cost_usd: f64,
    /// Output quality against gold the harness computed.
    pub quality: f64,
    /// Per-layer values (traced rounds only).
    pub layers: Layers,
}

/// A workload: inputs generated from the seed, run one round at a time.
pub trait Workload {
    /// Requests per round: latency samples a round adds.
    fn requests_per_round(&self) -> usize;

    /// Run round number `index` of the process. `Err` means an output
    /// check failed.
    fn round(&self, index: u64, probes: Option<&Probes>) -> Result<Round, String>;
}

/// The seed of a simulated backend's latency and transport-failure draws
/// in round `index`: fresh every round, so that a run samples new
/// stragglers each round while answers, and so all counts, stay the same.
pub fn backend_seed(seed: u64, index: u64, backend: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x100))
        .wrapping_add(backend)
}

/// Set up repeatedly (see [`MIN_SETUPS`]), dropping each before the next,
/// and keep the last; returns it with the median set-up time in seconds.
pub fn set_up<T>(mut make: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut ready = None;
    while times.len() < MAX_SETUPS
        && (times.len() < MIN_SETUPS || times.iter().sum::<f64>() < MIN_SETUP_S)
    {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(make()?);
        times.push(measure::secs_since(start));
    }
    Ok((ready.expect("at least one set-up"), median(&times)))
}

/// The layer metrics every workload derives the same way: the client's
/// and router's counters, the backend and simulator probes, and the
/// engine's own CPU (process CPU less the simulator's time).
pub fn common_layers(
    layers: &mut Layers,
    probes: &Probes,
    client: &Arc<LlmClient>,
    cpu_s: f64,
    wall_s: f64,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let stats = client.stats();
    let backend_calls = stats.calls() + stats.failures();
    let hits = stats.cache_hits() + stats.coalesced() + stats.store_hits() + stats.semantic_hits();
    let lookups = backend_calls + hits;
    layers.insert("client.lookups", lookups as f64);
    layers.insert("client.cache_hits", stats.cache_hits() as f64);
    layers.insert("client.coalesced", stats.coalesced() as f64);
    layers.insert("client.misses", backend_calls as f64);
    layers.insert("client.hit_ratio", ratio(hits as f64, lookups as f64));
    layers.insert("store.hits", stats.store_hits() as f64);

    if let Some(router) = client.router() {
        let r = router.stats();
        let dispatches: u64 = r.per_backend.iter().map(|b| b.dispatches).sum();
        let wins: u64 = r.per_backend.iter().map(|b| b.wins).sum();
        layers.insert("route.retries", r.retries as f64);
        layers.insert("route.hedges_launched", r.hedges_launched as f64);
        layers.insert("route.hedges_won", r.hedges_won as f64);
        layers.insert("route.useful_ratio", ratio(wins as f64, dispatches as f64));
    }

    let b = &probes.backend;
    let attempts = b.attempt_ms();
    let backend_busy_ms = b.busy_ns.load(Relaxed) as f64 / 1e6;
    layers.insert("backend.attempts", b.attempts.load(Relaxed) as f64);
    layers.insert("backend.failed", b.failed.load(Relaxed) as f64);
    layers.insert("backend.busy_ms", backend_busy_ms);
    layers.insert("backend.attempt_p50_ms", percentile(&attempts, 0.5));
    layers.insert(
        "backend.attempt_tail_ms",
        percentile(&attempts, tail_percentile(attempts.len())),
    );

    let sim_busy_ms = probes.sim.busy_ns.load(Relaxed) as f64 / 1e6;
    layers.insert("sim.calls", probes.sim.calls.load(Relaxed) as f64);
    layers.insert("sim.busy_ms", sim_busy_ms);

    let self_cpu_ms = (cpu_s * 1e3 - sim_busy_ms).max(0.0);
    layers.insert("engine.self_cpu_ms", self_cpu_ms);
    layers.insert(
        "engine.self_us_per_call",
        ratio(self_cpu_ms * 1e3, lookups as f64),
    );
    layers.insert("engine.inflight_mean", ratio(backend_busy_ms, wall_s * 1e3));
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The highest percentile, in steps of 0.1 and at most p99, that leaves
/// at least ten of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    let p = 1.0 - 10.0 / n.max(10) as f64;
    ((p * 1000.0).floor() / 1000.0).min(0.99)
}

/// Dollar amounts that must agree, to a relative 1e-9.
pub fn same_usd(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Run rounds until `seconds` have passed and at least [`MIN_ROUNDS`] are
/// done. With a tracer, every round runs wrapped and records spans.
fn run_for(
    workload: &dyn Workload,
    seconds: f64,
    tracer: Option<&Tracer>,
    first_index: u64,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || measure::secs_since(start) < seconds {
        let probes = tracer.map(Probes::new);
        let index = first_index + rounds.len() as u64;
        rounds.push(workload.round(index, probes.as_ref())?);
    }
    Ok(rounds)
}

/// Median over rounds of each round's items per second of timed phase.
fn items_per_s(rounds: &[Round]) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.items as f64, r.wall_s))
        .collect();
    median(&per_round)
}

/// The end-to-end metrics of a run, after checking that the counts and the
/// quality that must repeat exactly did so in every round.
fn end_to_end(workload: &dyn Workload, rounds: &[Round]) -> Result<Vec<f64>, String> {
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        if r.llm_calls != first.llm_calls || r.quality != first.quality {
            return Err(format!(
                "round {i} differs from round 0 on identical inputs: \
                 llm_calls {} vs {}, quality {} vs {}",
                r.llm_calls, first.llm_calls, r.quality, first.quality
            ));
        }
    }
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    // Named by the smallest run: MIN_ROUNDS rounds.
    let tail = tail_percentile(MIN_ROUNDS * workload.requests_per_round());
    let beyond = latencies.len() as f64 * (1.0 - tail);
    if beyond < 10.0 {
        return Err(format!(
            "only {beyond:.1} latency samples beyond p{}",
            tail * 100.0
        ));
    }
    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<_>>()) };
    Ok(vec![
        per_round(&|r| r.setup_s),
        items_per_s(rounds),
        percentile(&latencies, 0.5),
        percentile(&latencies, tail),
        per_round(&|r| ratio(r.cpu_s * 1e3, r.items as f64)),
        measure::peak_rss_mb(),
        first.llm_calls as f64,
        per_round(&|r| r.cost_usd),
        first.quality,
    ])
}

/// Median over rounds of every per-layer metric.
fn per_layer(rounds: &[Round], overhead: f64) -> Vec<f64> {
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            if *name == "trace.overhead_ratio" {
                return overhead;
            }
            let values: Vec<f64> = rounds
                .iter()
                .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            median(&values)
        })
        .collect()
}

/// Print the result line. It is printed only when every operation and
/// every output check of every round passed, so `failed` is always 0; a
/// failure exits non-zero without a result.
fn print_result(rounds: &[Round], names: &[(&str, &str)], values: &[f64]) {
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "resolve_stream" => Box::new(resolve_stream::ResolveStream::generate(args.seed)),
        "sort_routed" => Box::new(sort_routed::SortRouted::generate(args.seed)?),
        "serve_impute" => Box::new(serve_impute::ServeImpute::generate(args.seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (resolve_stream, sort_routed, serve_impute)"
            ))
        }
    };
    // One unmeasured round first: the process's first round pays for
    // first-touch page faults and cold caches that a long-lived process
    // does not (its outputs are still checked).
    workload.round(0, None)?;
    let seconds = args.seconds as f64;
    if !args.trace {
        let rounds = run_for(&*workload, seconds, None, 1)?;
        let values = end_to_end(&*workload, &rounds)?;
        print_result(&rounds, END_TO_END, &values);
        return Ok(());
    }

    // Traced run: half the time untraced, half traced, so the tracing
    // overhead is measured on the same inputs in the same process.
    let plain = run_for(&*workload, seconds / 2.0, None, 1)?;
    end_to_end(&*workload, &plain)?;
    let tracer = Tracer::new();
    let traced = run_for(
        &*workload,
        seconds / 2.0,
        Some(&tracer),
        1 + plain.len() as u64,
    )?;
    end_to_end(&*workload, &traced)?;
    let overhead = 1.0 - ratio(items_per_s(&traced), items_per_s(&plain));
    let path = std::path::PathBuf::from(OUT_DIR)
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    let mut rounds = plain;
    let values = per_layer(&traced, overhead);
    rounds.extend(traced);
    print_result(&rounds, PER_LAYER, &values);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(192), 0.947);
        assert_eq!(tail_percentile(384), 0.973);
        assert_eq!(tail_percentile(100_000), 0.99);
        for n in [20, 192, 384, 1000] {
            assert!(n as f64 * (1.0 - tail_percentile(n)) >= 10.0);
        }
    }
}
