//! End-to-end and per-layer benchmark of the GeneSys engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cartpole-10k|atari-curriculum|serve-zipf> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs it again with spans around the benchmark's
//! calls into each layer and prints the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the process exits nonzero when a correctness
//! check fails. `perfbench/README.md` defines every workload and metric.

mod alloc;
mod measure;
mod serve;
mod sessions;
mod trace;

use measure::{result_line, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Printed by every untraced run, in this order.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Printed by every traced run, in this order; a layer that does not run
/// or cannot be observed on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 47] = [
    ("window.samples", "count"),
    ("eval.ms_per_gen", "ms"),
    ("eval.share", "ratio"),
    ("eval.calls", "count"),
    ("gym.episode_ms_per_gen", "ms"),
    ("gym.env_steps", "count"),
    ("gym.ns_per_env_step", "ns"),
    ("network.macs_per_step", "count"),
    ("network.compile_ms_per_gen", "ms"),
    ("speciate.ms_per_gen", "ms"),
    ("speciate.share", "ratio"),
    ("speciate.exact", "count"),
    ("speciate.pruned", "count"),
    ("speciate.hint_hits", "count"),
    ("speciate.prune_ratio", "ratio"),
    ("speciate.species", "count"),
    ("reproduce.ms_per_gen", "ms"),
    ("reproduce.share", "ratio"),
    ("reproduce.ops", "count"),
    ("reproduce.genes", "count"),
    ("rest.ms_per_gen", "ms"),
    ("diagnostics.ms_per_gen", "ms"),
    ("scenario.observer_ms_per_gen", "ms"),
    ("scenario.drift_events", "count"),
    ("snapshot.export_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("session.resume_ms", "ms"),
    ("snapshot.mb", "MB"),
    ("serve.steps", "count"),
    ("serve.evictions", "count"),
    ("serve.rehydrations", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.spill_mb", "MB"),
    ("serve.compute_ms_per_req", "ms"),
    ("serve.overhead_ms_per_req", "ms"),
    ("serve.inproc_p50_ms", "ms"),
    ("serve.checkpoint_p50_ms", "ms"),
    ("serve.resume_p50_ms", "ms"),
    ("serve.observe_p50_ms", "ms"),
    ("serve.failed_by_code.1xx", "count"),
    ("serve.failed_by_code.2xx", "count"),
    ("serve.failed_by_code.3xx", "count"),
    ("serve.failed_by_code.4xx", "count"),
    ("serve.failed_by_code.5xx", "count"),
    ("process.peak_rss_mb", "MB"),
    ("trace.overhead", "ratio"),
];

/// What a workload run hands back: its correctness tally and the metric
/// values it measured, by name.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout root: the parent of this package.
fn checkout_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
}

/// Where a run keeps its spill files and traces, inside the checkout.
pub fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let dir = run_dir();
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn commit() -> String {
    let git = checkout_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// VmHWM of this process in MB (0 where /proc is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Orders a run's measurements as the metric list of its mode. An
/// untraced run must have measured every end-to-end metric; a traced run
/// reads 0 for a layer it did not observe.
fn ordered(outcome: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    let list: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !list.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the metric list"));
    }
    list.iter()
        .map(|&(name, unit)| match outcome.metrics.get(name) {
            Some(&value) => Ok(Metric { name, unit, value }),
            None if trace => Ok(Metric {
                name,
                unit,
                value: 0.0,
            }),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The variable swaps in the exact speciation path behind the
    // program's back; figures taken under it measure another program.
    if std::env::var_os("GENESYS_SPECIATE_EXACT").is_some() {
        eprintln!("perfbench: refusing to run with GENESYS_SPECIATE_EXACT set");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    let mut outcome = match args.workload.as_str() {
        "cartpole-10k" => sessions::run(
            sessions::Kind::CartPole,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "atari-curriculum" => {
            sessions::run(sessions::Kind::Atari, args.seed, args.seconds, args.trace)
        }
        "serve-zipf" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        outcome.metrics.insert("process.peak_rss_mb", peak_rss_mb());
    }
    let line = ordered(&outcome, args.trace).and_then(|metrics| {
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &metrics,
        )
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checks failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn arguments_parse_and_reject() {
        assert_eq!(
            parse_args(args(
                "--workload serve-zipf --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Args {
                workload: "serve-zipf".into(),
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse_args(args("--workload x --seed 3 --seconds 10")).is_err());
        assert!(parse_args(args("--workload x --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(args("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(args("--bogus 1")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = std::fs::read_to_string(checkout_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the checkout root");
        let (_, metrics) = json
            .split_once("\"end_to_end\"")
            .expect("BENCHMARK.json lists end-to-end metrics");
        let declared: Vec<(&str, &str)> = metrics
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let (name, rest) = entry.split_once('"')?;
                let unit = rest.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let expected: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        assert_eq!(declared, expected);
    }

    #[test]
    fn every_printed_metric_has_a_name_unit_and_finite_value() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: BTreeMap::from([("eval.share", 0.5)]),
        };
        let traced = ordered(&outcome, true).expect("layers default to 0");
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced
            .iter()
            .all(|m| !m.name.is_empty() && !m.unit.is_empty() && m.value.is_finite()));
        assert!(
            ordered(&outcome, false).is_err(),
            "e2e metrics are all required"
        );
        let stray = Outcome {
            metrics: BTreeMap::from([("no.such.metric", 1.0)]),
            ..outcome
        };
        assert!(ordered(&stray, true).is_err());
    }
}
