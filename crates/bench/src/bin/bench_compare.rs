//! CI bench-regression gate.
//!
//! Compares a fresh `cargo bench` result file (JSON lines written by the
//! vendored criterion shim when `GENESYS_BENCH_JSON` is set) against the
//! committed baseline and **fails (exit 1) if any benchmark's minimum
//! iteration time regressed more than the threshold** (default 25 %).
//!
//! The *minimum* is compared, not the mean: min is the statistic least
//! contaminated by scheduler noise on shared CI runners, which is why the
//! shim reports min/mean/p95 instead of mean-only.
//!
//! Usage:
//!
//! ```text
//! bench_compare [--baseline PATH] [--results PATH] [--threshold PCT]
//!               [--update] [--no-calibration]
//! ```
//!
//! * `--baseline`  committed reference (default `crates/bench/bench_baseline.json`)
//! * `--results`   fresh measurements  (default `BENCH_results.json`)
//! * `--threshold` allowed regression in percent (default `25`)
//! * `--update`    rewrite the baseline from the results instead of comparing
//! * `--no-calibration` skip cross-machine rescaling (see below)
//!
//! Benchmarks that pass but sit within 5 percentage points of the
//! threshold are listed as **near misses**, so a slow drift is visible
//! before it trips the gate.
//!
//! Benchmarks present only in the results (newly added) pass with a note
//! and are counted, so the summary makes a stale baseline obvious.
//! Benchmarks present only in the baseline (removed, renamed, or silently
//! dropped by a partial run) **fail the gate**: a capture that lost
//! entries would otherwise pass while covering less than the baseline
//! promises. Intentional removals must refresh the baseline with
//! `--update`.
//!
//! # Cross-machine normalization
//!
//! Committed baselines are recorded on one machine; CI runs on another.
//! When **both** files contain the `calibration/spin` probe (a fixed
//! workload that only measures machine speed — see
//! `crates/bench/benches/calibration.rs`), every baseline time is rescaled
//! by `results_spin / baseline_spin` before comparing, so a uniformly
//! faster or slower host does not masquerade as a code change. The probe
//! itself is exempt from the gate. Pass `--no-calibration` to compare raw
//! times.
//!
//! The probe is single-threaded, so it cannot normalize a *core-count*
//! gap: multithreaded benchmarks (ids matching [`PARALLEL_MARKERS`]) are
//! shown but not gated when the two files report different `"cores"`
//! values.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The machine-speed probe used to rescale cross-machine baselines.
const CALIBRATION_ID: &str = "calibration/spin";

/// Benchmarks whose wall-clock scales with *core count*, not single-thread
/// speed. When baseline and results report different core counts (the shim
/// records `"cores"` per line), these are shown but not gated — the
/// single-thread calibration probe cannot normalize a core-count gap.
const PARALLEL_MARKERS: &[&str] = &["_threads/", "static_chunks", "/pool/"];

fn is_parallel_bench(id: &str) -> bool {
    PARALLEL_MARKERS.iter().any(|m| id.contains(m))
}

/// One benchmark's record from a JSON-lines result file.
#[derive(Debug, Clone, Copy)]
struct Record {
    min_ns: u64,
    mean_ns: u64,
    p95_ns: u64,
    iters: u64,
    /// Core count of the recording machine; 0 for pre-`cores` files.
    cores: u64,
}

/// Extracts the string value of `"key":"..."` from a single JSON line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
}

/// Extracts the integer value of `"key":123` from a single JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses a JSON-lines bench file into `id → record`. Later lines win on
/// duplicate ids (a re-run within one file supersedes earlier samples).
fn parse_file(path: &str) -> Result<BTreeMap<String, Record>, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = BTreeMap::new();
    for (lineno, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = json_str(line, "id").and_then(|id| {
            Some((
                id,
                Record {
                    min_ns: json_u64(line, "min_ns")?,
                    mean_ns: json_u64(line, "mean_ns")?,
                    p95_ns: json_u64(line, "p95_ns")?,
                    iters: json_u64(line, "iters")?,
                    cores: json_u64(line, "cores").unwrap_or(0),
                },
            ))
        });
        match parsed {
            Some((id, record)) => {
                out.insert(id, record);
            }
            None => return Err(format!("{path}:{}: malformed bench line", lineno + 1)),
        }
    }
    Ok(out)
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = arg_value(&args, "--baseline")
        .unwrap_or_else(|| "crates/bench/bench_baseline.json".to_string());
    let results_path =
        arg_value(&args, "--results").unwrap_or_else(|| "BENCH_results.json".to_string());
    let threshold_pct: f64 = arg_value(&args, "--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let update = args.iter().any(|a| a == "--update");

    let results = match parse_file(&results_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if results.is_empty() {
        eprintln!("error: {results_path} holds no benchmark records");
        return ExitCode::FAILURE;
    }

    if update {
        let mut out = String::new();
        for (id, r) in &results {
            out.push_str(&format!(
                "{{\"id\":\"{id}\",\"min_ns\":{},\"mean_ns\":{},\"p95_ns\":{},\"iters\":{},\"cores\":{}}}\n",
                r.min_ns, r.mean_ns, r.p95_ns, r.iters, r.cores
            ));
        }
        if let Err(e) = std::fs::write(&baseline_path, out) {
            eprintln!("error: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "baseline {baseline_path} updated with {} benchmarks",
            results.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match parse_file(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e} (run with --update to create it)");
            return ExitCode::FAILURE;
        }
    };

    // Machine-speed scale: >1 means this machine is slower than the one
    // that recorded the baseline, so baseline times are scaled up.
    let no_calibration = args.iter().any(|a| a == "--no-calibration");
    let scale = match (baseline.get(CALIBRATION_ID), results.get(CALIBRATION_ID)) {
        _ if no_calibration => 1.0,
        (Some(base), Some(new)) => {
            let s = new.min_ns as f64 / base.min_ns.max(1) as f64;
            println!(
                "calibration: this machine runs {CALIBRATION_ID} at {s:.2}x the baseline \
                 machine; baseline times rescaled accordingly\n"
            );
            s
        }
        _ => {
            println!("calibration: {CALIBRATION_ID} missing from baseline or results; comparing raw times\n");
            1.0
        }
    };

    let mut regressions = Vec::new();
    let mut near_misses = Vec::new();
    let mut compared = 0usize;
    let mut exempted = 0usize;
    let mut added = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "benchmark", "base min*", "new min", "delta"
    );
    for (id, new) in &results {
        if id == CALIBRATION_ID {
            continue; // the probe measures the machine, not the code
        }
        match baseline.get(id) {
            None => {
                added += 1;
                println!("{id:<44} {:>12} {:>12} {:>8}", "-", new.min_ns, "new");
            }
            Some(base) => {
                // A core-count gap makes multithreaded timings incomparable:
                // the single-thread probe cannot normalize it either way.
                let core_gap = base.cores != new.cores && base.cores != 0 && new.cores != 0;
                let exempt = core_gap && is_parallel_bench(id);
                let scaled_base = (base.min_ns as f64 * scale).max(1.0);
                let delta = new.min_ns as f64 / scaled_base - 1.0;
                println!(
                    "{id:<44} {:>12.0} {:>12} {:>+7.1}%{}",
                    scaled_base,
                    new.min_ns,
                    delta * 100.0,
                    if exempt {
                        "  (not gated: parallel bench, core count differs)"
                    } else {
                        ""
                    }
                );
                if exempt {
                    exempted += 1;
                    continue;
                }
                compared += 1;
                if delta * 100.0 > threshold_pct {
                    regressions.push((id.clone(), delta));
                } else if delta * 100.0 > threshold_pct - 5.0 {
                    // Passing, but within 5 points of the gate: surface it
                    // so a slow drift is visible before it trips the gate.
                    near_misses.push((id.clone(), delta));
                }
            }
        }
    }
    // A fresh capture that *lost* baseline entries must not pass silently:
    // missing coverage is a gate failure, not a warning (refresh the
    // baseline with --update when a removal is intentional).
    let missing: Vec<&String> = baseline
        .keys()
        .filter(|id| !results.contains_key(*id) && *id != CALIBRATION_ID)
        .collect();
    for id in &missing {
        println!("MISSING: {id} present in baseline but absent from results");
    }
    if !near_misses.is_empty() {
        println!("\nnear misses (passing, but within 5 points of the +{threshold_pct}% gate):");
        for (id, delta) in &near_misses {
            println!("  {id} {:+.1}%", delta * 100.0);
        }
    }
    println!(
        "\ncompared {compared} benchmarks against {baseline_path} (threshold +{threshold_pct}% on min{}); {added} new, {} missing",
        if exempted > 0 {
            format!("; {exempted} parallel benches exempt on core-count mismatch")
        } else {
            String::new()
        },
        missing.len()
    );
    if regressions.is_empty() && missing.is_empty() {
        println!("bench regression gate: PASS");
        ExitCode::SUCCESS
    } else {
        for (id, delta) in &regressions {
            eprintln!(
                "REGRESSION: {id} is {:+.1}% slower than baseline",
                delta * 100.0
            );
        }
        if !missing.is_empty() {
            eprintln!(
                "MISSING: {} baseline benchmark(s) absent from results (intentional removals need --update)",
                missing.len()
            );
        }
        eprintln!(
            "bench regression gate: FAIL ({} regressed, {} missing)",
            regressions.len(),
            missing.len()
        );
        ExitCode::FAILURE
    }
}
