//! Extension experiment: clock/power gating under realistic environment
//! interaction rates (Section VI-D's closing observation).
//!
//! The paper's simulated environments respond instantly; real robots
//! respond at tens of Hz. The shorter GeneSys's compute window, the longer
//! the gated idle window, and the lower the average power.
//!
//! Usage: `ext_power_gating [--pop N] [--generations N] [--seed N]`

use genesys_bench::{genesys_cost, print_table, run_workload, ExperimentArgs};
use genesys_core::{GatingModel, SocConfig};
use genesys_gym::EnvKind;

fn main() {
    let args = ExperimentArgs::parse();
    let pop = args.pop_or(64);
    let generations = args.generations_or(6);

    let soc = SocConfig::default();
    let gating = GatingModel::default();
    let active_mw = soc.roofline_power_mw();

    eprintln!("profiling LunarLander for the compute window...");
    let run = run_workload(
        EnvKind::LunarLander,
        generations,
        args.base_seed(5),
        Some(pop),
    );
    let cost = genesys_cost(&run, &soc);
    let busy_s = cost.inference_s + cost.evolution_s;

    // Environment interaction rates: instant (paper), 100 Hz control loop,
    // 10 Hz robot, 1 Hz slow process. Idle time = steps / rate.
    let rows: Vec<Vec<String>> = [
        ("instant (paper)", f64::INFINITY),
        ("1 kHz", 1e3),
        ("100 Hz", 1e2),
        ("10 Hz", 1e1),
    ]
    .iter()
    .map(|&(label, rate)| {
        let idle_s = if rate.is_infinite() {
            0.0
        } else {
            run.env_steps_per_gen / rate
        };
        let avg = gating.average_power_mw(active_mw, busy_s, idle_s);
        let duty = busy_s / (busy_s + idle_s).max(1e-30);
        vec![
            label.to_string(),
            format!("{:.3}", busy_s * 1e3),
            format!("{:.1}", idle_s * 1e3),
            format!("{:.4}%", duty * 100.0),
            format!("{avg:.1}"),
            format!("{:.0}x", active_mw / avg.max(1e-12)),
        ]
    })
    .collect();

    print_table(
        "Power gating vs environment interaction rate (per generation)",
        &["Env rate", "busy ms", "idle ms", "duty", "avg mW", "saving"],
        &rows,
    );
    println!(
        "\nGating model: {:.0}% leakage while gated.",
        gating.idle_power_fraction * 100.0
    );
    println!(
        "Duty cycle for a 10x average-power win: {:.2}%.",
        gating.ten_x_duty_cycle() * 100.0
    );
}
