//! The observability budget pinned in `docs/scenarios.md`: collecting the
//! population diagnostics over a pop-10⁴ generation costs **< 5 % of that
//! generation's evaluation time**.
//!
//! One evaluated LunarLander generation at the pinned population, at the
//! scenario suite's 2-episode evaluation convention (the count the
//! metrics probes use). The eval clock comes from the generation's own
//! stats; the diagnostics clock from re-running the collector on the same
//! genome buffer, the minimum of a few passes so one scheduler burst
//! cannot inflate it.
//!
//! The budget is a release-build figure (optimization shifts the two
//! clocks by different factors), so the test is ignored in debug builds.
//! Run it with `cargo test --release --test diagnostics_budget -- --nocapture`
//! to see the reading.

use genesys::gym::{EnvKind, Task, TaskPlan, TaskSequence};
use genesys::neat::{InitialWeights, PopulationDiagnostics, Session};
use std::time::Instant;

/// Pinned population for the budget.
const POP: usize = 10_000;
/// Diagnostics may cost at most this fraction of evaluation time.
const BUDGET: f64 = 0.05;

#[test]
#[cfg_attr(debug_assertions, ignore = "the budget is a release-build figure")]
fn diagnostics_cost_under_five_percent_of_eval_at_pop_10k() {
    let plan = TaskPlan::new(77, vec![Task::new(EnvKind::LunarLander, 1_000_000)]);
    let mut config = plan.neat_config();
    config.pop_size = POP;
    config.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
    config.target_fitness = None;
    let mut session = Session::builder(config, 21)
        .unwrap()
        .workload(TaskSequence::new(plan).with_episodes(2))
        .threads(1)
        .build();
    let stats = session.step();
    let eval_s = stats.eval_ns as f64 / 1e9;
    let diag_s = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(PopulationDiagnostics::collect(session.genomes()));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let ratio = diag_s / eval_s.max(1e-12);
    println!(
        "diagnostics at pop {POP}: {:.2} ms against {:.0} ms eval ({:.2} % of eval time, \
         budget {:.0} %)",
        diag_s * 1e3,
        eval_s * 1e3,
        ratio * 1e2,
        BUDGET * 1e2
    );
    assert!(
        ratio < BUDGET,
        "population diagnostics cost {:.2} % of evaluation time at pop {POP} (budget {:.0} %)",
        ratio * 1e2,
        BUDGET * 1e2
    );
}
