//! Zero-copy observations, checked against the copying loops they replaced.
//!
//! `genesys_gym::episode_into` and `genesys_gym::adapted_episode` have
//! the environment write each observation straight into the network's
//! input slots (`Scratch::input_slots`) and evaluate it there
//! (`Network::activate_in_place`). The value slots are never zero-filled:
//! input slots keep what the environment last wrote, the adapter zeroes
//! its padding once per episode, and every other slot is written before it
//! is read. The oracles here are the loops this replaced: the environment
//! writes into a buffer of its own, the adapter scatters it into a padded
//! input vector on every step, and `activate_into` copies that into a
//! freshly zeroed scratch. Every episode's `(fitness bits, steps)` must
//! match on evolved genomes: for every environment, for tasks padded into
//! a 128-input plan, under a drift regime that emits −0.0, for an
//! environment that emits NaN and ±∞, and through one scratch reused
//! across interfaces of different widths.

use genesys::gym::{
    adapted_episode, episode_into, regime_gains, ActionKind, AdapterScratch, DriftedEnv, EnvKind,
    Environment, IoAdapter, RolloutScratch,
};
use genesys::neat::trace::OpCounters;
use genesys::neat::{
    Activation, Aggregation, Genome, InitialWeights, InnovationTracker, NeatConfig, Network,
    Scratch, XorWow,
};

/// An evolved policy on `config`'s interface: uniform initial weights, so
/// every input edge (padding inputs included) carries a live weight, every
/// activation and aggregation on offer, and rounds of structural and
/// attribute mutation, so the plan has hidden wavefronts.
fn evolved_net(mut config: NeatConfig, seed: u64) -> Network {
    config.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
    config.activation_options = Activation::ALL.to_vec();
    config.activation_mutate_rate = 0.3;
    config.aggregation_options = Aggregation::ALL.to_vec();
    config.aggregation_mutate_rate = 0.3;
    let mut rng = XorWow::seed_from_u64_value(seed);
    let mut innov = InnovationTracker::new(config.first_hidden_id());
    let mut ops = OpCounters::new();
    let mut genome = Genome::initial(0, &config, &mut rng);
    for _ in 0..6 {
        genome.mutate_add_node(&mut innov, &mut rng, &mut ops);
        genome.mutate_add_conn(&mut rng, &mut ops);
        genome.mutate_attributes(&config, &mut rng, &mut ops);
    }
    let net = Network::from_genome(&genome).expect("mutated genome stays acyclic");
    assert!(net.layers().len() > 2, "the plan has hidden wavefronts");
    net
}

/// The copying `episode_into`: the environment writes into its own `obs`
/// buffer and `activate_into` copies it into a scratch whose value slots
/// all start at zero, as a fresh one does.
fn copying_episode(net: &Network, env: &mut dyn Environment) -> (f64, u64) {
    let mut obs = vec![0.0; env.observation_dim()];
    let mut action = vec![0.0; net.num_outputs()];
    env.reset_into(&mut obs);
    let mut fitness = 0.0;
    let mut steps = 0u64;
    loop {
        net.activate_into(&mut Scratch::new(), &obs, &mut action);
        let (reward, done) = env.step_into(&action, &mut obs);
        fitness += reward;
        steps += 1;
        if done {
            return (fitness, steps);
        }
    }
}

/// The adapter's copying scatter: identity prefix, zero padding, every
/// step.
fn scatter_obs(adapter: &IoAdapter, task_obs: &[f64], input: &mut [f64]) {
    assert_eq!(task_obs.len(), adapter.obs_dim());
    assert_eq!(input.len(), adapter.in_width());
    input[..adapter.obs_dim()].copy_from_slice(task_obs);
    for slot in &mut input[adapter.obs_dim()..] {
        *slot = 0.0;
    }
}

/// The copying `adapted_episode`: observation buffer, a scatter into the
/// padded input vector on every step, then `activate_into` on a zeroed
/// scratch.
fn copying_adapted_episode(
    net: &Network,
    env: &mut dyn Environment,
    adapter: &IoAdapter,
) -> (f64, u64) {
    let mut obs = vec![0.0; adapter.obs_dim()];
    let mut input = vec![f64::NAN; adapter.in_width()];
    let mut action = vec![0.0; adapter.out_width()];
    env.reset_into(&mut obs);
    let mut fitness = 0.0;
    let mut steps = 0u64;
    loop {
        scatter_obs(adapter, &obs, &mut input);
        net.activate_into(&mut Scratch::new(), &input, &mut action);
        let (reward, done) = env.step_into(adapter.gather_actions(&action), &mut obs);
        fitness += reward;
        steps += 1;
        if done {
            return (fitness, steps);
        }
    }
}

fn bits((fitness, steps): (f64, u64)) -> (u64, u64) {
    (fitness.to_bits(), steps)
}

/// An environment whose observations carry NaN, ±∞ and −0.0: one slot per
/// step takes the next special value, the rest a finite pattern. The
/// reward is keyed on the action's exact bits, so an output that differs
/// in any bit changes the fitness.
#[derive(Debug)]
struct Poisoned {
    dim: usize,
    step: usize,
}

impl Poisoned {
    const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
    const STEPS: usize = 96;

    fn write(&self, obs: &mut [f64]) {
        assert_eq!(obs.len(), self.dim);
        for (i, o) in obs.iter_mut().enumerate() {
            *o = ((self.step * 7 + i * 3) % 11) as f64 * 0.25 - 1.0;
        }
        obs[self.step % self.dim] = Poisoned::SPECIALS[self.step % Poisoned::SPECIALS.len()];
    }
}

impl Environment for Poisoned {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn observation_dim(&self) -> usize {
        self.dim
    }

    fn action_dim(&self) -> usize {
        1
    }

    fn action_kind(&self) -> ActionKind {
        ActionKind::Continuous(1)
    }

    fn reset_into(&mut self, obs: &mut [f64]) {
        self.step = 0;
        self.write(obs);
    }

    fn step_into(&mut self, action: &[f64], obs: &mut [f64]) -> (f64, bool) {
        self.step += 1;
        self.write(obs);
        let reward = (action[0].to_bits() % 1021) as f64;
        (reward, self.step >= Poisoned::STEPS)
    }

    fn max_steps(&self) -> usize {
        Poisoned::STEPS
    }
}

#[test]
fn oracle_scatter_copies_the_prefix_and_zero_pads() {
    let adapter = IoAdapter::new(2, 1, 4, 2);
    let mut input = [9.0; 4];
    scatter_obs(&adapter, &[0.25, -1.5], &mut input);
    assert_eq!(input, [0.25, -1.5, 0.0, 0.0]);
}

#[test]
fn every_env_matches_the_copying_loops() {
    for kind in EnvKind::ALL {
        let net = evolved_net(kind.neat_config(), 7);
        let (obs_dim, act_dim) = kind.interface();
        let identity = IoAdapter::new(obs_dim, act_dim, obs_dim, act_dim);
        for seed in [3u64, 41] {
            let want = bits(copying_episode(&net, kind.make(seed).as_mut()));
            let got = episode_into(&net, kind.make(seed).as_mut(), &mut RolloutScratch::new());
            assert_eq!(
                bits(got),
                want,
                "{} seed {seed}: episode_into",
                kind.label()
            );
            let adapted = adapted_episode(
                &net,
                kind.make(seed).as_mut(),
                &identity,
                &mut AdapterScratch::new(),
            );
            let want_adapted = bits(copying_adapted_episode(
                &net,
                kind.make(seed).as_mut(),
                &identity,
            ));
            assert_eq!(want_adapted, want, "{}: identity adapter", kind.label());
            assert_eq!(
                bits(adapted),
                want,
                "{} seed {seed}: adapted_episode",
                kind.label()
            );
        }
    }
}

#[test]
fn tasks_padded_into_a_128_input_plan_match_the_copying_loop() {
    let wide = EnvKind::Alien.neat_config();
    assert_eq!((wide.num_inputs, wide.num_outputs), (128, 1));
    for (kind, seed) in [(EnvKind::CartPole, 5u64), (EnvKind::Acrobot, 6)] {
        let net = evolved_net(wide.clone(), seed);
        let (obs_dim, act_dim) = kind.interface();
        let adapter = IoAdapter::new(obs_dim, act_dim, 128, 1);
        for env_seed in [1u64, 2, 3] {
            let want = copying_adapted_episode(&net, kind.make(env_seed).as_mut(), &adapter);
            let got = adapted_episode(
                &net,
                kind.make(env_seed).as_mut(),
                &adapter,
                &mut AdapterScratch::new(),
            );
            assert!(want.1 > 1, "{}: the episode runs", kind.label());
            assert_eq!(bits(got), bits(want), "{} seed {env_seed}", kind.label());
        }
    }
}

#[test]
fn drifted_amidar_with_negative_zero_observations_matches_the_copying_loops() {
    let (world, regime) = (0x5EED_u64, 3u64);
    assert!(
        regime_gains(world, regime, 128).iter().any(|&g| g < 0.0),
        "the regime flips some sensors"
    );
    let drifted = |seed: u64| DriftedEnv::new(EnvKind::Amidar.make(seed), world, regime);
    let first = drifted(9).reset();
    assert!(
        first.iter().any(|o| o.to_bits() == (-0.0f64).to_bits()),
        "a flipped zero byte reaches the network as -0.0"
    );
    let net = evolved_net(EnvKind::Amidar.neat_config(), 13);
    let adapter = IoAdapter::new(128, 1, 128, 1);
    for seed in [9u64, 10] {
        let want = bits(copying_episode(&net, &mut drifted(seed)));
        let got = episode_into(&net, &mut drifted(seed), &mut RolloutScratch::new());
        assert_eq!(bits(got), want, "seed {seed}: episode_into");
        let adapted = adapted_episode(
            &net,
            &mut drifted(seed),
            &adapter,
            &mut AdapterScratch::new(),
        );
        assert_eq!(bits(adapted), want, "seed {seed}: adapted_episode");
        assert_eq!(
            bits(copying_adapted_episode(&net, &mut drifted(seed), &adapter)),
            want
        );
    }
}

#[test]
fn nan_and_infinite_observations_match_the_copying_loops() {
    let config = NeatConfig::builder(6, 1).build().expect("valid config");
    let net = evolved_net(config, 17);
    let poisoned = || Poisoned { dim: 6, step: 0 };
    let want = copying_episode(&net, &mut poisoned());
    assert_eq!(want.1, Poisoned::STEPS as u64);
    let got = episode_into(&net, &mut poisoned(), &mut RolloutScratch::new());
    assert_eq!(bits(got), bits(want));

    // The same environment padded into an 8-input plan.
    let config = NeatConfig::builder(8, 1).build().expect("valid config");
    let wide = evolved_net(config, 19);
    let adapter = IoAdapter::new(6, 1, 8, 1);
    let want = copying_adapted_episode(&wide, &mut poisoned(), &adapter);
    let got = adapted_episode(&wide, &mut poisoned(), &adapter, &mut AdapterScratch::new());
    assert_eq!(bits(got), bits(want));
}

#[test]
fn one_scratch_reused_wide_narrow_wide_matches_the_copying_loops() {
    // A 128-input episode leaves RAM bytes in every input slot and in the
    // slots a narrower network uses for its hidden and output nodes. None
    // of it may reach a 4-input network or a padding slot.
    let alien = evolved_net(EnvKind::Alien.neat_config(), 23);
    let cartpole = evolved_net(EnvKind::CartPole.neat_config(), 29);
    let acrobot = evolved_net(EnvKind::Acrobot.neat_config(), 31);
    let mut rollout = RolloutScratch::new();
    let runs: [(EnvKind, &Network); 5] = [
        (EnvKind::Alien, &alien),
        (EnvKind::CartPole, &cartpole),
        (EnvKind::Alien, &alien),
        (EnvKind::Acrobot, &acrobot),
        (EnvKind::CartPole, &cartpole),
    ];
    for (i, (kind, net)) in runs.into_iter().enumerate() {
        let seed = 100 + i as u64;
        let want = copying_episode(net, kind.make(seed).as_mut());
        let got = episode_into(net, kind.make(seed).as_mut(), &mut rollout);
        assert_eq!(bits(got), bits(want), "run {i}: {}", kind.label());
    }

    // One AdapterScratch across a 128-wide task, a 4-input plan, then
    // narrow tasks padded into the 128-input plan and back.
    let wide = evolved_net(EnvKind::Alien.neat_config(), 37);
    let mut scratch = AdapterScratch::new();
    let runs: [(EnvKind, &Network, usize); 6] = [
        (EnvKind::Alien, &wide, 128),
        (EnvKind::CartPole, &cartpole, 4),
        (EnvKind::Asterix, &wide, 128),
        (EnvKind::CartPole, &wide, 128),
        (EnvKind::Amidar, &wide, 128),
        (EnvKind::Acrobot, &wide, 128),
    ];
    for (i, (kind, net, width)) in runs.into_iter().enumerate() {
        let seed = 200 + i as u64;
        let (obs_dim, act_dim) = kind.interface();
        let adapter = IoAdapter::new(obs_dim, act_dim, width, 1);
        let want = copying_adapted_episode(net, kind.make(seed).as_mut(), &adapter);
        let got = adapted_episode(net, kind.make(seed).as_mut(), &adapter, &mut scratch);
        assert_eq!(bits(got), bits(want), "run {i}: {}", kind.label());
    }
}

#[test]
#[should_panic(expected = "observation size must match the genome interface")]
fn episode_into_rejects_a_mismatched_env() {
    let net = evolved_net(EnvKind::CartPole.neat_config(), 1);
    episode_into(
        &net,
        EnvKind::Acrobot.make(1).as_mut(),
        &mut RolloutScratch::new(),
    );
}
