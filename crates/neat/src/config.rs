//! NEAT hyper-parameter configuration.
//!
//! The paper's CPU thread "performs the configuration steps of the NEAT
//! algorithm (setting the various probabilities, population size, fitness
//! equation, and so on)". This module is that configuration surface; the
//! defaults follow `neat-python`'s canonical config, with the paper's
//! choices (population 150, initial fully-connected topology with zero
//! weights) baked in.

use crate::activation::Activation;
use crate::aggregation::Aggregation;
use crate::error::ConfigError;

/// How the weights of the initial fully-connected population are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialWeights {
    /// All initial connection weights are zero — the paper's Section III-B
    /// setup ("fully-connected but the weight on each connection is set to
    /// zero").
    Zero,
    /// Initial weights drawn uniformly from `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Initial weights drawn from a Gaussian with the given standard
    /// deviation.
    Gaussian {
        /// Standard deviation.
        stdev: f64,
    },
}

/// Complete NEAT hyper-parameter set.
///
/// Construct via [`NeatConfig::builder`] (validated) or grab a tuned preset
/// with [`NeatConfig::for_env`].
#[derive(Debug, Clone, PartialEq)]
pub struct NeatConfig {
    /// Number of input (sensor) nodes; equals the environment observation
    /// dimension.
    pub num_inputs: usize,
    /// Number of output (actuator) nodes; equals the action dimension.
    pub num_outputs: usize,
    /// Individuals per generation (paper: 150).
    pub pop_size: usize,
    /// How initial connection weights are drawn.
    pub initial_weights: InitialWeights,

    // -- mutation: perturbation -------------------------------------------------
    /// Probability that a connection weight is mutated at all.
    pub weight_mutate_rate: f64,
    /// Probability that a mutated weight is *replaced* by a fresh random
    /// value rather than perturbed.
    pub weight_replace_rate: f64,
    /// Standard deviation of the Gaussian perturbation applied to weights.
    pub weight_perturb_power: f64,
    /// Clamp for weights.
    pub weight_min: f64,
    /// Clamp for weights.
    pub weight_max: f64,
    /// Probability that a node bias is mutated.
    pub bias_mutate_rate: f64,
    /// Probability that a mutated bias is replaced rather than perturbed.
    pub bias_replace_rate: f64,
    /// Standard deviation of bias perturbation.
    pub bias_perturb_power: f64,
    /// Clamp for biases.
    pub bias_min: f64,
    /// Clamp for biases.
    pub bias_max: f64,
    /// Probability that a node response is mutated.
    pub response_mutate_rate: f64,
    /// Probability that a mutated response is replaced rather than perturbed.
    pub response_replace_rate: f64,
    /// Standard deviation of response perturbation.
    pub response_perturb_power: f64,
    /// Clamp for responses.
    pub response_min: f64,
    /// Clamp for responses.
    pub response_max: f64,
    /// Probability that a node's activation function is re-drawn.
    pub activation_mutate_rate: f64,
    /// Activation functions available to mutation.
    pub activation_options: Vec<Activation>,
    /// Probability that a node's aggregation function is re-drawn.
    pub aggregation_mutate_rate: f64,
    /// Aggregation functions available to mutation.
    pub aggregation_options: Vec<Aggregation>,
    /// Probability that an enabled flag flips.
    pub enabled_mutate_rate: f64,

    // -- mutation: structural ---------------------------------------------------
    /// Probability of inserting a new connection gene.
    pub conn_add_prob: f64,
    /// Probability of deleting a connection gene.
    pub conn_delete_prob: f64,
    /// Probability of inserting a new node gene (splitting a connection).
    pub node_add_prob: f64,
    /// Probability of deleting a hidden node gene.
    pub node_delete_prob: f64,
    /// Ceiling on node deletions per genome per generation; the hardware
    /// Delete-Gene engine checks "the number of previously deleted nodes …
    /// to keep the genome alive".
    pub node_delete_limit: usize,

    // -- speciation ---------------------------------------------------------
    /// Compatibility distance above which two genomes belong to different
    /// species.
    pub compatibility_threshold: f64,
    /// Coefficient on the count of disjoint/excess genes.
    pub compatibility_disjoint_coefficient: f64,
    /// Coefficient on the attribute distance of matching genes.
    pub compatibility_weight_coefficient: f64,
    /// Generations without fitness improvement before a species is removed.
    pub max_stagnation: usize,
    /// Number of best species protected from stagnation removal.
    pub species_elitism: usize,
    /// Ceiling on the number of species representatives a genome is
    /// compared against during speciation, making `speciate_on` O(n·K)
    /// instead of O(n·species) at megapopulation scale.
    ///
    /// Only the first `species_representative_cap` species (in creation
    /// order) act as assignment candidates; once the cap is reached no new
    /// species are founded and unmatched genomes join the nearest capped
    /// candidate instead. **Determinism trade** (same shape as the
    /// reproduction pipeline's per-child seeds): runs whose species count
    /// stays below the cap are bit-identical to the uncapped
    /// implementation — true at paper scale with the default cap of 64 —
    /// while runs that hit the cap produce different (but still
    /// reproducible and worker-count-invariant) trajectories than an
    /// uncapped run would.
    pub species_representative_cap: usize,
    /// Scores every speciation candidate with the scalar early-exit loop,
    /// one merge-join per representative, at any population size —
    /// instead of the blocked columnar scan populations of 128 or more
    /// take by default.
    ///
    /// The blocked scan is **bit-identical** to the scalar one by
    /// construction (see `docs/speciation.md`), so this knob is the
    /// blocked scan's test oracle, not a behavioural choice.
    pub speciate_exact: bool,

    // -- reproduction ---------------------------------------------------------
    /// Per-species count of top genomes copied unchanged into the next
    /// generation.
    pub elitism: usize,
    /// Fraction of each species (by fitness rank) allowed to be a parent.
    pub survival_threshold: f64,
    /// Minimum genomes per surviving species.
    pub min_species_size: usize,
    /// Probability that reproduction is sexual (two distinct parents and a
    /// crossover) rather than asexual (clone + mutate).
    pub crossover_prob: f64,

    // -- islands -----------------------------------------------------------
    /// Number of islands the population is sharded into by the
    /// [`Archipelago`](crate::island::Archipelago) backend.
    ///
    /// `1` (the default) keeps the monolithic single-population engine;
    /// larger values split `pop_size` into that many independently
    /// evolving islands (own species sets, innovation trackers and RNG
    /// streams) with periodic ring migration. See `docs/islands.md` for
    /// the topology and determinism contract.
    pub islands: usize,
    /// Generations between migration epochs: every `migration_interval`-th
    /// generation each island sends its top [`migration_k`](Self::migration_k)
    /// genomes to its ring successor.
    pub migration_interval: usize,
    /// Emigrants per island per migration epoch (selected by fitness via
    /// `total_cmp`; they replace the destination's worst genomes).
    pub migration_k: usize,

    // -- termination -------------------------------------------------------
    /// Evolution stops once the best raw fitness reaches this value (if set).
    pub target_fitness: Option<f64>,
}

impl NeatConfig {
    /// Starts building a config for a problem with the given interface
    /// size. All other fields start from the `neat-python`-style defaults.
    pub fn builder(num_inputs: usize, num_outputs: usize) -> NeatConfigBuilder {
        NeatConfigBuilder {
            config: NeatConfig::defaults(num_inputs, num_outputs),
        }
    }

    fn defaults(num_inputs: usize, num_outputs: usize) -> NeatConfig {
        NeatConfig {
            num_inputs,
            num_outputs,
            pop_size: 150,
            initial_weights: InitialWeights::Zero,
            weight_mutate_rate: 0.8,
            weight_replace_rate: 0.1,
            weight_perturb_power: 0.5,
            weight_min: -30.0,
            weight_max: 30.0,
            bias_mutate_rate: 0.7,
            bias_replace_rate: 0.1,
            bias_perturb_power: 0.5,
            bias_min: -30.0,
            bias_max: 30.0,
            response_mutate_rate: 0.0,
            response_replace_rate: 0.0,
            response_perturb_power: 0.0,
            response_min: -30.0,
            response_max: 30.0,
            activation_mutate_rate: 0.0,
            activation_options: vec![Activation::Sigmoid],
            aggregation_mutate_rate: 0.0,
            aggregation_options: vec![Aggregation::Sum],
            enabled_mutate_rate: 0.01,
            conn_add_prob: 0.5,
            conn_delete_prob: 0.5,
            node_add_prob: 0.2,
            node_delete_prob: 0.2,
            node_delete_limit: 8,
            compatibility_threshold: 3.0,
            compatibility_disjoint_coefficient: 1.0,
            compatibility_weight_coefficient: 0.5,
            max_stagnation: 15,
            species_elitism: 2,
            species_representative_cap: 64,
            speciate_exact: false,
            elitism: 2,
            survival_threshold: 0.2,
            min_species_size: 2,
            crossover_prob: 0.75,
            islands: 1,
            migration_interval: 8,
            migration_k: 2,
            target_fitness: None,
        }
    }

    /// Returns a preset tuned for one of the paper's workloads, keyed by a
    /// lowercase environment family name (`"cartpole"`, `"mountaincar"`,
    /// `"acrobot"`, `"lunarlander"`, `"bipedal"`, `"atari"`). Unknown names
    /// fall back to the generic defaults.
    pub fn for_env(name: &str, num_inputs: usize, num_outputs: usize) -> NeatConfig {
        let mut c = NeatConfig::defaults(num_inputs, num_outputs);
        match name {
            "cartpole" => {
                c.target_fitness = Some(195.0);
            }
            "mountaincar" => {
                // Sparse-reward task: more aggressive structural search.
                c.conn_add_prob = 0.6;
                c.node_add_prob = 0.3;
                c.target_fitness = Some(-110.0);
            }
            "acrobot" => {
                c.target_fitness = Some(-100.0);
            }
            "lunarlander" => {
                c.activation_options =
                    vec![Activation::Tanh, Activation::Relu, Activation::Sigmoid];
                c.activation_mutate_rate = 0.1;
                c.target_fitness = Some(200.0);
            }
            "bipedal" => {
                c.activation_options = vec![Activation::Tanh];
                c.target_fitness = Some(100.0);
            }
            "atari" => {
                // 128-input genomes grow large; rein in deletion churn.
                c.node_delete_limit = 16;
                c.compatibility_threshold = 4.0;
            }
            _ => {}
        }
        c
    }

    /// Validates the configuration.
    ///
    /// Besides probabilities and bounds, both compatibility coefficients
    /// must be finite and non-negative. The compatibility distance skips
    /// the constant input prefix every genome shares and counts it as
    /// matched, which keeps every distance bit-identical to the full
    /// walk only while `0 * coefficient` is `+0.0` (see
    /// `docs/speciation.md`, "The input prefix").
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint:
    /// [`ConfigError::InvalidBound`] for a negative, infinite or NaN
    /// compatibility coefficient.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pop_size == 0 {
            return Err(ConfigError::EmptyPopulation);
        }
        if self.num_inputs == 0 || self.num_outputs == 0 {
            return Err(ConfigError::EmptyInterface);
        }
        let probs: [(&'static str, f64); 13] = [
            ("weight_mutate_rate", self.weight_mutate_rate),
            ("weight_replace_rate", self.weight_replace_rate),
            ("bias_mutate_rate", self.bias_mutate_rate),
            ("bias_replace_rate", self.bias_replace_rate),
            ("response_mutate_rate", self.response_mutate_rate),
            ("response_replace_rate", self.response_replace_rate),
            ("activation_mutate_rate", self.activation_mutate_rate),
            ("aggregation_mutate_rate", self.aggregation_mutate_rate),
            ("enabled_mutate_rate", self.enabled_mutate_rate),
            ("conn_add_prob", self.conn_add_prob),
            ("conn_delete_prob", self.conn_delete_prob),
            ("node_add_prob", self.node_add_prob),
            ("node_delete_prob", self.node_delete_prob),
        ];
        for (field, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::ProbabilityOutOfRange { field });
            }
        }
        if !(0.0..=1.0).contains(&self.survival_threshold) {
            return Err(ConfigError::ProbabilityOutOfRange {
                field: "survival_threshold",
            });
        }
        if !(0.0..=1.0).contains(&self.crossover_prob) {
            return Err(ConfigError::ProbabilityOutOfRange {
                field: "crossover_prob",
            });
        }
        if self.weight_min > self.weight_max {
            return Err(ConfigError::InvalidBound { field: "weight" });
        }
        if self.bias_min > self.bias_max {
            return Err(ConfigError::InvalidBound { field: "bias" });
        }
        if self.response_min > self.response_max {
            return Err(ConfigError::InvalidBound { field: "response" });
        }
        // The compatibility distance counts each genome's constant input
        // prefix as matched without walking it: every matched pair adds
        // `0 * coefficient`, which is exactly +0.0 only for a finite,
        // non-negative coefficient (`0 * inf` is NaN).
        for (field, coefficient) in [
            (
                "compatibility_weight_coefficient",
                self.compatibility_weight_coefficient,
            ),
            (
                "compatibility_disjoint_coefficient",
                self.compatibility_disjoint_coefficient,
            ),
        ] {
            if !(coefficient.is_finite() && coefficient >= 0.0) {
                return Err(ConfigError::InvalidBound { field });
            }
        }
        if self.species_representative_cap == 0 {
            return Err(ConfigError::InvalidBound {
                field: "species_representative_cap",
            });
        }
        if self.islands == 0 || self.islands > self.pop_size {
            return Err(ConfigError::InvalidBound { field: "islands" });
        }
        if self.migration_interval == 0 {
            return Err(ConfigError::InvalidBound {
                field: "migration_interval",
            });
        }
        // Every island must keep at least one resident genome after
        // receiving k migrants; the smallest island holds pop/islands.
        if self.islands > 1 && self.migration_k >= self.pop_size / self.islands {
            return Err(ConfigError::InvalidBound {
                field: "migration_k",
            });
        }
        Ok(())
    }

    /// Id of the first output node (outputs follow inputs in id space).
    pub fn first_output_id(&self) -> u32 {
        self.num_inputs as u32
    }

    /// Id of the first hidden node handed out by the innovation tracker.
    pub fn first_hidden_id(&self) -> u32 {
        (self.num_inputs + self.num_outputs) as u32
    }
}

/// Builder for [`NeatConfig`] (see [`NeatConfig::builder`]).
#[derive(Debug, Clone)]
pub struct NeatConfigBuilder {
    config: NeatConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl NeatConfigBuilder {
    builder_setters! {
        /// Sets the population size.
        pop_size: usize,
        /// Sets how initial connection weights are drawn.
        initial_weights: InitialWeights,
        /// Sets the weight mutation rate.
        weight_mutate_rate: f64,
        /// Sets the weight replacement rate.
        weight_replace_rate: f64,
        /// Sets the weight perturbation power.
        weight_perturb_power: f64,
        /// Sets the bias mutation rate.
        bias_mutate_rate: f64,
        /// Sets the bias perturbation power.
        bias_perturb_power: f64,
        /// Sets the response mutation rate.
        response_mutate_rate: f64,
        /// Sets the activation mutation rate.
        activation_mutate_rate: f64,
        /// Sets the available activation functions.
        activation_options: Vec<Activation>,
        /// Sets the aggregation mutation rate.
        aggregation_mutate_rate: f64,
        /// Sets the available aggregation functions.
        aggregation_options: Vec<Aggregation>,
        /// Sets the enabled-flag mutation rate.
        enabled_mutate_rate: f64,
        /// Sets the add-connection probability.
        conn_add_prob: f64,
        /// Sets the delete-connection probability.
        conn_delete_prob: f64,
        /// Sets the add-node probability.
        node_add_prob: f64,
        /// Sets the delete-node probability.
        node_delete_prob: f64,
        /// Sets the per-generation node deletion ceiling.
        node_delete_limit: usize,
        /// Sets the speciation compatibility threshold.
        compatibility_threshold: f64,
        /// Sets the disjoint/excess compatibility coefficient.
        compatibility_disjoint_coefficient: f64,
        /// Sets the matching-gene compatibility coefficient.
        compatibility_weight_coefficient: f64,
        /// Sets the stagnation limit.
        max_stagnation: usize,
        /// Sets the number of species protected from stagnation.
        species_elitism: usize,
        /// Sets the speciation representative-comparison ceiling.
        species_representative_cap: usize,
        /// Forces the scalar speciation scan (the blocked scan's oracle).
        speciate_exact: bool,
        /// Sets per-species elitism.
        elitism: usize,
        /// Sets the parent survival threshold.
        survival_threshold: f64,
        /// Sets the minimum species size.
        min_species_size: usize,
        /// Sets the sexual-reproduction probability.
        crossover_prob: f64,
        /// Sets the island count for the archipelago backend.
        islands: usize,
        /// Sets the generations between migration epochs.
        migration_interval: usize,
        /// Sets the emigrants per island per migration epoch.
        migration_k: usize,
        /// Sets the target fitness for convergence.
        target_fitness: Option<f64>,
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any field is out of range.
    pub fn build(self) -> Result<NeatConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(NeatConfig::builder(4, 2).build().is_ok());
    }

    #[test]
    fn every_preset_is_valid() {
        for name in [
            "cartpole",
            "mountaincar",
            "acrobot",
            "lunarlander",
            "bipedal",
            "atari",
            "x",
        ] {
            assert!(NeatConfig::for_env(name, 8, 4).validate().is_ok(), "{name}");
        }
    }

    #[test]
    fn zero_population_rejected() {
        let err = NeatConfig::builder(2, 1).pop_size(0).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyPopulation);
    }

    #[test]
    fn empty_interface_rejected() {
        let err = NeatConfig::builder(0, 1).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyInterface);
    }

    #[test]
    fn bad_probability_rejected() {
        let err = NeatConfig::builder(2, 1)
            .conn_add_prob(1.5)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ProbabilityOutOfRange {
                field: "conn_add_prob"
            }
        );
    }

    #[test]
    fn id_layout() {
        let c = NeatConfig::builder(6, 3).build().unwrap();
        assert_eq!(c.first_output_id(), 6);
        assert_eq!(c.first_hidden_id(), 9);
    }

    #[test]
    fn zero_representative_cap_rejected() {
        let err = NeatConfig::builder(2, 1)
            .species_representative_cap(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidBound {
                field: "species_representative_cap"
            }
        );
    }

    #[test]
    fn nonfinite_or_negative_compatibility_coefficients_rejected() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.5] {
            let err = NeatConfig::builder(2, 1)
                .compatibility_weight_coefficient(bad)
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvalidBound {
                    field: "compatibility_weight_coefficient"
                },
                "{bad}"
            );
            let err = NeatConfig::builder(2, 1)
                .compatibility_disjoint_coefficient(bad)
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvalidBound {
                    field: "compatibility_disjoint_coefficient"
                },
                "{bad}"
            );
        }
        // Zero is a valid (if degenerate) coefficient.
        assert!(NeatConfig::builder(2, 1)
            .compatibility_weight_coefficient(0.0)
            .compatibility_disjoint_coefficient(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn megapop_knobs_have_scalar_safe_defaults() {
        let c = NeatConfig::builder(2, 1).build().unwrap();
        assert_eq!(c.species_representative_cap, 64);
    }

    #[test]
    fn island_knobs_default_to_monolithic() {
        let c = NeatConfig::builder(2, 1).build().unwrap();
        assert_eq!(c.islands, 1);
        assert_eq!(c.migration_interval, 8);
        assert_eq!(c.migration_k, 2);
    }

    #[test]
    fn bad_island_knobs_rejected() {
        let err = NeatConfig::builder(2, 1).islands(0).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidBound { field: "islands" });
        let err = NeatConfig::builder(2, 1)
            .pop_size(8)
            .islands(9)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBound { field: "islands" });
        let err = NeatConfig::builder(2, 1)
            .migration_interval(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidBound {
                field: "migration_interval"
            }
        );
        // k must leave at least one resident on the smallest island.
        let err = NeatConfig::builder(2, 1)
            .pop_size(16)
            .islands(4)
            .migration_k(4)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidBound {
                field: "migration_k"
            }
        );
        // Monolithic runs ignore migration_k entirely.
        assert!(NeatConfig::builder(2, 1)
            .pop_size(16)
            .migration_k(99)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = NeatConfig::builder(2, 1)
            .pop_size(10)
            .elitism(1)
            .crossover_prob(0.5)
            .build()
            .unwrap();
        assert_eq!(c.pop_size, 10);
        assert_eq!(c.elitism, 1);
        assert!((c.crossover_prob - 0.5).abs() < 1e-12);
    }
}
