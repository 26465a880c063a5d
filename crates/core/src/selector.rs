//! The Gene Selector: fitness sharing, thresholding and parent selection
//! (Section IV-C4), "handled by a software thread on the CPU".
//!
//! Three steps, per the paper: (1) fitness values "are read and adjusted to
//! implement fitness sharing", (2) "the threshold is calculated using the
//! adjusted fitness values", (3) "the parents for the next generation are
//! chosen and the list of parents for the children is forwarded to the
//! gene splitting logic". The selector also performs the **greedy PE
//! allocation** "such that maximum number of children can be created from
//! the parents currently in the SRAM" — the genome-level-reuse (GLR)
//! optimization Fig 11(c) quantifies.

use genesys_neat::reproduction::plan_offspring;
use genesys_neat::{ChildKind, Genome, NeatConfig, SpeciesSet, XorWow};

/// One planned mating: which parents produce which child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatingPlan {
    /// Child index in the next generation.
    pub child_index: usize,
    /// Index of the fitter parent in the current generation.
    pub fit_parent: usize,
    /// Index of the other parent (== `fit_parent` for asexual children).
    pub other_parent: usize,
    /// Elite copies bypass the PEs.
    pub is_elite: bool,
}

impl MatingPlan {
    /// Canonical parent-pair key (order-independent), used to group
    /// children that can share multicast reads.
    pub fn pair_key(&self) -> (usize, usize) {
        if self.fit_parent <= self.other_parent {
            (self.fit_parent, self.other_parent)
        } else {
            (self.other_parent, self.fit_parent)
        }
    }
}

/// Runs the three selector steps and returns the child list forwarded to
/// Gene Split.
///
/// The selection logic itself is the **shared planning pass** of the
/// software pipeline — [`plan_offspring`] —
/// so the hardware loop and `genesys-neat` see exactly the same selection
/// pressure (speciation, fitness sharing, survival threshold, elitism,
/// rounding top-up): each planned offspring slot maps 1:1 onto a PE mating
/// plan, aligning the software path with the EvE PE round structure.
pub fn select_parents(
    genomes: &[Genome],
    species: &mut SpeciesSet,
    config: &NeatConfig,
    generation: usize,
    rng: &mut XorWow,
) -> Vec<MatingPlan> {
    species.speciate(genomes, config, generation);
    species.remove_stagnant(genomes, config, generation);
    species.share_fitness(genomes);

    // Keys/seeds are assigned by the hardware PEs themselves; the planning
    // pass's counters are discarded here.
    let mut next_key = 0u64;
    plan_offspring(genomes, species, config, rng, generation, &mut next_key, 0)
        .into_iter()
        .map(|p| MatingPlan {
            child_index: p.child_index,
            fit_parent: p.parent1,
            other_parent: p.parent2,
            is_elite: p.kind == ChildKind::Elite,
        })
        .collect()
}

/// PE assignment policy — an ablation axis (`genesys_bench`'s `ablations`
/// bench compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// The paper's policy: group children sharing parents into the same
    /// round so a multicast tree can service them with single reads.
    #[default]
    Greedy,
    /// Naive round-robin in child order (no reuse grouping).
    RoundRobin,
}

/// PE work schedule: `rounds[r]` holds the children processed concurrently
/// in round `r` ("we allocate only one PE per child genome").
#[derive(Debug, Clone, Default)]
pub struct PeSchedule {
    /// Per-round mating plans; each round's length is ≤ the PE count.
    pub rounds: Vec<Vec<MatingPlan>>,
}

impl PeSchedule {
    /// Number of non-elite children scheduled.
    pub fn num_children(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Schedules non-elite children onto `num_pes` PEs.
pub fn allocate_pes(plans: &[MatingPlan], num_pes: usize, policy: AllocPolicy) -> PeSchedule {
    assert!(num_pes > 0, "at least one PE required");
    let mut work: Vec<MatingPlan> = plans.iter().filter(|p| !p.is_elite).copied().collect();
    if policy == AllocPolicy::Greedy {
        // Children sharing a parent pair become adjacent, so each round
        // touches as few distinct parents as possible.
        work.sort_by_key(|p| p.pair_key());
    }
    let rounds = work.chunks(num_pes).map(<[MatingPlan]>::to_vec).collect();
    PeSchedule { rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::NeatConfig;

    fn evaluated_population(n: usize) -> (Vec<Genome>, NeatConfig) {
        let c = NeatConfig::builder(3, 1).pop_size(n).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(8);
        let mut genomes: Vec<Genome> = (0..n as u64)
            .map(|k| Genome::initial(k, &c, &mut rng))
            .collect();
        for (i, g) in genomes.iter_mut().enumerate() {
            g.set_fitness(i as f64);
        }
        (genomes, c)
    }

    #[test]
    fn selector_produces_pop_size_plans() {
        let (genomes, c) = evaluated_population(30);
        let mut species = SpeciesSet::new();
        let mut rng = XorWow::seed_from_u64_value(1);
        let plans = select_parents(&genomes, &mut species, &c, 0, &mut rng);
        assert_eq!(plans.len(), 30);
        assert!(plans.iter().any(|p| p.is_elite));
    }

    #[test]
    fn parents_meet_the_survival_threshold() {
        let (genomes, c) = evaluated_population(50);
        let mut species = SpeciesSet::new();
        let mut rng = XorWow::seed_from_u64_value(2);
        let plans = select_parents(&genomes, &mut species, &c, 0, &mut rng);
        // One species of 50, survival 0.2: parents come from the top 10
        // (fitness >= 40).
        for p in plans.iter().filter(|p| !p.is_elite) {
            assert!(genomes[p.fit_parent].fitness().unwrap() >= 40.0);
            assert!(genomes[p.other_parent].fitness().unwrap() >= 40.0);
        }
    }

    #[test]
    fn fit_parent_is_the_fitter_one() {
        let (genomes, c) = evaluated_population(40);
        let mut species = SpeciesSet::new();
        let mut rng = XorWow::seed_from_u64_value(3);
        let plans = select_parents(&genomes, &mut species, &c, 0, &mut rng);
        for p in plans {
            assert!(genomes[p.fit_parent].fitness() >= genomes[p.other_parent].fitness());
        }
    }

    #[test]
    fn greedy_allocation_groups_shared_parents() {
        let plans: Vec<MatingPlan> = (0..8)
            .map(|i| MatingPlan {
                child_index: i,
                fit_parent: i % 2, // alternating pairs (0,?) (1,?)
                other_parent: 5,
                is_elite: false,
            })
            .collect();
        let sched = allocate_pes(&plans, 4, AllocPolicy::Greedy);
        assert_eq!(sched.rounds.len(), 2);
        // Each greedy round touches exactly 2 distinct parents.
        for round in &sched.rounds {
            let mut parents: Vec<usize> = round
                .iter()
                .flat_map(|p| [p.fit_parent, p.other_parent])
                .collect();
            parents.sort_unstable();
            parents.dedup();
            assert_eq!(parents.len(), 2, "{round:?}");
        }
        // Round-robin rounds touch 3 (both pair-keys interleaved).
        let rr = allocate_pes(&plans, 4, AllocPolicy::RoundRobin);
        let mut parents: Vec<usize> = rr.rounds[0]
            .iter()
            .flat_map(|p| [p.fit_parent, p.other_parent])
            .collect();
        parents.sort_unstable();
        parents.dedup();
        assert_eq!(parents.len(), 3);
    }

    #[test]
    fn elites_are_not_scheduled_on_pes() {
        let plans = vec![
            MatingPlan {
                child_index: 0,
                fit_parent: 0,
                other_parent: 0,
                is_elite: true,
            },
            MatingPlan {
                child_index: 1,
                fit_parent: 0,
                other_parent: 1,
                is_elite: false,
            },
        ];
        let sched = allocate_pes(&plans, 8, AllocPolicy::Greedy);
        assert_eq!(sched.num_children(), 1);
    }

    #[test]
    fn rounds_respect_pe_count() {
        let plans: Vec<MatingPlan> = (0..100)
            .map(|i| MatingPlan {
                child_index: i,
                fit_parent: 0,
                other_parent: 1,
                is_elite: false,
            })
            .collect();
        let sched = allocate_pes(&plans, 16, AllocPolicy::Greedy);
        assert_eq!(sched.rounds.len(), 7);
        assert!(sched.rounds.iter().all(|r| r.len() <= 16));
    }

    #[test]
    fn pair_key_is_order_independent() {
        let a = MatingPlan {
            child_index: 0,
            fit_parent: 9,
            other_parent: 3,
            is_elite: false,
        };
        assert_eq!(a.pair_key(), (3, 9));
    }
}
