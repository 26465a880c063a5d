//! Speciation and fitness sharing (Section II-D of the paper).
//!
//! "Speciation works by grouping a few individuals within the population
//! with a particular niche. Within a species, the fitness of the younger
//! individuals is artificially increased so that they are not obliterated
//! when pitted against older, fitter individuals." Genomes are clustered by
//! compatibility distance against a per-species representative; fitness
//! sharing normalizes member fitness within each species before offspring
//! are allocated.
//!
//! # The scan
//!
//! The expensive part of speciation is comparing every genome against the
//! retained species representatives — `O(population × candidates)` exact
//! gene-stream merges. Each genome's **scan row** walks the candidates in
//! creation order and stops at the first one under the compatibility
//! threshold; a genome that matches none records the nearest candidate
//! instead (earliest index on ties, NaN ordered by [`f64::total_cmp`]).
//!
//! The population size picks the kernel that computes the rows:
//!
//! * at least `BLOCKED_SCAN_MIN_POP` (128) genomes: the **blocked scan**.
//!   The candidates are packed into columnar blocks ([`RepColumns`]) of
//!   geometric sizes 1, 2, 4, … [`REP_BLOCK`], so one pass over the genome
//!   scores a whole block with the same arithmetic, in the same order, as
//!   the scalar kernel. Genomes that match their first candidate never pay
//!   for a full block.
//! * below that: the scalar early-exit loop, one merge-join per candidate.
//!
//! Both kernels produce bit-identical rows, so the cutoff is purely a cost
//! choice. [`NeatConfig::speciate_exact`] forces the scalar loop at every
//! population size; it is the blocked scan's test oracle.
//!
//! Scan rows are computed as index-keyed jobs on the persistent
//! [`Executor`]; the actual cluster **assignment is a deterministic serial
//! fold** over the precomputed rows. Rows are pure functions of
//! `(genome, candidate representatives)`, so the clustering is
//! bit-identical at any worker count, including the serial path
//! ([`SpeciesSet::speciate`]). See `docs/speciation.md`.
//!
//! # Representative cap
//!
//! At megapopulation scale the species count itself can grow without
//! bound, so every genome is compared against at most
//! [`NeatConfig::species_representative_cap`] representatives (the first
//! `K` species in creation order), bounding the fold at `O(n·K)`. Once the
//! cap is reached no new species are founded; an unmatched genome joins
//! the *nearest* capped candidate instead (ties break toward the earliest
//! species via [`f64::total_cmp`]). Runs whose species count stays below
//! the cap are bit-identical to the uncapped algorithm; see the config
//! field's docs for the determinism trade.

use crate::arena::{GenomeView, PopulationArena, RepColumns, REP_BLOCK};
use crate::config::NeatConfig;
use crate::executor::Executor;
use crate::genome::Genome;
use std::fmt;

/// Identifier of a species.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpeciesId(pub u32);

impl fmt::Display for SpeciesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One species: a niche of structurally similar genomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Species {
    /// Identifier (stable across generations).
    pub id: SpeciesId,
    /// Representative genome used for distance tests.
    pub representative: Genome,
    /// Member indices into the current generation's genome vector.
    pub members: Vec<usize>,
    /// Generation at which the species appeared.
    pub created_at: usize,
    /// Last generation in which the species' best fitness improved.
    pub last_improved: usize,
    /// Best raw fitness ever seen in this species.
    pub best_fitness: f64,
    /// Fitness-shared (adjusted) fitness for the current generation.
    pub adjusted_fitness: f64,
}

impl Species {
    /// Mean raw fitness of current members.
    pub fn mean_fitness(&self, genomes: &[Genome]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .members
            .iter()
            .map(|&i| genomes[i].fitness().unwrap_or(0.0))
            .sum();
        sum / self.members.len() as f64
    }

    /// Best member index (by raw fitness) in the current generation.
    /// NaN fitness sorts above every finite value under [`f64::total_cmp`],
    /// so a poisoned evaluation degrades deterministically instead of
    /// aborting.
    pub fn champion(&self, genomes: &[Genome]) -> Option<usize> {
        self.members.iter().copied().max_by(|&a, &b| {
            let fa = genomes[a].fitness().unwrap_or(f64::NEG_INFINITY);
            let fb = genomes[b].fitness().unwrap_or(f64::NEG_INFINITY);
            fa.total_cmp(&fb)
        })
    }
}

/// Per-call counters of the speciation scan, reset at the start of every
/// [`SpeciesSet::speciate_on`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeciateScanStats {
    /// Candidate distances the scan consumed: per genome, the candidates
    /// in creation order up to and including its first match (all of them
    /// when none matches). The blocked and the scalar kernel report the
    /// same count.
    pub exact: u64,
    /// Always 0: the scan has no pruning tier. Kept so existing readers
    /// of the counters still compile.
    pub pruned: u64,
    /// Always 0: the scan takes no placement hints. Kept so existing
    /// readers of the counters still compile.
    pub hint_hits: u64,
}

/// Populations below this use the plain scalar early-exit scan instead of
/// the blocked columnar one. The blocked scan's per-call costs — packing
/// representatives into [`RepColumns`] and zeroing per-block lane arrays —
/// amortize over the population; under roughly a hundred genomes they
/// exceed the distances they save. On a 6-input population on a 2-vCPU
/// x86-64 VM the blocked scan measured 1.5× slower at pop 64, 1.1× slower
/// at 96, 1.3× faster at 128 and 2.5× faster at 10⁴. Both scans produce
/// bit-identical rows, so the cutoff is purely a cost choice.
const BLOCKED_SCAN_MIN_POP: usize = 128;

/// Per-genome result of the candidate scan: everything the serial
/// assignment fold needs, computed as a **pure function** of
/// `(genome, fixed candidate representatives)` so rows can be produced
/// serially or on any worker count with bit-identical content.
#[derive(Debug, Clone, Copy)]
struct ScanRow {
    /// First candidate (creation order) under the threshold; `u32::MAX`
    /// when no candidate matched.
    matched: u32,
    /// Distance to the matched candidate's representative.
    matched_d: f64,
    /// Argmin over the visited candidates (`u32::MAX` when none) — ties
    /// resolve to the earliest index, NaN via `total_cmp`.
    nearest_s: u32,
    /// Distance to the nearest candidate's representative.
    nearest_d: f64,
    /// Candidate distances this row consumed.
    exact: u32,
}

impl Default for ScanRow {
    fn default() -> Self {
        ScanRow {
            matched: u32::MAX,
            matched_d: f64::INFINITY,
            nearest_s: u32::MAX,
            nearest_d: f64::INFINITY,
            exact: 0,
        }
    }
}

impl ScanRow {
    /// Folds candidate `s` at distance `d` into the row. Candidates must
    /// arrive in ascending index order; returns true when `s` is the
    /// first match, which ends the scan.
    fn visit(&mut self, s: usize, d: f64, threshold: f64) -> bool {
        self.exact += 1;
        if d < threshold {
            self.matched = s as u32;
            self.matched_d = d;
            return true;
        }
        // Strict `<` keeps the earliest candidate on ties; total_cmp keeps
        // NaN distances from poisoning the argmin.
        if self.nearest_s == u32::MAX || d.total_cmp(&self.nearest_d).is_lt() {
            self.nearest_s = s as u32;
            self.nearest_d = d;
        }
        false
    }
}

/// Shared read-only context of one `speciate_on` call's row computation.
struct ScanCtx<'a> {
    genomes: &'a [Genome],
    config: &'a NeatConfig,
    candidates: usize,
    /// Use the scalar early-exit loop instead of the blocked scan: set in
    /// exact mode ([`NeatConfig::speciate_exact`]) and for populations
    /// under [`BLOCKED_SCAN_MIN_POP`].
    scalar: bool,
    rep_arena: &'a PopulationArena,
    blocks: &'a [RepColumns],
    block_starts: &'a [usize],
}

impl ScanCtx<'_> {
    /// Scans genome `g_idx` against the fixed candidate representatives.
    /// Pure in `(genome, candidate set)`: the same row is produced on the
    /// serial path and on every worker count, by either kernel.
    fn scan_row(&self, g_idx: usize) -> ScanRow {
        let mut row = ScanRow::default();
        let view = GenomeView::of(&self.genomes[g_idx]);
        let threshold = self.config.compatibility_threshold;
        if self.scalar {
            for s in 0..self.candidates {
                let d = view.distance(self.rep_arena.view(s), self.config);
                if row.visit(s, d, threshold) {
                    break;
                }
            }
            return row;
        }
        let mut out = [0.0f64; REP_BLOCK];
        for (block, &start) in self.blocks.iter().zip(self.block_starts) {
            block.scan(view, self.config, &mut out);
            for (lane, &d) in out.iter().take(block.lanes()).enumerate() {
                if row.visit(start + lane, d, threshold) {
                    return row;
                }
            }
        }
        row
    }
}

/// The set of all living species, with the clustering and stagnation logic.
#[derive(Debug, Clone, Default)]
pub struct SpeciesSet {
    species: Vec<Species>,
    next_id: u32,
    /// Per-genome scan rows reused across generations.
    rows: Vec<ScanRow>,
    /// Flat arena the candidate representatives are packed into each
    /// generation, so distance scans walk contiguous gene memory instead
    /// of one heap allocation per species (buffers reused across calls).
    rep_arena: PopulationArena,
    /// Columnar representative blocks (geometric sizes 1, 2, 4, …,
    /// [`REP_BLOCK`]) for the batched one-genome-versus-K distance scan.
    blocks: Vec<RepColumns>,
    /// First candidate index of each block.
    block_starts: Vec<usize>,
    /// Every genome's distance to its assigned species' *old*
    /// representative, captured during the fold so representative
    /// re-election needs no further distance computations.
    assigned_dist: Vec<f64>,
    /// Counters of the most recent `speciate*` call.
    scan_stats: SpeciateScanStats,
}

impl SpeciesSet {
    /// Creates an empty species set.
    pub fn new() -> Self {
        SpeciesSet::default()
    }

    /// Reassembles a species set from checkpointed parts: the living
    /// species (creation order) and the id counter. The inverse of
    /// cloning out [`SpeciesSet::iter`] plus [`SpeciesSet::next_species_id`].
    pub fn from_parts(species: Vec<Species>, next_id: u32) -> Self {
        SpeciesSet {
            species,
            next_id,
            ..SpeciesSet::default()
        }
    }

    /// Counters of the most recent `speciate*` call (reset per call).
    pub fn scan_stats(&self) -> SpeciateScanStats {
        self.scan_stats
    }

    /// The id the next founded species will receive — part of the
    /// checkpoint state (ids must not be reused after a resume).
    pub fn next_species_id(&self) -> u32 {
        self.next_id
    }

    /// Living species, in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &Species> {
        self.species.iter()
    }

    /// Number of living species.
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// True when no species exist (before the first [`SpeciesSet::speciate`]).
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Clusters `genomes` into species by compatibility distance, serially.
    /// Equivalent to [`SpeciesSet::speciate_on`] with no pool.
    pub fn speciate(&mut self, genomes: &[Genome], config: &NeatConfig, generation: usize) {
        self.speciate_on(genomes, config, generation, None);
    }

    /// Clusters `genomes` into species by compatibility distance, with the
    /// per-genome candidate scans computed on `pool` when given (see the
    /// module docs for the determinism argument).
    ///
    /// Each genome joins the first existing species whose representative is
    /// within [`NeatConfig::compatibility_threshold`]; otherwise it founds a
    /// new species. Afterwards each non-empty species re-elects the member
    /// closest to the old representative as its new representative
    /// (`neat-python` behaviour); empty species are dropped.
    pub fn speciate_on(
        &mut self,
        genomes: &[Genome],
        config: &NeatConfig,
        generation: usize,
        pool: Option<&Executor>,
    ) {
        for s in &mut self.species {
            s.members.clear();
        }
        let existing = self.species.len();
        let cap = config.species_representative_cap.max(1);
        // Only the first `cap` species (creation order) are assignment
        // candidates; the scan never examines more than that.
        let candidates = existing.min(cap);
        let scalar = config.speciate_exact || genomes.len() < BLOCKED_SCAN_MIN_POP;
        let threshold = config.compatibility_threshold;
        self.scan_stats = SpeciateScanStats::default();

        // Pack the candidate representatives into the flat arena so every
        // scan streams contiguous gene memory.
        self.rep_arena.pack(
            self.species
                .iter()
                .take(candidates)
                .map(|s| &s.representative),
        );

        // Columnar blocks over the candidates, geometric sizes
        // 1, 2, 4, …, REP_BLOCK: early blocks stay cheap for genomes that
        // match immediately, late blocks amortize the merge-join across a
        // full REP_BLOCK lanes. Built once per call, shared by all rows.
        self.block_starts.clear();
        if !scalar {
            let mut start = 0usize;
            let mut size = 1usize;
            let mut b = 0usize;
            while start < candidates {
                let lanes = size.min(REP_BLOCK).min(candidates - start);
                if self.blocks.len() == b {
                    self.blocks.push(RepColumns::new());
                }
                let rep_arena = &self.rep_arena;
                self.blocks[b].build((start..start + lanes).map(|s| rep_arena.view(s)));
                self.block_starts.push(start);
                start += lanes;
                size = (size * 2).min(REP_BLOCK);
                b += 1;
            }
            self.blocks.truncate(b);
        } else {
            self.blocks.clear();
        }

        // Phase 1: one scan row per genome — a pure function of the genome
        // and the fixed candidate set, so serial and parallel production
        // are bit-identical (index-keyed jobs on the pool; see module
        // docs).
        let ctx = ScanCtx {
            genomes,
            config,
            candidates,
            scalar,
            rep_arena: &self.rep_arena,
            blocks: &self.blocks,
            block_starts: &self.block_starts,
        };
        self.rows.clear();
        self.rows.resize(genomes.len(), ScanRow::default());
        match pool {
            Some(pool) if candidates > 0 => {
                pool.for_each_chunk(&mut self.rows, 1, |g, row| {
                    row[0] = ctx.scan_row(g);
                });
            }
            _ => {
                for (g, row) in self.rows.iter_mut().enumerate() {
                    *row = ctx.scan_row(g);
                }
            }
        }

        // Phase 2 (serial fold): deterministic assignment in genome order —
        // first candidate species (in creation order) under the threshold
        // wins. At most `cap` candidates are ever scanned; past the cap an
        // unmatched genome joins the nearest candidate instead of founding.
        // Species founded *during* the fold cannot appear in the
        // precomputed rows; their indices all exceed the row candidates',
        // so continuing the row over them serially keeps the
        // earliest-index tie-break. Every member's distance to its
        // assigned species' old representative is captured so phase 3
        // below re-elects representatives without recomputing anything.
        self.assigned_dist.clear();
        self.assigned_dist.resize(genomes.len(), 0.0);
        for (idx, genome) in genomes.iter().enumerate() {
            let mut row = self.rows[idx];
            if row.matched == u32::MAX {
                for s in candidates..self.species.len().min(cap) {
                    let d = genome.distance(&self.species[s].representative, config);
                    if row.visit(s, d, threshold) {
                        break;
                    }
                }
            }
            self.scan_stats.exact += u64::from(row.exact);
            if row.matched == u32::MAX && self.species.len() < cap {
                let id = SpeciesId(self.next_id);
                self.next_id += 1;
                // What re-election would measure for the founder: exactly
                // +0.0 with finite genes and coefficients.
                self.assigned_dist[idx] = genome.distance(genome, config);
                self.species.push(Species {
                    id,
                    representative: genome.clone(),
                    members: vec![idx],
                    created_at: generation,
                    last_improved: generation,
                    best_fitness: f64::NEG_INFINITY,
                    adjusted_fitness: 0.0,
                });
                continue;
            }
            // Past the cap an unmatched genome joins its nearest candidate
            // (cap >= 1, so at least one candidate was scanned).
            let (s, d) = if row.matched != u32::MAX {
                (row.matched, row.matched_d)
            } else {
                (row.nearest_s, row.nearest_d)
            };
            self.species[s as usize].members.push(idx);
            self.assigned_dist[idx] = d;
        }

        // Phase 3: re-elect representatives from the captured
        // member→old-representative distances. Ties and NaN break
        // deterministically via total_cmp (earliest member wins a tie,
        // exactly as the recomputing implementation this replaced).
        let assigned = &self.assigned_dist;
        for sp in &mut self.species {
            if sp.members.is_empty() {
                continue; // dropped below
            }
            let closest = sp
                .members
                .iter()
                .copied()
                .min_by(|&a, &b| assigned[a].total_cmp(&assigned[b]))
                .expect("non-empty species");
            // clone_from reuses the old representative's gene buffers.
            sp.representative.clone_from(&genomes[closest]);
        }
        self.species.retain(|s| !s.members.is_empty());
    }

    /// Applies fitness sharing: every species' `adjusted_fitness` becomes
    /// its members' mean fitness normalized by the population's fitness
    /// range — so young, small species stay competitive.
    ///
    /// Returns `(min, max)` raw population fitness.
    pub fn share_fitness(&mut self, genomes: &[Genome]) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for g in genomes {
            let f = g.fitness().unwrap_or(0.0);
            lo = lo.min(f);
            hi = hi.max(f);
        }
        let range = (hi - lo).max(1e-9);
        for s in &mut self.species {
            let mean = s.mean_fitness(genomes);
            s.adjusted_fitness = (mean - lo) / range;
        }
        (lo, hi)
    }

    /// Updates stagnation bookkeeping and removes species that have not
    /// improved for [`NeatConfig::max_stagnation`] generations, always
    /// keeping the best [`NeatConfig::species_elitism`] species alive.
    ///
    /// Returns the ids of removed species.
    pub fn remove_stagnant(
        &mut self,
        genomes: &[Genome],
        config: &NeatConfig,
        generation: usize,
    ) -> Vec<SpeciesId> {
        for s in &mut self.species {
            let best_now = s
                .members
                .iter()
                .map(|&i| genomes[i].fitness().unwrap_or(f64::NEG_INFINITY))
                .fold(f64::NEG_INFINITY, f64::max);
            if best_now > s.best_fitness {
                s.best_fitness = best_now;
                s.last_improved = generation;
            }
        }
        // Rank species by best fitness; protect the top `species_elitism`.
        let mut ranked: Vec<(f64, SpeciesId)> = self
            .species
            .iter()
            .map(|s| (s.best_fitness, s.id))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let protected: Vec<SpeciesId> = ranked
            .iter()
            .take(config.species_elitism)
            .map(|&(_, id)| id)
            .collect();
        let mut removed = Vec::new();
        self.species.retain(|s| {
            let stagnant = generation.saturating_sub(s.last_improved) > config.max_stagnation;
            if stagnant && !protected.contains(&s.id) {
                removed.push(s.id);
                false
            } else {
                true
            }
        });
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::innovation::InnovationTracker;
    use crate::rng::XorWow;
    use crate::trace::OpCounters;

    fn cfg() -> NeatConfig {
        NeatConfig::builder(3, 1).build().unwrap()
    }

    fn diverged_population(n: usize) -> (Vec<Genome>, NeatConfig) {
        let c = cfg();
        let mut r = XorWow::seed_from_u64_value(77);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut genomes = Vec::new();
        for k in 0..n {
            let mut g = Genome::initial(k as u64, &c, &mut r);
            // Diverge half the population structurally.
            if k % 2 == 1 {
                let mut ops = OpCounters::new();
                for _ in 0..6 {
                    g.mutate_add_node(&mut innov, &mut r, &mut ops);
                    g.mutate_attributes(&c, &mut r, &mut ops);
                }
            }
            g.set_fitness(k as f64);
            genomes.push(g);
        }
        (genomes, c)
    }

    #[test]
    fn identical_genomes_form_one_species() {
        let c = cfg();
        let mut r = XorWow::seed_from_u64_value(1);
        let genomes: Vec<Genome> = (0..10)
            .map(|k| {
                let mut g = Genome::initial(k, &c, &mut r);
                g.set_fitness(1.0);
                g
            })
            .collect();
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().members.len(), 10);
    }

    #[test]
    fn diverged_genomes_split_into_species() {
        let (genomes, c) = diverged_population(10);
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        assert!(set.len() >= 2, "structural divergence should split species");
        let total: usize = set.iter().map(|s| s.members.len()).sum();
        assert_eq!(total, 10, "every genome belongs to exactly one species");
    }

    #[test]
    fn fitness_sharing_normalizes_to_unit_range() {
        let (genomes, c) = diverged_population(10);
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        let (lo, hi) = set.share_fitness(&genomes);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 9.0);
        for s in set.iter() {
            assert!((0.0..=1.0).contains(&s.adjusted_fitness));
        }
    }

    #[test]
    fn stagnant_species_removed_but_elite_protected() {
        let (mut genomes, mut c) = diverged_population(10);
        c.max_stagnation = 3;
        c.species_elitism = 1;
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        let initial = set.len();
        assert!(initial >= 2);
        // Freeze fitness; advance generations until stagnation triggers.
        for g in &mut genomes {
            g.set_fitness(1.0);
        }
        let mut removed_total = 0;
        for generation in 0..10 {
            removed_total += set.remove_stagnant(&genomes, &c, generation).len();
        }
        assert!(removed_total >= 1, "stagnant species should be removed");
        assert!(!set.is_empty(), "species elitism keeps at least one alive");
    }

    #[test]
    fn parallel_speciation_matches_serial_exactly() {
        let (genomes, c) = diverged_population(24);
        let mut serial = SpeciesSet::new();
        serial.speciate(&genomes, &c, 0);
        for workers in [1usize, 4, 8] {
            let pool = Executor::new(workers);
            let mut parallel = SpeciesSet::new();
            parallel.speciate_on(&genomes, &c, 0, Some(&pool));
            assert_eq!(serial.len(), parallel.len(), "workers={workers}");
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.members, b.members);
                assert_eq!(a.representative, b.representative);
            }
        }
    }

    #[test]
    fn respeciation_reuses_the_distance_matrix_path() {
        // Second call exercises `existing > 0` (matrix rows) on both paths.
        let (genomes, c) = diverged_population(16);
        let pool = Executor::new(4);
        let mut serial = SpeciesSet::new();
        let mut parallel = SpeciesSet::new();
        for generation in 0..3 {
            serial.speciate(&genomes, &c, generation);
            parallel.speciate_on(&genomes, &c, generation, Some(&pool));
        }
        let a: Vec<_> = serial.iter().map(|s| (s.id, s.members.clone())).collect();
        let b: Vec<_> = parallel.iter().map(|s| (s.id, s.members.clone())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn representative_cap_bounds_species_and_covers_population() {
        let (genomes, mut c) = diverged_population(24);
        c.compatibility_threshold = 0.10; // force many would-be species
        c.species_representative_cap = 3;
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        assert!(set.len() <= 3, "cap must bound the species count");
        let total: usize = set.iter().map(|s| s.members.len()).sum();
        assert_eq!(total, 24, "overflow genomes join the nearest candidate");
    }

    #[test]
    fn capped_speciation_is_bit_identical_below_the_cap() {
        // The default cap (64) is far above the species this population
        // forms, so capped and effectively-uncapped runs must agree.
        let (genomes, c) = diverged_population(16);
        let mut huge = c.clone();
        huge.species_representative_cap = usize::MAX;
        let mut capped = SpeciesSet::new();
        let mut uncapped = SpeciesSet::new();
        for generation in 0..3 {
            capped.speciate(&genomes, &c, generation);
            uncapped.speciate(&genomes, &huge, generation);
        }
        assert!(capped.len() < c.species_representative_cap);
        let a: Vec<_> = capped.iter().map(|s| (s.id, s.members.clone())).collect();
        let b: Vec<_> = uncapped.iter().map(|s| (s.id, s.members.clone())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn capped_parallel_speciation_matches_capped_serial() {
        let (genomes, mut c) = diverged_population(24);
        c.compatibility_threshold = 0.10;
        c.species_representative_cap = 2;
        let mut serial = SpeciesSet::new();
        serial.speciate(&genomes, &c, 0);
        serial.speciate(&genomes, &c, 1); // matrix path has columns now
        for workers in [1usize, 4, 8] {
            let pool = Executor::new(workers);
            let mut parallel = SpeciesSet::new();
            parallel.speciate_on(&genomes, &c, 0, Some(&pool));
            parallel.speciate_on(&genomes, &c, 1, Some(&pool));
            assert_eq!(serial.len(), parallel.len(), "workers={workers}");
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.members, b.members);
                assert_eq!(a.representative, b.representative);
            }
        }
    }

    #[test]
    fn nan_fitness_degrades_deterministically() {
        let (mut genomes, c) = diverged_population(8);
        genomes[3].set_fitness(f64::NAN);
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        // total_cmp ordering: no panic, and the champion is well defined
        // (NaN sorts above every finite fitness).
        for s in set.iter() {
            let champ = s.champion(&genomes).expect("non-empty species");
            if s.members.contains(&3) {
                assert_eq!(champ, 3, "NaN sorts greatest under total_cmp");
            }
        }
        // Stagnation ranking must not panic either.
        set.remove_stagnant(&genomes, &c, 1);
    }

    #[test]
    fn champion_is_best_member() {
        let (genomes, c) = diverged_population(10);
        let mut set = SpeciesSet::new();
        set.speciate(&genomes, &c, 0);
        for s in set.iter() {
            let champ = s.champion(&genomes).unwrap();
            for &m in &s.members {
                assert!(genomes[champ].fitness() >= genomes[m].fitness());
            }
        }
    }
}
