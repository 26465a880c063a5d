//! Per-generation statistics — the raw material of Figs 4, 5, 10(d) and
//! 11(a) of the paper.

use crate::gene::{NodeGene, NodeId};
use crate::genome::Genome;
use crate::trace::{GenerationTrace, OpCounters};
use std::fmt;

/// Population-health diagnostics streamed on every [`GenerationStats`] (and
/// therefore on every `OwnedGenerationEvent` a session observer or the
/// serve layer's `observe` verb sees) — the live operational signal the
/// continual-learning scenario suite monitors.
///
/// All four fields are pure functions of the evaluated generation's
/// genomes and species assignments, so they are bit-identical at any
/// worker count and across checkpoint/resume, and they participate in
/// [`GenerationStats`] equality (unlike the wall-clock phase timings).
///
/// Archipelago runs merge per-island values: `unique_genomes` sums
/// (per-island uniqueness; a genome shared by two islands counts on
/// both), `largest_species` takes the maximum, and the two entropies are
/// population-weighted means of the per-island values (a *within-island*
/// signal by construction — see `docs/scenarios.md`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PopulationDiagnostics {
    /// Compressed-size ratio of the population's genome-buffer words
    /// under a greedy word-level LZ pass (see
    /// [`PopulationDiagnostics::collect`]): low values mean the gene
    /// streams are mutually redundant (clones, shared structure), values
    /// near the literal ceiling mean high-order diversity that plain
    /// gene counts cannot see. `0.0` for an empty population.
    pub high_order_entropy: f64,
    /// Number of distinct genomes, where identity is a hash over the
    /// sorted gene keys *and* every attribute bit (bias/response/weight
    /// f64 bits, activation/aggregation/type codes, enabled flags) —
    /// elites and unmutated crossover copies collapse, any attribute
    /// perturbation separates.
    pub unique_genomes: usize,
    /// Shannon entropy (nats) of the species size distribution: `0.0`
    /// when one species holds everyone, `ln(k)` when `k` species split
    /// the population evenly.
    pub species_entropy: f64,
    /// Member count of the largest species (0 before speciation).
    pub largest_species: usize,
}

/// Hash-table size for the LZ match probe (one `usize` slot per bucket).
const LZ_TABLE_BITS: u32 = 16;

/// Word budget for the LZ entropy probe: the scan covers at most this
/// many words of the population stream (a deterministic prefix —
/// identical runs scan identical words), so the estimate stays O(cap)
/// when megapopulation gene streams run to millions of words. The cap
/// spans >1000 genomes at realistic sizes — plenty for a redundancy
/// estimate, and far past the window a single-probe LZ match reaches
/// anyway; `docs/scenarios.md` pins it as part of the diagnostics
/// budget. The unique-genome count is **not** capped: every genome is
/// hashed.
const LZ_SCAN_CAP: usize = 1 << 16;

/// FNV-1a offset basis / prime, the same constants the snapshot checksum
/// uses.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-style fold of one 8-byte word in a single xor-multiply (instead
/// of the canonical byte-at-a-time loop): the hash only feeds the
/// unique-genome identity count, where any well-mixing deterministic
/// function serves, and at pop 10⁴ the stream runs to ~10⁶ words — the
/// 8× cheaper fold keeps the diagnostics inside their <5 %-of-eval
/// budget (`docs/scenarios.md`).
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// One node gene as diagnostic words — the per-gene layout of the 8-byte
/// hardware encoding widened to carry the exact attribute bits (key/meta
/// word, then the attribute payload). Shared by the identity hash and
/// the LZ entropy probe so the two streams can never drift apart.
fn node_words(n: &NodeGene) -> [u64; 3] {
    [
        ((n.id.value() as u64) << 32)
            | ((n.node_type.to_code() as u64) << 16)
            | ((n.activation.to_code() as u64) << 8)
            | n.aggregation.to_code() as u64,
        n.bias.to_bits(),
        n.response.to_bits(),
    ]
}

/// One connection gene as diagnostic words (see [`node_words`]).
fn conn_words(c: &crate::gene::ConnGene) -> [u64; 3] {
    [
        ((c.key.src.value() as u64) << 32) | c.key.dst.value() as u64,
        c.weight.to_bits(),
        c.enabled as u64,
    ]
}

/// Serializes one genome's gene stream into diagnostic words. Genes are
/// already sorted by key inside a genome, so identical genomes produce
/// identical streams.
fn push_genome_words(genome: &Genome, words: &mut Vec<u64>) {
    for n in genome.node_genes() {
        words.extend_from_slice(&node_words(n));
    }
    for c in genome.conn_genes() {
        words.extend_from_slice(&conn_words(c));
    }
}

/// Fold state after the default input genes of ids `0..num_inputs`: the
/// constant prefix every genome's node cluster opens with
/// (`Genome::validate` enforces it).
fn input_prefix_hash(num_inputs: usize) -> u64 {
    (0..num_inputs as u32).fold(FNV_OFFSET, |hash, i| {
        node_words(&NodeGene::input(NodeId(i)))
            .into_iter()
            .fold(hash, fnv1a_word)
    })
}

/// Identity hash of one genome over exactly the [`push_genome_words`]
/// stream, folded in place — the hot path of the unique-genome count
/// never materializes the words. The fold starts from `prefix`, the
/// [`input_prefix_hash`] of the genome's input count, and reads only the
/// genes past the input prefix.
fn genome_identity_hash(genome: &Genome, prefix: u64) -> u64 {
    let mut hash = prefix;
    for n in &genome.node_genes()[genome.num_inputs()..] {
        for w in node_words(n) {
            hash = fnv1a_word(hash, w);
        }
    }
    for c in genome.conn_genes() {
        for w in conn_words(c) {
            hash = fnv1a_word(hash, w);
        }
    }
    hash
}

/// Greedy single-probe LZ estimate over a word stream: each position
/// either extends a back-reference run (found through a 2^16-bucket hash
/// of the word) or emits a literal. Literals are costed at 9 bytes
/// (flag + word), back-reference tokens at 5 (flag + offset + length) —
/// the exact token model is pinned in `docs/scenarios.md`. Returns the
/// estimated compressed byte count.
fn lz_compressed_bytes(words: &[u64]) -> usize {
    let mut table = vec![usize::MAX; 1 << LZ_TABLE_BITS];
    let mut compressed = 0usize;
    let mut i = 0;
    while i < words.len() {
        let h = (words[i]
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_right(32)
            & ((1 << LZ_TABLE_BITS) - 1)) as usize;
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX && words[candidate] == words[i] {
            let mut len = 1;
            while i + len < words.len()
                && candidate + len < i
                && words[candidate + len] == words[i + len]
            {
                len += 1;
            }
            compressed += 5;
            i += len;
        } else {
            compressed += 9;
            i += 1;
        }
    }
    compressed
}

impl PopulationDiagnostics {
    /// Computes the genome-derived diagnostics (`high_order_entropy`,
    /// `unique_genomes`) over one evaluated population. Species fields
    /// start at zero; backends that know the species assignments fill
    /// them with [`PopulationDiagnostics::set_species_sizes`].
    pub fn collect<'a>(genomes: impl IntoIterator<Item = &'a Genome>) -> PopulationDiagnostics {
        let genomes = genomes.into_iter();
        // Every genome is hashed for the identity count (folded in
        // place, no buffer), but only the first `LZ_SCAN_CAP` words are
        // materialized for the entropy probe — the collector never
        // builds the multi-megabyte population stream a pop-10⁴
        // generation would otherwise cost.
        let mut stream: Vec<u64> = Vec::new();
        let mut hashes = Vec::with_capacity(genomes.size_hint().0);
        // The input prefix is folded once per input count, in practice
        // once per call.
        let mut prefix = (usize::MAX, FNV_OFFSET);
        for genome in genomes {
            if prefix.0 != genome.num_inputs() {
                prefix = (genome.num_inputs(), input_prefix_hash(genome.num_inputs()));
            }
            hashes.push(genome_identity_hash(genome, prefix.1));
            if stream.len() < LZ_SCAN_CAP {
                push_genome_words(genome, &mut stream);
                stream.truncate(LZ_SCAN_CAP);
            }
        }
        let high_order_entropy = if stream.is_empty() {
            0.0
        } else {
            lz_compressed_bytes(&stream) as f64 / (stream.len() * 8) as f64
        };
        hashes.sort_unstable();
        hashes.dedup();
        PopulationDiagnostics {
            high_order_entropy,
            unique_genomes: hashes.len(),
            species_entropy: 0.0,
            largest_species: 0,
        }
    }

    /// Fills the species-diversity fields from the member counts of the
    /// evaluated generation's species (empty iterators leave both zero).
    pub fn set_species_sizes(&mut self, sizes: impl Iterator<Item = usize>) {
        let sizes: Vec<usize> = sizes.filter(|&s| s > 0).collect();
        let total: usize = sizes.iter().sum();
        self.largest_species = sizes.iter().copied().max().unwrap_or(0);
        self.species_entropy = if total == 0 {
            0.0
        } else {
            -sizes
                .iter()
                .map(|&s| {
                    let p = s as f64 / total as f64;
                    p * p.ln()
                })
                .sum::<f64>()
        };
    }
}

/// Summary of one generation: fitness, structure and operation counts.
///
/// Equality ignores the wall-clock phase timings (`speciate_ns`,
/// `reproduce_ns`, `eval_ns`): two bit-identical runs produce equal
/// stats even though their clocks differ.
#[derive(Debug, Clone)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best raw fitness in the generation.
    pub max_fitness: f64,
    /// Mean raw fitness.
    pub mean_fitness: f64,
    /// Worst raw fitness.
    pub min_fitness: f64,
    /// Number of living species.
    pub num_species: usize,
    /// Total node genes across the population (Fig 11(a)).
    pub total_nodes: usize,
    /// Total connection genes across the population (Fig 11(a)).
    pub total_conns: usize,
    /// Node + connection genes across the population (Fig 4(b)).
    pub total_genes: usize,
    /// Genes of the largest genome.
    pub max_genome_genes: usize,
    /// Population memory footprint in the 8-byte hardware gene encoding
    /// (Fig 5(b); the paper reports <1 MB per generation).
    pub memory_bytes: usize,
    /// Reproduction operation tallies for the step that produced the *next*
    /// generation (Fig 5(a)).
    pub ops: OpCounters,
    /// Times the most-reused parent was used (Fig 4(c) GLR metric).
    pub fittest_parent_reuse: usize,
    /// Total MAC operations for one inference pass over the population.
    pub inference_macs: u64,
    /// Environment steps consumed evaluating this generation, summed
    /// order-insensitively across the population (0 for synthetic fitness
    /// functions that report no steps). Filled in by the session backends.
    pub env_steps: u64,
    /// Population-health diagnostics (entropy, uniqueness, species
    /// diversity). Deterministic, so included in equality.
    pub diagnostics: PopulationDiagnostics,
    /// Wall-clock nanoseconds spent in the speciation phase (speciate +
    /// stagnation removal + fitness sharing) of the step that produced
    /// the *next* generation. Excluded from equality.
    pub speciate_ns: u64,
    /// Wall-clock nanoseconds spent in the reproduction phase of the
    /// step that produced the *next* generation. Excluded from equality.
    pub reproduce_ns: u64,
    /// Wall-clock nanoseconds spent evaluating this generation's
    /// genomes. Excluded from equality.
    pub eval_ns: u64,
}

impl PartialEq for GenerationStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the phase timings: timings are wall-clock
        // measurements and differ between bit-identical runs.
        self.generation == other.generation
            && self.max_fitness == other.max_fitness
            && self.mean_fitness == other.mean_fitness
            && self.min_fitness == other.min_fitness
            && self.num_species == other.num_species
            && self.total_nodes == other.total_nodes
            && self.total_conns == other.total_conns
            && self.total_genes == other.total_genes
            && self.max_genome_genes == other.max_genome_genes
            && self.memory_bytes == other.memory_bytes
            && self.ops == other.ops
            && self.fittest_parent_reuse == other.fittest_parent_reuse
            && self.inference_macs == other.inference_macs
            && self.env_steps == other.env_steps
            && self.diagnostics == other.diagnostics
    }
}

impl GenerationStats {
    /// Gathers structure statistics from a population of evaluated genomes.
    /// `ops` / `reuse` come from the reproduction step (zero for the final
    /// generation, which produces no children).
    pub fn collect(
        generation: usize,
        genomes: &[Genome],
        num_species: usize,
        trace: Option<&GenerationTrace>,
        inference_macs: u64,
    ) -> GenerationStats {
        let mut max_fitness = f64::NEG_INFINITY;
        let mut min_fitness = f64::INFINITY;
        let mut sum = 0.0;
        let mut total_nodes = 0;
        let mut total_conns = 0;
        let mut max_genome_genes = 0;
        for g in genomes {
            let f = g.fitness().unwrap_or(0.0);
            max_fitness = max_fitness.max(f);
            min_fitness = min_fitness.min(f);
            sum += f;
            total_nodes += g.num_nodes();
            total_conns += g.num_conns();
            max_genome_genes = max_genome_genes.max(g.num_genes());
        }
        let n = genomes.len().max(1);
        let total_genes = total_nodes + total_conns;
        GenerationStats {
            generation,
            max_fitness,
            mean_fitness: sum / n as f64,
            min_fitness,
            num_species,
            total_nodes,
            total_conns,
            total_genes,
            max_genome_genes,
            memory_bytes: total_genes * crate::genome::GENE_BYTES,
            ops: trace.map(|t| t.totals()).unwrap_or_default(),
            fittest_parent_reuse: trace.map(|t| t.fittest_parent_reuse()).unwrap_or(0),
            inference_macs,
            env_steps: 0,
            diagnostics: PopulationDiagnostics::collect(genomes),
            speciate_ns: 0,
            reproduce_ns: 0,
            eval_ns: 0,
        }
    }
}

impl fmt::Display for GenerationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gen {:>4}  fit max/mean/min {:>10.3}/{:>10.3}/{:>10.3}  species {:>3}  genes {:>8}  mem {:>8} B  ops {:>9}  reuse {:>3}",
            self.generation,
            self.max_fitness,
            self.mean_fitness,
            self.min_fitness,
            self.num_species,
            self.total_genes,
            self.memory_bytes,
            self.ops.total(),
            self.fittest_parent_reuse,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeatConfig;
    use crate::rng::XorWow;

    #[test]
    fn collect_computes_aggregates() {
        let c = NeatConfig::builder(2, 1).build().unwrap();
        let mut r = XorWow::seed_from_u64_value(4);
        let mut genomes: Vec<Genome> = (0..4).map(|k| Genome::initial(k, &c, &mut r)).collect();
        for (i, g) in genomes.iter_mut().enumerate() {
            g.set_fitness(i as f64);
        }
        let s = GenerationStats::collect(3, &genomes, 2, None, 100);
        assert_eq!(s.generation, 3);
        assert_eq!(s.max_fitness, 3.0);
        assert_eq!(s.min_fitness, 0.0);
        assert!((s.mean_fitness - 1.5).abs() < 1e-12);
        assert_eq!(s.num_species, 2);
        // initial genome: 3 nodes + 2 conns = 5 genes each
        assert_eq!(s.total_genes, 20);
        assert_eq!(s.memory_bytes, 160);
        assert_eq!(s.inference_macs, 100);
        assert_eq!(s.fittest_parent_reuse, 0);
    }

    #[test]
    fn clones_compress_and_collapse_to_one_unique_genome() {
        // Random initial weights: zero-weight initial genomes (the paper
        // default) are all identical, which is exactly what this test
        // must tell apart from a varied population.
        let c = NeatConfig::builder(6, 2)
            .initial_weights(crate::config::InitialWeights::Uniform { lo: -1.0, hi: 1.0 })
            .build()
            .unwrap();
        let mut r = XorWow::seed_from_u64_value(9);
        let one = Genome::initial(0, &c, &mut r);
        let clones: Vec<Genome> = (0..32).map(|_| one.clone()).collect();
        let d = PopulationDiagnostics::collect(&clones);
        assert_eq!(d.unique_genomes, 1);
        // 31 of 32 gene streams are pure back-references.
        let varied: Vec<Genome> = (0..32)
            .map(|k| {
                let mut rk = XorWow::seed_from_u64_value(1000 + k);
                Genome::initial(k, &c, &mut rk)
            })
            .collect();
        let dv = PopulationDiagnostics::collect(&varied);
        assert!(
            d.high_order_entropy < dv.high_order_entropy,
            "clones must compress harder than varied genomes: {} vs {}",
            d.high_order_entropy,
            dv.high_order_entropy
        );
        assert!(dv.unique_genomes > 1);
    }

    #[test]
    fn unique_genomes_separates_on_any_attribute_bit() {
        use crate::gene::{ConnGene, NodeGene, NodeId};
        let build = |weight: f64| {
            Genome::from_parts(
                0,
                1,
                1,
                [NodeGene::input(NodeId(0)), NodeGene::output(NodeId(1))],
                [ConnGene::new(NodeId(0), NodeId(1), weight)],
            )
            .unwrap()
        };
        let a = build(0.5);
        // Flip one low-order weight bit: still "equal" to the eye, but a
        // different genome to the diagnostic.
        let b = build(f64::from_bits(0.5f64.to_bits() ^ 1));
        assert_eq!(
            PopulationDiagnostics::collect(&[a.clone(), a.clone()]).unique_genomes,
            1
        );
        assert_eq!(PopulationDiagnostics::collect(&[a, b]).unique_genomes, 2);
    }

    /// The identity hash as first defined: the fold of the whole
    /// [`push_genome_words`] stream, input prefix included.
    fn full_stream_hash(genome: &Genome) -> u64 {
        let mut words = Vec::new();
        push_genome_words(genome, &mut words);
        words.into_iter().fold(FNV_OFFSET, fnv1a_word)
    }

    #[test]
    fn identity_hash_past_the_prefix_equals_the_full_stream_fold() {
        for num_inputs in [3, 128] {
            let c = NeatConfig::builder(num_inputs, 2)
                .initial_weights(crate::config::InitialWeights::Uniform { lo: -1.0, hi: 1.0 })
                .node_add_prob(0.6)
                .conn_add_prob(0.6)
                .build()
                .unwrap();
            let mut r = XorWow::seed_from_u64_value(5);
            let mut innov = crate::innovation::InnovationTracker::new(c.first_hidden_id());
            let mut ops = OpCounters::new();
            let prefix = input_prefix_hash(num_inputs);
            for k in 0..12 {
                let mut g = Genome::initial(k, &c, &mut r);
                for _ in 0..k {
                    g.mutate(&c, &mut innov, &mut r, &mut ops);
                }
                assert_eq!(
                    genome_identity_hash(&g, prefix),
                    full_stream_hash(&g),
                    "{num_inputs} inputs, genome {k} of {} genes",
                    g.num_genes()
                );
            }
        }
    }

    #[test]
    fn species_entropy_is_zero_for_one_species_and_ln_k_for_even_split() {
        let mut d = PopulationDiagnostics::default();
        d.set_species_sizes([12usize].into_iter());
        assert_eq!(d.species_entropy, 0.0);
        assert_eq!(d.largest_species, 12);
        d.set_species_sizes([5usize, 5, 5, 5].into_iter());
        assert!((d.species_entropy - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(d.largest_species, 5);
        d.set_species_sizes(std::iter::empty());
        assert_eq!(d.species_entropy, 0.0);
        assert_eq!(d.largest_species, 0);
    }

    #[test]
    fn diagnostics_are_deterministic() {
        let c = NeatConfig::builder(4, 1).build().unwrap();
        let genomes: Vec<Genome> = (0..16)
            .map(|k| {
                let mut rk = XorWow::seed_from_u64_value(77 + k);
                Genome::initial(k, &c, &mut rk)
            })
            .collect();
        let a = PopulationDiagnostics::collect(&genomes);
        let b = PopulationDiagnostics::collect(&genomes);
        assert_eq!(a, b);
        assert!(a.high_order_entropy > 0.0 && a.high_order_entropy <= 9.0 / 8.0);
    }

    #[test]
    fn display_is_nonempty() {
        let c = NeatConfig::builder(2, 1).build().unwrap();
        let mut r = XorWow::seed_from_u64_value(4);
        let mut g = Genome::initial(0, &c, &mut r);
        g.set_fitness(1.0);
        let s = GenerationStats::collect(0, &[g], 1, None, 0);
        assert!(!s.to_string().is_empty());
    }
}
