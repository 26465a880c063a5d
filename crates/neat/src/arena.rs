//! Flat population arenas: the whole population's gene streams packed
//! into two contiguous buffers with per-genome offset/length tables.
//!
//! This is the paper's genome-buffer layout — "the genes are stored in two
//! logical clusters … sorted in ascending order of IDs" (Section IV-C5) —
//! extended across the *population*: every genome's node cluster lives
//! back-to-back in one `Vec<NodeGene>`, every conn cluster in one
//! `Vec<ConnGene>`, and a span table maps genome index → `(offset, len)`
//! into each. Population-scale sweeps (the speciation distance matrix,
//! compatibility scans, batched gene statistics) then walk contiguous
//! memory instead of chasing one heap allocation per genome, which is what
//! makes `--pop 10_000..100_000` practical.
//!
//! Distances computed through [`GenomeView::distance`] share one
//! implementation with [`Genome::distance`] ([`gene_distance`]), so arena
//! and per-genome paths are bit-identical by construction.
//!
//! Every genome's node cluster opens with the same constant block: input
//! `i` is [`NodeGene::input`]`(NodeId(i))` at position `i`
//! ([`Genome::validate`] enforces it). The distance kernels here count
//! that prefix as matched without walking it; each matched pair of
//! default input genes would add exactly `+0.0`, so every sum, count and
//! denominator is unchanged (see `docs/speciation.md`, "The input
//! prefix").

use crate::config::NeatConfig;
use crate::gene::{ConnGene, ConnKey, NodeGene, NodeId};
use crate::genome::{Genome, GENE_BYTES};

/// Borrowed view of one genome's two sorted gene clusters — either a slice
/// pair out of a [`PopulationArena`] or a [`Genome`]'s own buffers.
///
/// A view built by hand must keep the genome layout [`Genome::validate`]
/// checks: `nodes[i]` is [`NodeGene::input`]`(NodeId(i))` for every
/// `i < num_inputs`. The distance kernels skip that prefix unread.
#[derive(Debug, Clone, Copy)]
pub struct GenomeView<'a> {
    /// Node genes in ascending id order.
    pub nodes: &'a [NodeGene],
    /// Connection genes in ascending key order.
    pub conns: &'a [ConnGene],
    /// Length of the constant input prefix of `nodes`.
    pub num_inputs: usize,
}

impl<'a> GenomeView<'a> {
    /// Views a genome's own gene buffers without copying.
    pub fn of(genome: &'a Genome) -> Self {
        GenomeView {
            nodes: genome.node_genes(),
            conns: genome.conn_genes(),
            num_inputs: genome.num_inputs(),
        }
    }

    /// Compatibility distance to `other`; bit-identical to
    /// [`Genome::distance`] (both delegate to [`gene_distance`]).
    pub fn distance(&self, other: GenomeView<'_>, config: &NeatConfig) -> f64 {
        gene_distance(*self, other, config)
    }

    /// Total gene count of the viewed genome.
    pub fn num_genes(&self) -> usize {
        self.nodes.len() + self.conns.len()
    }
}

/// Per-genome offset/length record into the arena's two gene buffers,
/// with the genome's input count (the length of its constant prefix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    node_offset: usize,
    node_len: usize,
    conn_offset: usize,
    conn_len: usize,
    num_inputs: usize,
}

/// A population's gene streams packed contiguously (see module docs).
///
/// [`PopulationArena::pack`] reuses the backing buffers across calls, so a
/// generation-loop repack allocates nothing once capacity has grown to the
/// population's working-set size.
#[derive(Debug, Clone, Default)]
pub struct PopulationArena {
    nodes: Vec<NodeGene>,
    conns: Vec<ConnGene>,
    spans: Vec<Span>,
}

impl PopulationArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PopulationArena::default()
    }

    /// Packs the gene streams of `genomes` into the arena, replacing any
    /// previous contents. Buffer capacity is retained across calls.
    pub fn pack<'a>(&mut self, genomes: impl IntoIterator<Item = &'a Genome>) {
        self.nodes.clear();
        self.conns.clear();
        self.spans.clear();
        for genome in genomes {
            let span = Span {
                node_offset: self.nodes.len(),
                node_len: genome.num_nodes(),
                conn_offset: self.conns.len(),
                conn_len: genome.num_conns(),
                num_inputs: genome.num_inputs(),
            };
            self.nodes.extend_from_slice(genome.node_genes());
            self.conns.extend_from_slice(genome.conn_genes());
            self.spans.push(span);
        }
    }

    /// Number of packed genomes.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no genomes are packed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// View of the `i`-th packed genome's gene clusters.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn view(&self, i: usize) -> GenomeView<'_> {
        let span = self.spans[i];
        GenomeView {
            nodes: &self.nodes[span.node_offset..span.node_offset + span.node_len],
            conns: &self.conns[span.conn_offset..span.conn_offset + span.conn_len],
            num_inputs: span.num_inputs,
        }
    }

    /// Total genes across all packed genomes (the Fig 4(b) metric, summed).
    pub fn total_genes(&self) -> usize {
        self.nodes.len() + self.conns.len()
    }

    /// Total memory footprint in the 64-bit hardware gene encoding.
    pub fn memory_bytes(&self) -> usize {
        self.total_genes() * GENE_BYTES
    }
}

/// Lanes per [`RepColumns`] block: one genome is scanned against up to
/// this many representatives in a single merge-join pass.
pub const REP_BLOCK: usize = 16;

/// Columnar pack of up to [`REP_BLOCK`] representative genomes, laid out
/// for the one-genome-versus-K distance scan of the speciation fold.
///
/// The block stores each gene cluster as a CSR over the **sorted union**
/// of the representatives' gene keys: a distinct-key list, an offset
/// table, and `(lane, gene)` entries. [`RepColumns::scan`] then
/// merge-joins one genome's sorted genes against the union *once*,
/// touching each distinct key a single time instead of re-walking every
/// representative's stream — on converged populations whose
/// representatives share most structure this cuts the per-genome gene
/// traffic by roughly the representative count.
///
/// The input prefix every lane shares is left out of the union, and
/// [`RepColumns::scan`] counts it as matched without reading it (module
/// docs), exactly as [`gene_distance`] does.
///
/// Bit-identity: per lane, entries appear in ascending key order (a
/// subsequence of the union order), each matched entry contributes
/// `genome_gene.attribute_distance(rep_gene) * weight_coeff` exactly as
/// the scalar [`gene_distance`] does with the representative on the `b`
/// side, and the closing `(acc + cd·disjoint) / max` uses the same
/// operations in the same order — so every lane's distance is
/// bit-identical to the scalar kernel, NaN patterns included.
#[derive(Debug, Clone, Default)]
pub struct RepColumns {
    lanes: usize,
    /// Input genes every lane starts with, left out of the union.
    prefix: usize,
    node_lens: [usize; REP_BLOCK],
    conn_lens: [usize; REP_BLOCK],
    node_keys: Vec<NodeId>,
    node_off: Vec<u32>,
    /// Owning lane of entry `i` — split from the attribute arrays so the
    /// disjoint (miss) path touches one byte per entry, not a whole gene.
    node_lane: Vec<u8>,
    /// Per-entry attributes, one array per field so the matched (hit)
    /// path is unit-stride f64 arithmetic the compiler can vectorize.
    /// Discrete attributes are stored as their integer codes widened to
    /// f64: the codes are small distinct integers, so f64 equality is
    /// exact and `|code_a - code_b|`-style compares stay branch-free.
    node_bias: Vec<f64>,
    node_resp: Vec<f64>,
    node_act: Vec<f64>,
    node_agg: Vec<f64>,
    conn_keys: Vec<ConnKey>,
    conn_off: Vec<u32>,
    conn_lane: Vec<u8>,
    conn_weight: Vec<f64>,
    /// Enabled flag as `0.0`/`1.0`: `|a - b|` is then exactly the
    /// `+1.0`-if-different term of [`ConnGene::attribute_distance`].
    conn_enabled: Vec<f64>,
    /// `(lane, gene)` sort buffers of [`RepColumns::build`], kept so a
    /// rebuild allocates nothing once they have grown.
    node_entries: Vec<(u8, NodeGene)>,
    conn_entries: Vec<(u8, ConnGene)>,
}

impl RepColumns {
    /// Creates an empty block.
    pub fn new() -> Self {
        RepColumns::default()
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Packs `views` (at most [`REP_BLOCK`] of them) into the block,
    /// reusing buffer capacity across calls.
    ///
    /// # Panics
    ///
    /// Panics if `views` yields more than [`REP_BLOCK`] views.
    pub fn build<'v>(&mut self, views: impl IntoIterator<Item = GenomeView<'v>>) {
        self.lanes = 0;
        self.node_keys.clear();
        self.node_off.clear();
        self.node_lane.clear();
        self.node_bias.clear();
        self.node_resp.clear();
        self.node_act.clear();
        self.node_agg.clear();
        self.conn_keys.clear();
        self.conn_off.clear();
        self.conn_lane.clear();
        self.conn_weight.clear();
        self.conn_enabled.clear();
        let node_entries = &mut self.node_entries;
        let conn_entries = &mut self.conn_entries;
        node_entries.clear();
        conn_entries.clear();
        let mut inputs = [0usize; REP_BLOCK];
        for v in views {
            let lane = self.lanes;
            assert!(
                lane < REP_BLOCK,
                "block overflow: more than {REP_BLOCK} views"
            );
            self.lanes += 1;
            self.node_lens[lane] = v.nodes.len();
            self.conn_lens[lane] = v.conns.len();
            inputs[lane] = v.num_inputs.min(v.nodes.len());
            node_entries.extend(v.nodes[inputs[lane]..].iter().map(|n| (lane as u8, *n)));
            conn_entries.extend(v.conns.iter().map(|c| (lane as u8, *c)));
        }
        // Only the prefix all lanes share stays out of the union: a lane
        // with more inputs than that keeps the rest of its (default) input
        // genes as ordinary entries.
        self.prefix = inputs[..self.lanes].iter().copied().min().unwrap_or(0);
        for (lane, &n) in inputs[..self.lanes].iter().enumerate() {
            node_entries
                .extend((self.prefix..n).map(|k| (lane as u8, NodeGene::input(NodeId(k as u32)))));
        }
        // (key, lane) pairs are unique, so unstable sort is deterministic.
        node_entries.sort_unstable_by_key(|&(lane, ref n)| (n.id, lane));
        conn_entries.sort_unstable_by_key(|&(lane, ref c)| (c.key, lane));
        for (i, &(lane, ref n)) in node_entries.iter().enumerate() {
            if self.node_keys.last() != Some(&n.id) {
                self.node_keys.push(n.id);
                self.node_off.push(i as u32);
            }
            self.node_lane.push(lane);
            self.node_bias.push(n.bias);
            self.node_resp.push(n.response);
            self.node_act.push(f64::from(n.activation as u8));
            self.node_agg.push(f64::from(n.aggregation as u8));
        }
        self.node_off.push(node_entries.len() as u32);
        for (i, &(lane, ref c)) in conn_entries.iter().enumerate() {
            if self.conn_keys.last() != Some(&c.key) {
                self.conn_keys.push(c.key);
                self.conn_off.push(i as u32);
            }
            self.conn_lane.push(lane);
            self.conn_weight.push(c.weight);
            self.conn_enabled.push(f64::from(u8::from(c.enabled)));
        }
        self.conn_off.push(conn_entries.len() as u32);
    }

    /// Computes the compatibility distance of `genome` to every packed
    /// lane, writing lane `i`'s result into `out[i]` (lanes past
    /// [`RepColumns::lanes`] get `+inf`). Each lane's value is
    /// bit-identical to `gene_distance(genome, lane)`.
    pub fn scan(&self, genome: GenomeView<'_>, config: &NeatConfig, out: &mut [f64; REP_BLOCK]) {
        // Runtime ISA dispatch: the scan is element-wise IEEE adds and
        // multiplies with no reassociation or contraction, so wider
        // vectors change throughput, never bits (detection is cached —
        // one atomic load per call).
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                // SAFETY: AVX-512 F/VL/DQ support was just verified.
                unsafe { self.scan_avx512(genome, config, out) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { self.scan_avx2(genome, config, out) };
                return;
            }
        }
        self.scan_body(genome, config, out);
    }

    /// [`RepColumns::scan`] compiled with AVX2 enabled, so the dense-key
    /// per-field loops vectorize at 4 f64 lanes instead of 2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_avx2(
        &self,
        genome: GenomeView<'_>,
        config: &NeatConfig,
        out: &mut [f64; REP_BLOCK],
    ) {
        self.scan_body(genome, config, out);
    }

    /// [`RepColumns::scan`] compiled with AVX-512 F/VL/DQ enabled —
    /// wider vectors and per-lane masks for the same element-wise IEEE
    /// operations.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq")]
    unsafe fn scan_avx512(
        &self,
        genome: GenomeView<'_>,
        config: &NeatConfig,
        out: &mut [f64; REP_BLOCK],
    ) {
        self.scan_body(genome, config, out);
    }

    #[inline(always)]
    fn scan_body(&self, genome: GenomeView<'_>, config: &NeatConfig, out: &mut [f64; REP_BLOCK]) {
        let cd = config.compatibility_disjoint_coefficient;
        let cw = config.compatibility_weight_coefficient;
        out.fill(f64::INFINITY);
        if self.lanes == 0 {
            return;
        }

        // A key present in every lane ("dense") has exactly one entry per
        // lane in ascending lane order, so entry `i` belongs to lane `i` —
        // the hot loop is unit-stride f64 arithmetic with no lane
        // indirection and no counter updates (a scalar `dense_hits` stands
        // in for every lane's `matched` increment).
        //
        // Bit-identity of the branch-free attribute terms: the `+1.0` per
        // differing discrete attribute becomes `+ t` with `t ∈ {0.0, 1.0}`.
        // When `t == 1.0` it is the scalar op verbatim; when `t == 0.0`,
        // `d + 0.0` is bitwise `d` (d is non-negative or a quiet NaN —
        // never `-0.0` — and x86/LLVM addition preserves both).
        //
        // The first `skip` genes of the genome and of every lane are the
        // same default input genes: they count as dense hits, unread.
        let skip = genome.num_inputs.min(self.prefix).min(genome.nodes.len());
        let mut acc = [0.0f64; REP_BLOCK];
        let mut matched = [0u32; REP_BLOCK];
        let mut disjoint = [0u32; REP_BLOCK];
        let mut dense_hits = skip as u32;
        let mut gi = skip;
        // A genome with fewer inputs than every lane: the lanes' remaining
        // shared input genes are left out of the union, so compare them
        // here, in key order, before any union key.
        for k in skip..self.prefix {
            let key = NodeId(k as u32);
            while gi < genome.nodes.len() && genome.nodes[gi].id < key {
                gi += 1;
            }
            if gi < genome.nodes.len() && genome.nodes[gi].id == key {
                let d = genome.nodes[gi].attribute_distance(&NodeGene::input(key)) * cw;
                for a in &mut acc[..self.lanes] {
                    *a += d;
                }
                dense_hits += 1;
            } else {
                for miss in &mut disjoint[..self.lanes] {
                    *miss += 1;
                }
            }
        }
        for (k, &key) in self.node_keys.iter().enumerate() {
            while gi < genome.nodes.len() && genome.nodes[gi].id < key {
                gi += 1;
            }
            let hit = gi < genome.nodes.len() && genome.nodes[gi].id == key;
            let span = self.node_off[k] as usize..self.node_off[k + 1] as usize;
            if hit {
                let g = &genome.nodes[gi];
                let (gb, gr) = (g.bias, g.response);
                let ga = f64::from(g.activation as u8);
                let gg = f64::from(g.aggregation as u8);
                if span.len() == self.lanes {
                    dense_hits += 1;
                    if self.lanes == REP_BLOCK {
                        // Fixed trip count: full blocks (the common case at
                        // scale) get exact-length arrays, so the compiler
                        // unrolls and vectorizes without tail loops.
                        let bias: &[f64; REP_BLOCK] =
                            self.node_bias[span.clone()].try_into().unwrap();
                        let resp: &[f64; REP_BLOCK] =
                            self.node_resp[span.clone()].try_into().unwrap();
                        let act: &[f64; REP_BLOCK] =
                            self.node_act[span.clone()].try_into().unwrap();
                        let agg: &[f64; REP_BLOCK] = self.node_agg[span].try_into().unwrap();
                        for i in 0..REP_BLOCK {
                            let mut d = (gb - bias[i]).abs() + (gr - resp[i]).abs();
                            d += f64::from(u8::from(ga != act[i]));
                            d += f64::from(u8::from(gg != agg[i]));
                            acc[i] += d * cw;
                        }
                    } else {
                        let bias = &self.node_bias[span.clone()];
                        let resp = &self.node_resp[span.clone()];
                        let act = &self.node_act[span.clone()];
                        let agg = &self.node_agg[span];
                        for ((((a, &b), &r), &av), &gv) in acc[..bias.len()]
                            .iter_mut()
                            .zip(bias)
                            .zip(resp)
                            .zip(act)
                            .zip(agg)
                        {
                            let mut d = (gb - b).abs() + (gr - r).abs();
                            d += f64::from(u8::from(ga != av));
                            d += f64::from(u8::from(gg != gv));
                            *a += d * cw;
                        }
                    }
                } else {
                    for (j, &lane) in self.node_lane[span.clone()].iter().enumerate() {
                        let lane = lane as usize;
                        let e = span.start + j;
                        let mut d = (gb - self.node_bias[e]).abs() + (gr - self.node_resp[e]).abs();
                        d += f64::from(u8::from(ga != self.node_act[e]));
                        d += f64::from(u8::from(gg != self.node_agg[e]));
                        acc[lane] += d * cw;
                        matched[lane] += 1;
                    }
                }
            } else {
                for &lane in &self.node_lane[span] {
                    disjoint[lane as usize] += 1;
                }
            }
        }
        let mut node_dist = [0.0f64; REP_BLOCK];
        for lane in 0..self.lanes {
            let dis = disjoint[lane] + (genome.nodes.len() as u32 - matched[lane] - dense_hits);
            let max_nodes = genome.nodes.len().max(self.node_lens[lane]).max(1);
            node_dist[lane] = (acc[lane] + cd * f64::from(dis)) / max_nodes as f64;
        }

        acc = [0.0f64; REP_BLOCK];
        matched = [0u32; REP_BLOCK];
        disjoint = [0u32; REP_BLOCK];
        dense_hits = 0;
        let mut gi = 0usize;
        for (k, &key) in self.conn_keys.iter().enumerate() {
            while gi < genome.conns.len() && genome.conns[gi].key < key {
                gi += 1;
            }
            let hit = gi < genome.conns.len() && genome.conns[gi].key == key;
            let span = self.conn_off[k] as usize..self.conn_off[k + 1] as usize;
            if hit {
                let g = &genome.conns[gi];
                let gw = g.weight;
                let ge = f64::from(u8::from(g.enabled));
                if span.len() == self.lanes {
                    dense_hits += 1;
                    if self.lanes == REP_BLOCK {
                        let weight: &[f64; REP_BLOCK] =
                            self.conn_weight[span.clone()].try_into().unwrap();
                        let enabled: &[f64; REP_BLOCK] =
                            self.conn_enabled[span].try_into().unwrap();
                        for i in 0..REP_BLOCK {
                            let d = (gw - weight[i]).abs() + (ge - enabled[i]).abs();
                            acc[i] += d * cw;
                        }
                    } else {
                        let weight = &self.conn_weight[span.clone()];
                        let enabled = &self.conn_enabled[span];
                        for ((a, &w), &en) in
                            acc[..weight.len()].iter_mut().zip(weight).zip(enabled)
                        {
                            let d = (gw - w).abs() + (ge - en).abs();
                            *a += d * cw;
                        }
                    }
                } else {
                    for (j, &lane) in self.conn_lane[span.clone()].iter().enumerate() {
                        let lane = lane as usize;
                        let e = span.start + j;
                        let d =
                            (gw - self.conn_weight[e]).abs() + (ge - self.conn_enabled[e]).abs();
                        acc[lane] += d * cw;
                        matched[lane] += 1;
                    }
                }
            } else {
                for &lane in &self.conn_lane[span] {
                    disjoint[lane as usize] += 1;
                }
            }
        }
        for lane in 0..self.lanes {
            let dis = disjoint[lane] + (genome.conns.len() as u32 - matched[lane] - dense_hits);
            let max_conns = genome.conns.len().max(self.conn_lens[lane]).max(1);
            out[lane] = node_dist[lane] + (acc[lane] + cd * f64::from(dis)) / max_conns as f64;
        }
    }
}

/// Compatibility distance between two sorted gene-slice pairs, following
/// the `neat-python` formulation (Section II-D): node distance plus
/// connection distance, each `(weight_coeff * Σ attribute distance of
/// matching genes + disjoint_coeff * #non-matching) / max gene count`.
///
/// This is *the* implementation — [`Genome::distance`] and
/// [`GenomeView::distance`] both call it — so every caller accumulates in
/// the same order (ascending key order of the `b` side) and produces
/// bit-identical results.
///
/// The input prefix the two genomes share is counted as matched without
/// being walked: each matched pair of default input genes would add
/// `0.0 * weight_coeff`, exactly `+0.0` for the finite, non-negative
/// coefficients [`NeatConfig::validate`] admits, so the result is
/// bit-identical to the full walk (module docs).
pub fn gene_distance(a: GenomeView<'_>, b: GenomeView<'_>, config: &NeatConfig) -> f64 {
    let cd = config.compatibility_disjoint_coefficient;
    let cw = config.compatibility_weight_coefficient;
    let (nodes_a, conns_a, nodes_b, conns_b) = (a.nodes, a.conns, b.nodes, b.conns);
    let skip = a
        .num_inputs
        .min(b.num_inputs)
        .min(nodes_a.len())
        .min(nodes_b.len());

    let mut node_dist = 0.0;
    let mut disjoint_nodes = 0usize;
    let mut matched = skip;
    let mut i = skip;
    for n2 in &nodes_b[skip..] {
        while i < nodes_a.len() && nodes_a[i].id < n2.id {
            i += 1;
        }
        if i < nodes_a.len() && nodes_a[i].id == n2.id {
            node_dist += nodes_a[i].attribute_distance(n2) * cw;
            matched += 1;
        } else {
            disjoint_nodes += 1;
        }
    }
    disjoint_nodes += nodes_a.len() - matched;
    let max_nodes = nodes_a.len().max(nodes_b.len()).max(1);
    node_dist = (node_dist + cd * disjoint_nodes as f64) / max_nodes as f64;

    let mut conn_dist = 0.0;
    let mut disjoint_conns = 0usize;
    let mut matched = 0usize;
    let mut i = 0usize;
    for c2 in conns_b {
        while i < conns_a.len() && conns_a[i].key < c2.key {
            i += 1;
        }
        if i < conns_a.len() && conns_a[i].key == c2.key {
            conn_dist += conns_a[i].attribute_distance(c2) * cw;
            matched += 1;
        } else {
            disjoint_conns += 1;
        }
    }
    disjoint_conns += conns_a.len() - matched;
    let max_conns = conns_a.len().max(conns_b.len()).max(1);
    conn_dist = (conn_dist + cd * disjoint_conns as f64) / max_conns as f64;

    node_dist + conn_dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::innovation::InnovationTracker;
    use crate::rng::XorWow;
    use crate::trace::OpCounters;

    fn evolved_population(n: usize) -> (Vec<Genome>, NeatConfig) {
        let c = NeatConfig::builder(3, 2).build().unwrap();
        let mut r = XorWow::seed_from_u64_value(314);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let genomes = (0..n)
            .map(|k| {
                let mut g = Genome::initial(k as u64, &c, &mut r);
                let mut ops = OpCounters::new();
                for _ in 0..(k % 5) {
                    g.mutate_add_node(&mut innov, &mut r, &mut ops);
                    g.mutate_add_conn(&mut r, &mut ops);
                    g.mutate_attributes(&c, &mut r, &mut ops);
                }
                g
            })
            .collect();
        (genomes, c)
    }

    #[test]
    fn pack_preserves_every_gene_in_order() {
        let (genomes, _) = evolved_population(12);
        let mut arena = PopulationArena::new();
        arena.pack(&genomes);
        assert_eq!(arena.len(), genomes.len());
        for (i, g) in genomes.iter().enumerate() {
            let v = arena.view(i);
            assert_eq!(v.nodes, g.node_genes());
            assert_eq!(v.conns, g.conn_genes());
            assert_eq!(v.num_genes(), g.num_genes());
        }
        let genes: usize = genomes.iter().map(Genome::num_genes).sum();
        assert_eq!(arena.total_genes(), genes);
        assert_eq!(arena.memory_bytes(), genes * GENE_BYTES);
    }

    #[test]
    fn arena_distance_is_bit_identical_to_genome_distance() {
        let (genomes, c) = evolved_population(10);
        let mut arena = PopulationArena::new();
        arena.pack(&genomes);
        for i in 0..genomes.len() {
            for j in 0..genomes.len() {
                let direct = genomes[i].distance(&genomes[j], &c);
                let via_arena = arena.view(i).distance(arena.view(j), &c);
                let mixed = GenomeView::of(&genomes[i]).distance(arena.view(j), &c);
                assert_eq!(direct.to_bits(), via_arena.to_bits(), "{i} vs {j}");
                assert_eq!(direct.to_bits(), mixed.to_bits(), "{i} vs {j} mixed");
            }
        }
    }

    #[test]
    fn columnar_scan_is_bit_identical_to_scalar_distances() {
        let (mut genomes, c) = evolved_population(24);
        // Poison one representative and one probe with NaN/inf weights so
        // the lane-wise accumulation is checked under non-finite values.
        let nodes: Vec<NodeGene> = genomes[3].node_genes().to_vec();
        let mut conns: Vec<ConnGene> = genomes[3].conn_genes().to_vec();
        conns[0].weight = f64::NAN;
        conns[1].weight = f64::INFINITY;
        genomes[3] = Genome::from_parts(3, 3, 2, nodes, conns).unwrap();

        let mut arena = PopulationArena::new();
        arena.pack(genomes.iter().take(REP_BLOCK));
        for lanes in [1usize, 2, 5, REP_BLOCK] {
            let mut cols = RepColumns::new();
            cols.build((0..lanes).map(|i| arena.view(i)));
            assert_eq!(cols.lanes(), lanes);
            for g in &genomes {
                let mut out = [0.0f64; REP_BLOCK];
                cols.scan(GenomeView::of(g), &c, &mut out);
                for (lane, want) in genomes.iter().take(lanes).enumerate() {
                    let scalar = g.distance(want, &c);
                    assert_eq!(
                        out[lane].to_bits(),
                        scalar.to_bits(),
                        "genome {} lane {lane}",
                        g.key()
                    );
                }
                assert!(out[lanes..].iter().all(|&d| d == f64::INFINITY));
            }
        }
    }

    #[test]
    fn repack_reuses_capacity() {
        let (genomes, _) = evolved_population(16);
        let mut arena = PopulationArena::new();
        arena.pack(&genomes);
        let node_cap = arena.nodes.capacity();
        let conn_cap = arena.conns.capacity();
        // Repacking the same (or a smaller) population must not grow.
        arena.pack(&genomes[..8]);
        arena.pack(&genomes);
        assert_eq!(arena.nodes.capacity(), node_cap);
        assert_eq!(arena.conns.capacity(), conn_cap);
        assert_eq!(arena.len(), 16);
    }

    #[test]
    fn empty_arena_is_well_behaved() {
        let mut arena = PopulationArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.total_genes(), 0);
        arena.pack(&[]);
        assert_eq!(arena.len(), 0);
    }
}
