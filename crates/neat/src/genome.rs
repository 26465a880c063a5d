//! Genomes: collections of genes describing one neural network.
//!
//! A genome stores its node and connection genes as **flat vectors sorted
//! by gene key**, mirroring the hardware genome buffer layout exactly: "the
//! genes are stored in two logical clusters, one for each type; within each
//! cluster, the genes are stored by sorting them in ascending order of IDs"
//! (Section IV-C5). Iterating [`Genome::nodes`] then [`Genome::conns`]
//! therefore reproduces the exact stream order the Gene Split block feeds
//! to the EvE PEs, and crossover/compatibility become sorted-merge walks
//! over the two parent streams — the same dataflow the PE's alignment
//! logic implements.
//!
//! The flat layout also enables the reproduction pipeline's allocation
//! diet: [`Genome::clone_from`] and [`Genome::crossover_into`] write into
//! an existing genome's buffers (capacity retained across generations by
//! the arena in [`crate::population`]) instead of allocating fresh maps per
//! child.

use crate::activation::Activation;
use crate::aggregation::Aggregation;
use crate::config::{InitialWeights, NeatConfig};
use crate::error::GenomeError;
use crate::gene::{ConnGene, ConnKey, NodeGene, NodeId, NodeType};
use crate::innovation::InnovationSource;
use crate::rng::XorWow;
use crate::trace::OpCounters;
use std::collections::{HashMap, HashSet};

/// Bytes per gene in the hardware encoding (64-bit gene word, Fig 6).
pub const GENE_BYTES: usize = 8;

/// One individual: a collection of node and connection genes plus the
/// fitness it earned in the environment.
#[derive(Debug, PartialEq)]
pub struct Genome {
    key: u64,
    /// Node genes in ascending id order (the genome-buffer node cluster).
    nodes: Vec<NodeGene>,
    /// Connection genes in ascending key order (the conn cluster).
    conns: Vec<ConnGene>,
    num_inputs: usize,
    num_outputs: usize,
    fitness: Option<f64>,
}

impl Clone for Genome {
    fn clone(&self) -> Genome {
        Genome {
            key: self.key,
            nodes: self.nodes.clone(),
            conns: self.conns.clone(),
            num_inputs: self.num_inputs,
            num_outputs: self.num_outputs,
            fitness: self.fitness,
        }
    }

    /// Copies `source` into `self` **reusing the existing gene buffers**
    /// (no allocation once capacity has grown to the source size) — the
    /// per-child fast path of the reproduction arena.
    fn clone_from(&mut self, source: &Genome) {
        self.key = source.key;
        self.nodes.clone_from(&source.nodes);
        self.conns.clone_from(&source.conns);
        self.num_inputs = source.num_inputs;
        self.num_outputs = source.num_outputs;
        self.fitness = source.fitness;
    }
}

impl Genome {
    /// Creates the paper's initial topology: every input connected to every
    /// output, no hidden nodes, connection weights per
    /// [`NeatConfig::initial_weights`] (the paper uses zero).
    pub fn initial(key: u64, config: &NeatConfig, rng: &mut XorWow) -> Self {
        let mut nodes = Vec::with_capacity(config.num_inputs + config.num_outputs);
        for i in 0..config.num_inputs {
            nodes.push(NodeGene::input(NodeId(i as u32)));
        }
        for o in 0..config.num_outputs {
            nodes.push(NodeGene::output(NodeId(
                config.first_output_id() + o as u32,
            )));
        }
        let mut conns = Vec::with_capacity(config.num_inputs * config.num_outputs);
        for i in 0..config.num_inputs {
            for o in 0..config.num_outputs {
                let src = NodeId(i as u32);
                let dst = NodeId(config.first_output_id() + o as u32);
                let weight = match config.initial_weights {
                    InitialWeights::Zero => 0.0,
                    InitialWeights::Uniform { lo, hi } => rng.uniform(lo, hi),
                    InitialWeights::Gaussian { stdev } => rng.next_gaussian() * stdev,
                };
                conns.push(ConnGene::new(src, dst, weight));
            }
        }
        Genome {
            key,
            nodes,
            conns,
            num_inputs: config.num_inputs,
            num_outputs: config.num_outputs,
            fitness: None,
        }
    }

    /// An empty genome shell used as an arena slot: every field is
    /// overwritten by [`Genome::clone_from`] or [`Genome::crossover_into`]
    /// before the genome is observed.
    pub(crate) fn shell() -> Genome {
        Genome {
            key: 0,
            nodes: Vec::new(),
            conns: Vec::new(),
            num_inputs: 0,
            num_outputs: 0,
            fitness: None,
        }
    }

    /// Assembles a genome from raw parts, validating the structural
    /// invariants. Every decoder builds genomes here: the snapshot codec,
    /// the hardware genome-buffer codec and the Gene Merge stream decoder
    /// (the hardware block that writes a child genome back to the genome
    /// buffer).
    ///
    /// Each gene list is collected once. A list already strictly sorted
    /// by key, which is how every encoder writes it, is kept as it is.
    /// Any other list is sorted stably, and a gene repeated with the same
    /// key replaces the earlier occurrence: the result equals inserting
    /// the genes one at a time into the sorted clusters.
    ///
    /// # Errors
    ///
    /// Returns a [`GenomeError`] if a connection dangles, terminates at an
    /// input, the graph is cyclic, or an interface node is missing (see
    /// [`Genome::validate`] for which error wins when several apply).
    pub fn from_parts(
        key: u64,
        num_inputs: usize,
        num_outputs: usize,
        nodes: impl IntoIterator<Item = NodeGene>,
        conns: impl IntoIterator<Item = ConnGene>,
    ) -> Result<Self, GenomeError> {
        let mut nodes: Vec<NodeGene> = nodes.into_iter().collect();
        let mut conns: Vec<ConnGene> = conns.into_iter().collect();
        sort_last_wins(&mut nodes, |n| n.id);
        sort_last_wins(&mut conns, |c| c.key);
        let genome = Genome {
            key,
            nodes,
            conns,
            num_inputs,
            num_outputs,
            fitness: None,
        };
        genome.validate()?;
        Ok(genome)
    }

    /// Checks every structural invariant in one pass over the sorted gene
    /// clusters: the interface nodes by position, each connection's
    /// endpoints by binary search, then acyclicity by one Kahn walk over a
    /// CSR adjacency built from the connection cluster (which is already
    /// grouped by source).
    ///
    /// The checks run in a fixed order, so one input always gets the same
    /// error: the smallest missing interface id first; then the first
    /// connection in key order that dangles or ends at an input node;
    /// then [`GenomeError::Cycle`].
    ///
    /// # Errors
    ///
    /// See [`Genome::from_parts`].
    pub fn validate(&self) -> Result<(), GenomeError> {
        // Node ids ascend strictly, so interface id `i` is present exactly
        // when the node at index `i` has id `i`.
        let interface = (self.num_inputs + self.num_outputs) as u32;
        if let Some(id) =
            (0..interface).find(|&i| self.nodes.get(i as usize).is_none_or(|n| n.id.0 != i))
        {
            return Err(GenomeError::MissingInterfaceNode { id });
        }
        let n = self.nodes.len();
        // CSR over node indices: connections sorted by key are grouped by
        // source, and node indices ascend with ids, so `targets` lists each
        // source's edges contiguously once `offsets` is prefix-summed.
        let mut offsets = vec![0usize; n + 1];
        let mut indegree = vec![0usize; n];
        let mut targets = Vec::with_capacity(self.conns.len());
        for conn in &self.conns {
            let (Ok(s), Ok(d)) = (self.node_pos(conn.key.src), self.node_pos(conn.key.dst)) else {
                return Err(GenomeError::DanglingConnection {
                    src: conn.key.src.0,
                    dst: conn.key.dst.0,
                });
            };
            if self.nodes[d].node_type == NodeType::Input {
                return Err(GenomeError::ConnectionIntoInput {
                    dst: conn.key.dst.0,
                });
            }
            offsets[s + 1] += 1;
            indegree[d] += 1;
            targets.push(d);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Kahn's algorithm: if topological elimination leaves nodes with
        // in-degree > 0, a cycle exists.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(v) = ready.pop() {
            visited += 1;
            for &m in &targets[offsets[v]..offsets[v + 1]] {
                indegree[m] -= 1;
                if indegree[m] == 0 {
                    ready.push(m);
                }
            }
        }
        if visited != n {
            return Err(GenomeError::Cycle);
        }
        Ok(())
    }

    // ------------------------------------------------------- sorted storage

    /// Binary-searches the node cluster for `id`.
    fn node_pos(&self, id: NodeId) -> Result<usize, usize> {
        self.nodes.binary_search_by(|n| n.id.cmp(&id))
    }

    /// Binary-searches the connection cluster for `key`.
    fn conn_pos(&self, key: ConnKey) -> Result<usize, usize> {
        self.conns.binary_search_by(|c| c.key.cmp(&key))
    }

    /// Inserts (or replaces) a node gene, keeping the cluster sorted.
    fn insert_node(&mut self, gene: NodeGene) {
        match self.node_pos(gene.id) {
            Ok(i) => self.nodes[i] = gene,
            Err(i) => self.nodes.insert(i, gene),
        }
    }

    /// Inserts (or replaces) a connection gene, keeping the cluster sorted.
    fn insert_conn(&mut self, gene: ConnGene) {
        match self.conn_pos(gene.key) {
            Ok(i) => self.conns[i] = gene,
            Err(i) => self.conns.insert(i, gene),
        }
    }

    /// Rewrites provisional node ids (handed out by a
    /// [`crate::innovation::SplitRecorder`] during a parallel child build)
    /// to the real ids the serial innovation-assignment pass resolved, then
    /// restores the sorted gene order. `map` holds `(provisional, real)`
    /// pairs; ids absent from the map are left untouched.
    pub fn remap_new_nodes(&mut self, map: &[(NodeId, NodeId)]) {
        let lookup = |id: NodeId| {
            map.iter()
                .find(|&&(provisional, _)| provisional == id)
                .map(|&(_, real)| real)
        };
        let mut nodes_touched = false;
        for n in &mut self.nodes {
            if let Some(real) = lookup(n.id) {
                n.id = real;
                nodes_touched = true;
            }
        }
        if nodes_touched {
            self.nodes.sort_by_key(|n| n.id);
        }
        let mut conns_touched = false;
        for c in &mut self.conns {
            let src = lookup(c.key.src);
            let dst = lookup(c.key.dst);
            if src.is_some() || dst.is_some() {
                c.key = ConnKey::new(src.unwrap_or(c.key.src), dst.unwrap_or(c.key.dst));
                conns_touched = true;
            }
        }
        if conns_touched {
            self.conns.sort_by_key(|c| c.key);
        }
        debug_assert!(self.nodes.windows(2).all(|w| w[0].id < w[1].id));
        debug_assert!(self.conns.windows(2).all(|w| w[0].key < w[1].key));
    }

    // ---------------------------------------------------------------- access

    /// Population-unique identifier of this genome.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Re-keys the genome (used when cloning elites into a new generation).
    pub fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    /// Fitness earned in the environment, if evaluated.
    pub fn fitness(&self) -> Option<f64> {
        self.fitness
    }

    /// Records the fitness obtained from the environment.
    pub fn set_fitness(&mut self, fitness: f64) {
        self.fitness = Some(fitness);
    }

    /// Number of input nodes.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output nodes.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Iterates node genes in ascending id order (the genome-buffer order).
    pub fn nodes(&self) -> impl Iterator<Item = &NodeGene> {
        self.nodes.iter()
    }

    /// Iterates connection genes in ascending key order.
    pub fn conns(&self) -> impl Iterator<Item = &ConnGene> {
        self.conns.iter()
    }

    /// Node genes as one contiguous slice (ascending id order) — the view
    /// the flat population arena packs from.
    pub fn node_genes(&self) -> &[NodeGene] {
        &self.nodes
    }

    /// Connection genes as one contiguous slice (ascending key order).
    pub fn conn_genes(&self) -> &[ConnGene] {
        &self.conns
    }

    /// Looks up a node gene.
    pub fn node(&self, id: NodeId) -> Option<&NodeGene> {
        self.node_pos(id).ok().map(|i| &self.nodes[i])
    }

    /// Looks up a connection gene.
    pub fn conn(&self, key: ConnKey) -> Option<&ConnGene> {
        self.conn_pos(key).ok().map(|i| &self.conns[i])
    }

    /// Structural role of a node, if present.
    pub fn node_type(&self, id: NodeId) -> Option<NodeType> {
        self.node(id).map(|n| n.node_type)
    }

    /// Number of node genes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of connection genes.
    pub fn num_conns(&self) -> usize {
        self.conns.len()
    }

    /// Total gene count (the Fig 4(b) metric).
    pub fn num_genes(&self) -> usize {
        self.nodes.len() + self.conns.len()
    }

    /// Memory footprint in the 64-bit hardware encoding (Fig 5(b) metric).
    pub fn memory_bytes(&self) -> usize {
        self.num_genes() * GENE_BYTES
    }

    /// Ids of hidden nodes.
    pub fn hidden_node_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.node_type == NodeType::Hidden)
            .map(|n| n.id)
            .collect()
    }

    /// Largest node id present (used by the PE's node-id registers).
    pub fn max_node_id(&self) -> u32 {
        self.nodes.last().map_or(0, |n| n.id.0)
    }

    // ------------------------------------------------------------- mutation

    /// Applies the full NEAT mutation suite to this genome: attribute
    /// perturbations and the structural add/delete operators of Fig 3(d).
    /// Operation tallies are recorded into `ops`.
    ///
    /// `innovations` is any [`InnovationSource`]: the global
    /// [`crate::InnovationTracker`] on the serial path, or a per-child
    /// [`crate::innovation::SplitRecorder`] when children are built in
    /// parallel and split ids are resolved by a later serial pass.
    pub fn mutate(
        &mut self,
        config: &NeatConfig,
        innovations: &mut impl InnovationSource,
        rng: &mut XorWow,
        ops: &mut OpCounters,
    ) {
        if rng.chance(config.node_add_prob) {
            self.mutate_add_node(innovations, rng, ops);
        }
        if rng.chance(config.node_delete_prob) {
            self.mutate_delete_node(config, rng, ops);
        }
        if rng.chance(config.conn_add_prob) {
            self.mutate_add_conn(rng, ops);
        }
        if rng.chance(config.conn_delete_prob) {
            self.mutate_delete_conn(rng, ops);
        }
        self.mutate_attributes(config, rng, ops);
    }

    /// Perturbs (or replaces) the continuous and discrete attributes of all
    /// genes — the Perturbation Engine's work.
    ///
    /// Hit selection uses **geometric-skip sampling**: instead of one
    /// Bernoulli draw per gene per attribute, the geometric CDF is inverted
    /// once per hit and the walk jumps straight to the next mutated gene,
    /// making the pass O(mutations) instead of O(genes) — the behaviour
    /// megapopulations need. Each attribute is swept as its own channel
    /// (bias, response, activation, aggregation over the non-input node
    /// cluster; weight, enabled over the conn cluster), in that order. The
    /// per-hit payload draws (replace-vs-perturb, uniform or Gaussian) are
    /// unchanged. The marginal per-gene mutation probability is identical
    /// to the per-gene coin flip this replaces, but the PRNG stream shape
    /// differs; see `crate::reproduction` for the documented trade.
    pub fn mutate_attributes(
        &mut self,
        config: &NeatConfig,
        rng: &mut XorWow,
        ops: &mut OpCounters,
    ) {
        // Sorted-by-id node cluster ⇒ inputs occupy positions
        // 0..num_inputs, so the non-input genes are exactly the tail.
        let first = self.num_inputs.min(self.nodes.len());
        let targets = &mut self.nodes[first..];
        geometric_hits(rng, config.bias_mutate_rate, targets.len(), |rng, i| {
            let node = &mut targets[i];
            node.bias = if rng.chance(config.bias_replace_rate) {
                rng.uniform(config.bias_min, config.bias_max)
            } else {
                (node.bias + rng.next_gaussian() * config.bias_perturb_power)
                    .clamp(config.bias_min, config.bias_max)
            };
            ops.perturb += 1;
        });
        geometric_hits(rng, config.response_mutate_rate, targets.len(), |rng, i| {
            let node = &mut targets[i];
            node.response = if rng.chance(config.response_replace_rate) {
                rng.uniform(config.response_min, config.response_max)
            } else {
                (node.response + rng.next_gaussian() * config.response_perturb_power)
                    .clamp(config.response_min, config.response_max)
            };
            ops.perturb += 1;
        });
        geometric_hits(
            rng,
            config.activation_mutate_rate,
            targets.len(),
            |rng, i| {
                targets[i].activation = Activation::random(rng, &config.activation_options);
                ops.perturb += 1;
            },
        );
        geometric_hits(
            rng,
            config.aggregation_mutate_rate,
            targets.len(),
            |rng, i| {
                targets[i].aggregation = Aggregation::random(rng, &config.aggregation_options);
                ops.perturb += 1;
            },
        );
        let conns = &mut self.conns;
        geometric_hits(rng, config.weight_mutate_rate, conns.len(), |rng, i| {
            let conn = &mut conns[i];
            conn.weight = if rng.chance(config.weight_replace_rate) {
                rng.uniform(config.weight_min, config.weight_max)
            } else {
                (conn.weight + rng.next_gaussian() * config.weight_perturb_power)
                    .clamp(config.weight_min, config.weight_max)
            };
            ops.perturb += 1;
        });
        geometric_hits(rng, config.enabled_mutate_rate, conns.len(), |_rng, i| {
            conns[i].enabled = !conns[i].enabled;
            ops.perturb += 1;
        });
    }

    /// Splits a random enabled connection `s->d` into `s->new` and
    /// `new->d`, disabling the original — the classic NEAT add-node.
    pub fn mutate_add_node(
        &mut self,
        innovations: &mut impl InnovationSource,
        rng: &mut XorWow,
        ops: &mut OpCounters,
    ) {
        let enabled = self.conns.iter().filter(|c| c.enabled).count();
        if enabled == 0 {
            return;
        }
        let pick = rng.below(enabled);
        let key = self
            .conns
            .iter()
            .filter(|c| c.enabled)
            .nth(pick)
            .expect("pick is below the enabled count")
            .key;
        let new_id = innovations.node_for_split(key);
        if self.node(new_id).is_some() {
            // The same split already occurred in this genome (possible when
            // crossover merged a parent that had it); skip.
            return;
        }
        let pos = self.conn_pos(key).expect("key from iteration");
        let old_weight = self.conns[pos].weight;
        self.conns[pos].enabled = false;
        self.insert_node(NodeGene::hidden(new_id));
        // Per the paper's Add-Gene engine: "two new connection genes are
        // generated". Input-side weight 1 preserves the signal; output-side
        // inherits the old weight.
        self.insert_conn(ConnGene::new(key.src, new_id, 1.0));
        self.insert_conn(ConnGene::new(new_id, key.dst, old_weight));
        ops.add_node += 1;
        ops.add_conn += 2;
    }

    /// Adds a new connection between two previously unconnected nodes,
    /// keeping the graph acyclic (inference must remain "processing an
    /// acyclic directed graph").
    pub fn mutate_add_conn(&mut self, rng: &mut XorWow, ops: &mut OpCounters) {
        let num_sources = self.nodes.len();
        let num_sinks = self
            .nodes
            .iter()
            .filter(|n| n.node_type != NodeType::Input)
            .count();
        if num_sources == 0 || num_sinks == 0 {
            return;
        }
        // Bounded retry: candidate pairs may be duplicates or create cycles.
        for _ in 0..16 {
            let src = self.nodes[rng.below(num_sources)].id;
            let sink_pick = rng.below(num_sinks);
            // Sorted node cluster: inputs fill positions 0..num_inputs
            // (validate guarantees ids 0..num_inputs+num_outputs are all
            // present), so the `sink_pick`-th non-input gene sits at a
            // fixed offset — O(1), same draw, same selection as the
            // filter/nth scan this replaces.
            let dst = self.nodes[self.num_inputs + sink_pick].id;
            debug_assert_ne!(
                self.nodes[self.num_inputs + sink_pick].node_type,
                NodeType::Input
            );
            if src == dst {
                continue;
            }
            let key = ConnKey::new(src, dst);
            match self.conn_pos(key) {
                Ok(i) => {
                    if !self.conns[i].enabled {
                        self.conns[i].enabled = true;
                        ops.perturb += 1;
                        return;
                    }
                }
                Err(i) => {
                    if self.would_create_cycle(src, dst) {
                        continue;
                    }
                    let weight = rng.uniform(-1.0, 1.0);
                    self.conns.insert(i, ConnGene::new(src, dst, weight));
                    ops.add_conn += 1;
                    return;
                }
            }
        }
    }

    /// Deletes a random hidden node and every connection touching it,
    /// respecting the per-generation deletion ceiling
    /// ([`NeatConfig::node_delete_limit`]) the hardware enforces to "keep
    /// the genome alive".
    pub fn mutate_delete_node(
        &mut self,
        config: &NeatConfig,
        rng: &mut XorWow,
        ops: &mut OpCounters,
    ) {
        if ops.delete_node as usize >= config.node_delete_limit {
            return;
        }
        // Sorted node cluster with the full interface present ⇒ hidden
        // genes are exactly the tail past the inputs and outputs.
        let interface = self.num_inputs + self.num_outputs;
        let hidden = self.nodes.len().saturating_sub(interface);
        if hidden == 0 {
            return;
        }
        let pick = rng.below(hidden);
        let pos = interface + pick;
        let victim = self.nodes[pos].id;
        debug_assert_eq!(self.nodes[pos].node_type, NodeType::Hidden);
        self.nodes.remove(pos);
        // Pruning "dangling connections" is exactly what the hardware does
        // by comparing stored deleted-node IDs against the conn stream.
        let before = self.conns.len();
        self.conns
            .retain(|c| c.key.src != victim && c.key.dst != victim);
        ops.delete_node += 1;
        ops.delete_conn += (before - self.conns.len()) as u64;
    }

    /// Deletes a random connection gene.
    pub fn mutate_delete_conn(&mut self, rng: &mut XorWow, ops: &mut OpCounters) {
        if self.conns.is_empty() {
            return;
        }
        let pick = rng.below(self.conns.len());
        self.conns.remove(pick);
        ops.delete_conn += 1;
    }

    /// Would inserting `src -> dst` create a cycle? (Is `src` reachable
    /// from `dst` through existing connections?)
    pub fn would_create_cycle(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        let mut adjacency: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for conn in &self.conns {
            adjacency
                .entry(conn.key.src)
                .or_default()
                .push(conn.key.dst);
        }
        let mut stack = vec![dst];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == src {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adjacency.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    // ------------------------------------------------------------ crossover

    /// Produces a child by crossing two parents, `parent1` being the fitter
    /// one. Matching genes take each *attribute* independently from either
    /// parent with probability `bias` of favouring `parent1` (the
    /// programmable bias of the hardware Crossover Engine; default 0.5);
    /// disjoint and excess genes come from the fitter parent, as in classic
    /// NEAT. Crossover op counts are recorded into `ops`.
    pub fn crossover(
        key: u64,
        parent1: &Genome,
        parent2: &Genome,
        bias: f64,
        rng: &mut XorWow,
        ops: &mut OpCounters,
    ) -> Genome {
        let mut child = Genome::shell();
        Genome::crossover_into(&mut child, key, parent1, parent2, bias, rng, ops);
        child
    }

    /// [`Genome::crossover`] writing the child into an existing genome's
    /// buffers (cleared, capacity retained) — the arena fast path. The two
    /// sorted parent gene streams are merge-joined exactly as the hardware
    /// Gene Split block aligns them, so the per-gene PRNG draw order is
    /// identical to the map-based implementation this replaced.
    pub fn crossover_into(
        child: &mut Genome,
        key: u64,
        parent1: &Genome,
        parent2: &Genome,
        bias: f64,
        rng: &mut XorWow,
        ops: &mut OpCounters,
    ) {
        debug_assert_eq!(parent1.num_inputs, parent2.num_inputs);
        debug_assert_eq!(parent1.num_outputs, parent2.num_outputs);
        child.key = key;
        child.num_inputs = parent1.num_inputs;
        child.num_outputs = parent1.num_outputs;
        child.fitness = None;
        child.nodes.clear();
        child.conns.clear();
        child.nodes.reserve(parent1.nodes.len());
        child.conns.reserve(parent1.conns.len());

        let mut j = 0usize;
        for n1 in &parent1.nodes {
            while j < parent2.nodes.len() && parent2.nodes[j].id < n1.id {
                j += 1;
            }
            let gene = if j < parent2.nodes.len() && parent2.nodes[j].id == n1.id {
                // Per-attribute cherry-pick, one PRNG draw per attribute
                // (the four comparators of the Crossover Engine).
                let n2 = &parent2.nodes[j];
                let mut c = *n1;
                if !rng.chance(bias) {
                    c.bias = n2.bias;
                }
                if !rng.chance(bias) {
                    c.response = n2.response;
                }
                if !rng.chance(bias) {
                    c.activation = n2.activation;
                }
                if !rng.chance(bias) {
                    c.aggregation = n2.aggregation;
                }
                c
            } else {
                *n1 // disjoint/excess: fitter parent wins
            };
            child.nodes.push(gene);
            ops.crossover += 1;
        }

        let mut j = 0usize;
        for c1 in &parent1.conns {
            while j < parent2.conns.len() && parent2.conns[j].key < c1.key {
                j += 1;
            }
            let gene = if j < parent2.conns.len() && parent2.conns[j].key == c1.key {
                let c2 = &parent2.conns[j];
                let mut c = *c1;
                if !rng.chance(bias) {
                    c.weight = c2.weight;
                }
                if !rng.chance(bias) {
                    c.enabled = c2.enabled;
                }
                c
            } else {
                *c1
            };
            // A gene inherited from parent2's attribute mix always has
            // parent1's key, and parent1 contains both endpoints.
            child.conns.push(gene);
            ops.crossover += 1;
        }
    }

    // ------------------------------------------------------------- distance

    /// Compatibility distance used for speciation (Section II-D), following
    /// the `neat-python` formulation: node distance plus connection
    /// distance, each `(weight_coeff * Σ attribute distance of matching
    /// genes + disjoint_coeff * #non-matching) / max gene count`.
    ///
    /// Implemented as a merge-join over the two sorted gene streams
    /// ([`crate::arena::gene_distance`], shared with the flat population
    /// arena's [`crate::arena::GenomeView`]); the accumulation order
    /// (ascending key order of `other`) is identical to the map-based
    /// implementation, so distances are bit-identical.
    pub fn distance(&self, other: &Genome, config: &NeatConfig) -> f64 {
        crate::arena::gene_distance(&self.nodes, &self.conns, &other.nodes, &other.conns, config)
    }
}

/// Sorts `genes` by `key`, keeping only the last gene of each repeated key
/// (what inserting them one at a time into a sorted cluster leaves). A
/// list that is already strictly sorted is left untouched.
fn sort_last_wins<T, K: Ord>(genes: &mut Vec<T>, key: impl Fn(&T) -> K) {
    if genes.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return;
    }
    // Reversed first, the stable sort leads each run of equal keys with
    // the gene that came last, and `dedup_by` keeps the first of a run.
    genes.reverse();
    genes.sort_by_key(&key);
    genes.dedup_by(|a, b| key(a) == key(b));
}

/// Visits the geometric-skip hit positions of a Bernoulli(`rate`) process
/// over `len` items in strictly increasing order: one uniform draw inverts
/// the geometric CDF (`skip = ⌊ln(1-u)/ln(1-rate)⌋`) and the walk jumps
/// straight to the next hit, so the cost is O(hits) rather than O(len).
/// `rate <= 0` consumes no draws; `rate >= 1` visits every item without
/// drawing (the coin flip would succeed surely anyway).
///
/// Each visited index has marginal probability exactly `rate` of being
/// hit, matching a per-item coin flip in distribution; the PRNG words
/// consumed differ from the coin-flip stream by construction.
fn geometric_hits(
    rng: &mut XorWow,
    rate: f64,
    len: usize,
    mut visit: impl FnMut(&mut XorWow, usize),
) {
    if len == 0 || rate <= 0.0 {
        return;
    }
    if rate >= 1.0 {
        for i in 0..len {
            visit(rng, i);
        }
        return;
    }
    // ln(1-rate) < 0; ln(1-u) ≤ 0 for u ∈ [0,1) ⇒ skip ≥ 0. The f64→usize
    // cast saturates, so a tiny (1-u) cannot overflow — it just ends the
    // walk past `len`.
    let denom = (1.0 - rate).ln();
    let mut i = 0usize;
    while i < len {
        let u = rng.next_f64();
        let skip = ((1.0 - u).ln() / denom) as usize;
        i = i.saturating_add(skip);
        if i >= len {
            return;
        }
        visit(rng, i);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::innovation::InnovationTracker;

    fn cfg() -> NeatConfig {
        NeatConfig::builder(3, 2).build().unwrap()
    }

    fn rng() -> XorWow {
        XorWow::seed_from_u64_value(12345)
    }

    #[test]
    fn initial_genome_is_fully_connected_with_zero_weights() {
        let c = cfg();
        let g = Genome::initial(0, &c, &mut rng());
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_conns(), 6);
        assert!(g.conns().all(|conn| conn.weight == 0.0 && conn.enabled));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn initial_genome_uniform_weights_in_range() {
        let mut c = cfg();
        c.initial_weights = InitialWeights::Uniform { lo: -2.0, hi: 2.0 };
        let g = Genome::initial(0, &c, &mut rng());
        assert!(g.conns().all(|conn| (-2.0..2.0).contains(&conn.weight)));
    }

    #[test]
    fn memory_footprint_is_eight_bytes_per_gene() {
        let g = Genome::initial(0, &cfg(), &mut rng());
        assert_eq!(g.memory_bytes(), g.num_genes() * 8);
    }

    #[test]
    fn genes_iterate_in_ascending_key_order() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        let mut ops = OpCounters::new();
        for _ in 0..30 {
            g.mutate(&c, &mut innov, &mut r, &mut ops);
        }
        let ids: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "node cluster sorted");
        let keys: Vec<ConnKey> = g.conns().map(|c| c.key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "conn cluster sorted");
    }

    #[test]
    fn clone_from_reuses_buffers_and_matches_clone() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(7, &c, &mut r);
        let mut ops = OpCounters::new();
        g.mutate_add_node(&mut innov, &mut r, &mut ops);
        g.set_fitness(4.5);
        let mut target = Genome::shell();
        target.clone_from(&g);
        assert_eq!(target, g);
        assert_eq!(target.fitness(), Some(4.5));
    }

    #[test]
    fn add_node_splits_a_connection() {
        let c = cfg();
        let mut g = Genome::initial(0, &c, &mut rng());
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        let before_conns = g.num_conns();
        g.mutate_add_node(&mut innov, &mut rng(), &mut ops);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_conns(), before_conns + 2);
        assert_eq!(ops.add_node, 1);
        assert_eq!(ops.add_conn, 2);
        assert_eq!(g.conns().filter(|c| !c.enabled).count(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn add_conn_keeps_graph_acyclic() {
        let c = cfg();
        let mut g = Genome::initial(0, &c, &mut rng());
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        let mut r = rng();
        for _ in 0..50 {
            g.mutate_add_node(&mut innov, &mut r, &mut ops);
            g.mutate_add_conn(&mut r, &mut ops);
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn delete_node_prunes_dangling_connections() {
        let c = cfg();
        let mut g = Genome::initial(0, &c, &mut rng());
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        let mut r = rng();
        g.mutate_add_node(&mut innov, &mut r, &mut ops);
        assert_eq!(g.hidden_node_ids().len(), 1);
        g.mutate_delete_node(&c, &mut r, &mut ops);
        assert_eq!(g.hidden_node_ids().len(), 0);
        assert!(g.validate().is_ok(), "no dangling connections may remain");
        assert_eq!(ops.delete_node, 1);
        assert!(ops.delete_conn >= 2);
    }

    #[test]
    fn delete_node_respects_limit() {
        let mut c = cfg();
        c.node_delete_limit = 0;
        let mut g = Genome::initial(0, &c, &mut rng());
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        let mut r = rng();
        g.mutate_add_node(&mut innov, &mut r, &mut ops);
        let nodes_before = g.num_nodes();
        ops = OpCounters::new();
        g.mutate_delete_node(&c, &mut r, &mut ops);
        assert_eq!(g.num_nodes(), nodes_before, "limit 0 forbids deletion");
    }

    #[test]
    fn delete_conn_removes_one() {
        let mut g = Genome::initial(0, &cfg(), &mut rng());
        let before = g.num_conns();
        let mut ops = OpCounters::new();
        g.mutate_delete_conn(&mut rng(), &mut ops);
        assert_eq!(g.num_conns(), before - 1);
        assert_eq!(ops.delete_conn, 1);
    }

    #[test]
    fn crossover_of_identical_parents_is_identity_structure() {
        let c = cfg();
        let p = Genome::initial(7, &c, &mut rng());
        let mut ops = OpCounters::new();
        let child = Genome::crossover(8, &p, &p, 0.5, &mut rng(), &mut ops);
        assert_eq!(child.num_nodes(), p.num_nodes());
        assert_eq!(child.num_conns(), p.num_conns());
        assert_eq!(ops.crossover as usize, p.num_genes());
        assert!(child.validate().is_ok());
    }

    #[test]
    fn crossover_takes_disjoint_from_fitter_parent() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        let base = Genome::initial(0, &c, &mut r);
        let mut fit = base.clone();
        fit.mutate_add_node(&mut innov, &mut r, &mut ops);
        // fit has extra structure; base does not.
        let child = Genome::crossover(1, &fit, &base, 0.5, &mut r, &mut ops);
        assert_eq!(child.num_nodes(), fit.num_nodes());
        assert_eq!(child.num_conns(), fit.num_conns());
        let child2 = Genome::crossover(2, &base, &fit, 0.5, &mut r, &mut ops);
        assert_eq!(child2.num_nodes(), base.num_nodes());
    }

    #[test]
    fn crossover_bias_one_copies_parent1_attributes() {
        let c = cfg();
        let mut r = rng();
        let mut p1 = Genome::initial(0, &c, &mut r);
        let mut p2 = Genome::initial(1, &c, &mut r);
        let mut ops = OpCounters::new();
        p1.mutate_attributes(&c, &mut r, &mut ops);
        p2.mutate_attributes(&c, &mut r, &mut ops);
        let child = Genome::crossover(2, &p1, &p2, 1.0, &mut r, &mut ops);
        for conn in child.conns() {
            assert_eq!(conn.weight, p1.conn(conn.key).unwrap().weight);
        }
    }

    #[test]
    fn crossover_into_reused_buffers_matches_fresh_child() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        let mut p1 = Genome::initial(0, &c, &mut r);
        let mut p2 = Genome::initial(1, &c, &mut r);
        p1.mutate_add_node(&mut innov, &mut r, &mut ops);
        p2.mutate_attributes(&c, &mut r, &mut ops);
        // Same draws, one into a dirty reused buffer, one fresh.
        let mut ra = XorWow::seed_from_u64_value(9);
        let mut rb = XorWow::seed_from_u64_value(9);
        let fresh = Genome::crossover(5, &p1, &p2, 0.5, &mut ra, &mut ops);
        let mut reused = Genome::initial(99, &c, &mut r); // dirty buffers
        Genome::crossover_into(&mut reused, 5, &p1, &p2, 0.5, &mut rb, &mut ops);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn remap_new_nodes_restores_sorted_order() {
        use crate::innovation::{SplitRecorder, PROVISIONAL_NODE_BASE};
        let c = cfg();
        let mut r = rng();
        let mut ops = OpCounters::new();
        let mut recorder = SplitRecorder::new();
        let mut g = Genome::initial(0, &c, &mut r);
        g.mutate_add_node(&mut recorder, &mut r, &mut ops);
        g.mutate_add_node(&mut recorder, &mut r, &mut ops);
        assert!(g.max_node_id() >= PROVISIONAL_NODE_BASE);
        // Resolve through a real tracker, as the serial pass would.
        let mut tracker = InnovationTracker::new(c.first_hidden_id());
        let map: Vec<(NodeId, NodeId)> = recorder
            .requests()
            .iter()
            .map(|&(key, provisional)| (provisional, tracker.node_for_split(key)))
            .collect();
        g.remap_new_nodes(&map);
        assert!(g.max_node_id() < PROVISIONAL_NODE_BASE);
        assert!(g.validate().is_ok());
        let ids: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn distance_zero_for_identical_and_positive_for_diverged() {
        let c = cfg();
        let mut r = rng();
        let g1 = Genome::initial(0, &c, &mut r);
        assert_eq!(g1.distance(&g1.clone(), &c), 0.0);
        let mut g2 = g1.clone();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut ops = OpCounters::new();
        g2.mutate_add_node(&mut innov, &mut r, &mut ops);
        g2.mutate_attributes(&c, &mut r, &mut ops);
        let d = g1.distance(&g2, &c);
        assert!(d > 0.0);
        assert!(
            (g1.distance(&g2, &c) - g2.distance(&g1, &c)).abs() < 1e-12,
            "symmetric"
        );
    }

    #[test]
    fn from_parts_rejects_dangling_connection() {
        let c = cfg();
        let g = Genome::initial(0, &c, &mut rng());
        let nodes: Vec<NodeGene> = g.nodes().copied().collect();
        let mut conns: Vec<ConnGene> = g.conns().copied().collect();
        conns.push(ConnGene::new(NodeId(0), NodeId(99), 1.0));
        let err = Genome::from_parts(1, 3, 2, nodes, conns).unwrap_err();
        assert!(matches!(
            err,
            GenomeError::DanglingConnection { dst: 99, .. }
        ));
    }

    #[test]
    fn from_parts_rejects_connection_into_input() {
        let c = cfg();
        let g = Genome::initial(0, &c, &mut rng());
        let nodes: Vec<NodeGene> = g.nodes().copied().collect();
        let mut conns: Vec<ConnGene> = g.conns().copied().collect();
        conns.push(ConnGene::new(NodeId(3), NodeId(0), 1.0));
        let err = Genome::from_parts(1, 3, 2, nodes, conns).unwrap_err();
        assert!(matches!(err, GenomeError::ConnectionIntoInput { dst: 0 }));
    }

    #[test]
    fn from_parts_rejects_cycle() {
        let c = cfg();
        let g = Genome::initial(0, &c, &mut rng());
        let mut nodes: Vec<NodeGene> = g.nodes().copied().collect();
        nodes.push(NodeGene::hidden(NodeId(10)));
        nodes.push(NodeGene::hidden(NodeId(11)));
        let mut conns: Vec<ConnGene> = g.conns().copied().collect();
        conns.push(ConnGene::new(NodeId(10), NodeId(11), 1.0));
        conns.push(ConnGene::new(NodeId(11), NodeId(10), 1.0));
        let err = Genome::from_parts(1, 3, 2, nodes, conns).unwrap_err();
        assert_eq!(err, GenomeError::Cycle);
    }

    #[test]
    fn from_parts_rejects_missing_interface() {
        let c = cfg();
        let g = Genome::initial(0, &c, &mut rng());
        let nodes: Vec<NodeGene> = g.nodes().skip(1).copied().collect();
        let err = Genome::from_parts(1, 3, 2, nodes, Vec::new()).unwrap_err();
        assert_eq!(err, GenomeError::MissingInterfaceNode { id: 0 });
    }

    #[test]
    fn from_parts_last_duplicate_wins() {
        let c = cfg();
        let g = Genome::initial(0, &c, &mut rng());
        let nodes: Vec<NodeGene> = g.nodes().copied().collect();
        let mut conns: Vec<ConnGene> = g.conns().copied().collect();
        let mut dup = conns[0];
        dup.weight = 42.0;
        conns.push(dup);
        let rebuilt = Genome::from_parts(1, 3, 2, nodes, conns).unwrap();
        assert_eq!(rebuilt.num_conns(), g.num_conns());
        assert_eq!(rebuilt.conn(dup.key).unwrap().weight, 42.0);
    }

    #[test]
    fn full_mutate_preserves_invariants() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        for gen in 0..100 {
            let mut ops = OpCounters::new();
            innov.begin_generation();
            g.mutate(&c, &mut innov, &mut r, &mut ops);
            assert!(
                g.validate().is_ok(),
                "invariants violated at iteration {gen}"
            );
        }
    }

    #[test]
    fn geometric_skip_visits_are_increasing_and_in_range() {
        for seed in 0..200u64 {
            let mut r = XorWow::seed_from_u64_value(seed);
            let mut visited = Vec::new();
            geometric_hits(&mut r, 0.37, 64, |_, i| visited.push(i));
            assert!(visited.iter().all(|&i| i < 64));
            assert!(
                visited.windows(2).all(|w| w[0] < w[1]),
                "visit order must be strictly increasing: {visited:?}"
            );
        }
    }

    #[test]
    fn geometric_skip_edge_rates_are_exact() {
        // rate 0: nothing visited, no PRNG words consumed.
        let mut r = XorWow::seed_from_u64_value(5);
        let before = r.state();
        geometric_hits(&mut r, 0.0, 100, |_, _| panic!("rate 0 must not visit"));
        assert_eq!(r.state(), before, "rate 0 must not draw");
        // rate 1: every index visited exactly once, no selection draws.
        let mut visited = Vec::new();
        geometric_hits(&mut r, 1.0, 10, |_, i| visited.push(i));
        assert_eq!(visited, (0..10).collect::<Vec<_>>());
        assert_eq!(r.state(), before, "sure hits need no draws");
        // empty range: no draws at any rate.
        geometric_hits(&mut r, 0.5, 0, |_, _| panic!("empty range"));
        assert_eq!(r.state(), before);
    }

    /// Distribution-equivalence oracle for the geometric-skip sampler: the
    /// per-gene hit probability must match a per-gene Bernoulli coin flip.
    /// (The PRNG stream *shape* intentionally differs — one draw per hit
    /// instead of one per gene — which is the documented seed-derivation
    /// trade in `crate::reproduction`.)
    #[test]
    fn geometric_skip_matches_coin_flip_distribution() {
        const LEN: usize = 32;
        const TRIALS: u64 = 6000;
        const RATE: f64 = 0.3;
        let mut skip_hits = [0u64; LEN];
        let mut flip_hits = [0u64; LEN];
        for trial in 0..TRIALS {
            let mut r = XorWow::seed_from_u64_value(0xA5A5_0000 + trial);
            geometric_hits(&mut r, RATE, LEN, |_, i| skip_hits[i] += 1);
            let mut r = XorWow::seed_from_u64_value(0x5A5A_0000 + trial);
            for slot in flip_hits.iter_mut() {
                if r.chance(RATE) {
                    *slot += 1;
                }
            }
        }
        // ~3.5 sigma for Binomial(TRIALS, 0.3) is ±0.021; use ±0.03.
        for i in 0..LEN {
            let skip_p = skip_hits[i] as f64 / TRIALS as f64;
            let flip_p = flip_hits[i] as f64 / TRIALS as f64;
            assert!(
                (skip_p - RATE).abs() < 0.03,
                "index {i}: geometric-skip hit rate {skip_p} vs expected {RATE}"
            );
            assert!(
                (skip_p - flip_p).abs() < 0.045,
                "index {i}: skip {skip_p} vs coin flip {flip_p}"
            );
        }
    }

    /// The O(1) positional candidate selection in `mutate_add_conn` /
    /// `mutate_delete_node` relies on the sorted node cluster layout:
    /// inputs at 0..n_in, outputs next, hidden after. Heavy structural
    /// churn must preserve it.
    #[test]
    fn node_cluster_layout_supports_positional_selection() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        for _ in 0..60 {
            let mut ops = OpCounters::new();
            innov.begin_generation();
            g.mutate(&c, &mut innov, &mut r, &mut ops);
            let nodes = g.node_genes();
            assert!(nodes[..g.num_inputs()]
                .iter()
                .all(|n| n.node_type == NodeType::Input));
            assert!(nodes[g.num_inputs()..]
                .iter()
                .all(|n| n.node_type != NodeType::Input));
            assert!(nodes[g.num_inputs() + g.num_outputs()..]
                .iter()
                .all(|n| n.node_type == NodeType::Hidden));
        }
    }

    /// `from_parts` as it was before it collected gene lists in bulk: one
    /// sorted insert per gene, then the interface and edge checks by
    /// lookup and a cycle check through a `HashMap` of node positions.
    /// Kept as the oracle the bulk path must match gene for gene and
    /// error for error.
    fn insertion_oracle(
        num_inputs: usize,
        num_outputs: usize,
        nodes: &[NodeGene],
        conns: &[ConnGene],
    ) -> Result<Genome, GenomeError> {
        let mut genome = Genome {
            key: 1,
            nodes: Vec::new(),
            conns: Vec::new(),
            num_inputs,
            num_outputs,
            fitness: None,
        };
        for &n in nodes {
            genome.insert_node(n);
        }
        for &c in conns {
            genome.insert_conn(c);
        }
        for i in 0..(num_inputs + num_outputs) as u32 {
            if genome.node(NodeId(i)).is_none() {
                return Err(GenomeError::MissingInterfaceNode { id: i });
            }
        }
        for conn in &genome.conns {
            if genome.node(conn.key.src).is_none() || genome.node(conn.key.dst).is_none() {
                return Err(GenomeError::DanglingConnection {
                    src: conn.key.src.0,
                    dst: conn.key.dst.0,
                });
            }
            if genome.node_type(conn.key.dst) == Some(NodeType::Input) {
                return Err(GenomeError::ConnectionIntoInput {
                    dst: conn.key.dst.0,
                });
            }
        }
        let idx_of: HashMap<NodeId, usize> = genome
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.id, i))
            .collect();
        let mut indegree = vec![0usize; genome.nodes.len()];
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); genome.nodes.len()];
        for conn in &genome.conns {
            let (s, d) = (idx_of[&conn.key.src], idx_of[&conn.key.dst]);
            indegree[d] += 1;
            adjacency[s].push(d);
        }
        let mut queue: Vec<usize> = (0..genome.nodes.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut visited = 0usize;
        while let Some(n) = queue.pop() {
            visited += 1;
            for &m in &adjacency[n] {
                indegree[m] -= 1;
                if indegree[m] == 0 {
                    queue.push(m);
                }
            }
        }
        if visited != genome.nodes.len() {
            return Err(GenomeError::Cycle);
        }
        Ok(genome)
    }

    /// A genome after `rounds` passes of the full mutation suite.
    fn evolved(seed: u64, rounds: usize) -> Genome {
        let c = cfg();
        let mut r = XorWow::seed_from_u64_value(seed);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        let mut ops = OpCounters::new();
        for _ in 0..rounds {
            innov.begin_generation();
            g.mutate(&c, &mut innov, &mut r, &mut ops);
        }
        g
    }

    /// `genes` with about a third of them repeated, then shuffled; `tweak`
    /// changes each repeat, so which copy wins is visible.
    fn scrambled<T: Copy>(genes: &[T], r: &mut XorWow, tweak: impl Fn(&mut T)) -> Vec<T> {
        let mut out = genes.to_vec();
        for &g in genes {
            if r.chance(0.35) {
                let mut repeat = g;
                tweak(&mut repeat);
                out.push(repeat);
            }
        }
        for i in (1..out.len()).rev() {
            out.swap(i, r.below(i + 1));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn from_parts_matches_the_insertion_oracle(
            seed in 0u64..u64::MAX,
            rounds in 0usize..40,
            fault in 0u8..6,
        ) {
            let g = evolved(seed, rounds);
            let mut r = XorWow::seed_from_u64_value(seed ^ 0x5EED);
            let (mut nodes, mut conns) = if fault == 0 {
                // Already sorted and unique: kept as is.
                (g.nodes.clone(), g.conns.clone())
            } else {
                (
                    scrambled(&g.nodes, &mut r, |n| n.bias += 1.0),
                    scrambled(&g.conns, &mut r, |c| c.weight -= 1.0),
                )
            };
            let first_hidden = cfg().first_hidden_id();
            let expected = match fault {
                2 => {
                    let src = r.below(3) as u32;
                    let dst = g.max_node_id() + 1 + r.below(3) as u32;
                    conns.push(ConnGene::new(NodeId(src), NodeId(dst), 1.0));
                    Some(GenomeError::DanglingConnection { src, dst })
                }
                3 => {
                    let src = g.nodes[3 + r.below(g.num_nodes() - 3)].id;
                    conns.insert(r.below(conns.len() + 1), ConnGene::new(src, NodeId(1), 1.0));
                    Some(GenomeError::ConnectionIntoInput { dst: 1 })
                }
                4 => {
                    // Close a cycle: reverse an edge leaving a hidden node,
                    // or loop an output onto itself.
                    let back = g
                        .conns
                        .iter()
                        .find(|c| c.key.src.0 >= first_hidden)
                        .map_or(ConnKey::new(NodeId(3), NodeId(3)), |c| {
                            ConnKey::new(c.key.dst, c.key.src)
                        });
                    conns.push(ConnGene::new(back.src, back.dst, 1.0));
                    Some(GenomeError::Cycle)
                }
                5 => {
                    let id = NodeId(r.below(5) as u32);
                    nodes.retain(|n| n.id != id);
                    Some(GenomeError::MissingInterfaceNode { id: id.0 })
                }
                _ => None,
            };
            let oracle = insertion_oracle(3, 2, &nodes, &conns);
            let bulk = Genome::from_parts(1, 3, 2, nodes, conns);
            proptest::prop_assert_eq!(&bulk, &oracle);
            proptest::prop_assert_eq!(bulk.err(), expected);
        }
    }

    #[test]
    fn max_node_id_tracks_additions() {
        let c = cfg();
        let mut r = rng();
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        assert_eq!(g.max_node_id(), 4);
        let mut ops = OpCounters::new();
        g.mutate_add_node(&mut innov, &mut r, &mut ops);
        assert_eq!(g.max_node_id(), 5);
    }
}
