//! Feed-forward phenotype of a genome, compiled into a flat evaluation plan.
//!
//! NEAT phenotypes are irregular acyclic graphs, not layered MLPs. This
//! module compiles a [`Genome`] into an evaluation plan: nodes sorted into
//! **topological wavefronts** (every node's enabled predecessors live in
//! strictly earlier wavefronts). Wavefronts serve two purposes:
//!
//! 1. Software evaluation ([`Network::activate_in_place`]) walks them in
//!    order.
//! 2. They are exactly the "well formed input vectors" the paper's
//!    vectorize routine packs for ADAM's systolic array (Section IV-D) —
//!    `genesys-core` consumes the compiled plan directly through
//!    [`Network::layer_eval_ranges`] / [`Network::incoming_edges`] for its
//!    cycle model.
//!
//! # The compiled plan
//!
//! The plan is structure-of-arrays, mirroring how EvE/ADAM execute
//! gene-level operations out of fixed buffers with no heap: per non-input
//! node, parallel arrays hold the value slot, bias, response, activation
//! and aggregation, and one flat CSR-style `(source slot, weight)` edge
//! array with per-node offsets replaces the nested `Vec`-of-`Vec`s an
//! interpreter would chase. Aggregation is folded directly into the edge
//! walk, so no per-node temporary is materialized.
//!
//! # Zero-allocation evaluation and the determinism contract
//!
//! [`Network::activate_in_place`] is the one evaluation loop, and it
//! performs **no heap allocation in steady state**: all mutable state
//! lives in a caller-owned [`Scratch`] whose buffers grow to the largest
//! network evaluated through them and are then reused — including
//! [`Aggregation::Median`] nodes, whose sort runs in place inside the
//! scratch buffer at any fan-in.
//!
//! The scratch's value slots are never zero-filled. Two facts make that
//! safe:
//!
//! - **Input slots** hold whatever the caller last wrote through
//!   [`Scratch::input_slots`]. Evaluation never writes them, so an
//!   environment can write each observation straight into them
//!   (`genesys_gym::episode_into`), and padding a caller zeroes once stays
//!   zero across calls.
//! - **Non-input slots** are each written in their wavefront before any
//!   later wavefront reads them, so a stale value from an earlier call or
//!   a wider network is never read. [`LaneNetworks`] relies on the same
//!   fact for its per-lane value slots.
//!
//! [`Network::activate_into`] copies a caller's observation into the
//! input slots and then runs the same loop. The numerics are
//! **bit-identical** to the
//! retained reference interpreter ([`reference::activate`]) and to the
//! pre-compilation implementation: edges are walked in the same order the
//! genome stores them, and every aggregation fold uses the same operation
//! order, so fitness values are reproducible across the compiled and
//! interpreted paths and across any worker count (see
//! `crate::executor`'s determinism contract).
//!
//! # Lockstep lanes
//!
//! [`LaneNetworks`] evaluates up to [`LANES`] networks of *different*
//! topologies at once (a population's genomes, one observation each).
//! Each lane holds a flat program copied from its compiled [`Network`]
//! once, when the lane takes a genome: one record per node (slot, edge
//! range, bias, response, activation, aggregation), the lane's edges, its
//! value slots and its output slots. Evaluation walks the lanes rank by
//! rank — node `r` of every lane, then node `r + 1` — with the aggregation
//! fold [`Network::activate_in_place`] uses, so every lane is
//! bit-identical to it. Once its records have grown, it allocates nothing.

use crate::activation::Activation;
use crate::aggregation::Aggregation;
use crate::error::GenomeError;
use crate::gene::{NodeId, NodeType};
use crate::genome::Genome;
use std::collections::HashMap;

/// Reusable evaluation workspace for [`Network::activate_in_place`] and
/// [`Network::activate_into`].
///
/// # Ownership rules
///
/// A `Scratch` is plain mutable state with no ties to any particular
/// network: one instance may be reused across calls, episodes and
/// networks of different sizes (buffers grow to the largest network seen
/// and are retained). It must not be shared between concurrent
/// evaluations — give each worker thread its own (e.g. via
/// `crate::executor::WorkerLocal`).
///
/// The buffers are never zero-filled between calls. A network's input
/// slots ([`Scratch::input_slots`]) hold whatever the caller last wrote
/// there: evaluation reads them and never writes them. Every other slot
/// is written before it is read within a call, so nothing else carries
/// over: reuse affects performance only, never results.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Node value slots (at least `Network::total_slots` entries while
    /// evaluating; input `i` is slot `i`).
    values: Vec<f64>,
    /// Sort buffer for [`Aggregation::Median`] nodes.
    sorted: Vec<f64>,
}

impl Scratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Grows the value buffer to fit `net` and returns `net`'s input slots,
    /// for the caller to write an observation into before
    /// [`Network::activate_in_place`]. Nothing is zero-filled: the slots
    /// hold whatever was last written to them, and evaluation never writes
    /// them.
    pub fn input_slots(&mut self, net: &Network) -> &mut [f64] {
        if self.values.len() < net.total_slots {
            self.values.resize(net.total_slots, 0.0);
        }
        &mut self.values[..net.num_inputs]
    }
}

/// Most networks one [`LaneNetworks`] evaluates at once.
pub const LANES: usize = 16;

/// One compiled node of a lane program: [`Network`]'s per-node plan
/// arrays gathered into one record.
#[derive(Debug, Clone, Copy)]
struct LaneNode {
    /// Value slot the node writes.
    slot: usize,
    /// The node's edges are `edges[start..end]` of its lane program.
    start: usize,
    end: usize,
    bias: f64,
    response: f64,
    activation: Activation,
    aggregation: Aggregation,
}

/// One lane's flat program, copied from a compiled [`Network`].
#[derive(Debug, Clone, Default)]
struct LaneProgram {
    num_inputs: usize,
    /// Node records in [`Network::activate_in_place`]'s order.
    nodes: Vec<LaneNode>,
    /// `(source value slot, weight)` edges, node after node.
    edges: Vec<(usize, f64)>,
    /// Value slots; input `i` is slot `i`.
    values: Vec<f64>,
    output_slots: Vec<usize>,
}

/// Up to [`LANES`] networks evaluated in lockstep, one observation each.
///
/// [`LaneNetworks::load`] copies a compiled network into a lane's flat
/// program; the caller then writes each observation into the lane's
/// input slots ([`LaneNetworks::input_slots`]), runs
/// [`LaneNetworks::activate`] over the live lanes and reads
/// [`LaneNetworks::output`]. [`LaneNetworks::swap`] exchanges two lanes'
/// programs, value slots included, so a caller can compact its live
/// lanes into a prefix. Lanes may differ in topology and in interface.
///
/// Activation walks the live lanes rank by rank: node `r` of lane 0, of
/// lane 1, …, then node `r + 1`. A lane's node waits on its earlier nodes
/// (fold, then the activation's `exp`), but the lanes of one rank are
/// independent, so the core overlaps their chains instead of running one
/// network's chain end to end. Each lane evaluates its nodes in
/// [`Network::activate_in_place`]'s order with the same fold, so every
/// lane is **bit-identical** to it on the same observation.
///
/// # Ownership rules
///
/// Those of [`Scratch`]: reuse one instance across calls, lane counts and
/// networks of any size; never share it between concurrent evaluations.
/// The value slots are never zero-filled: input slots hold what the
/// caller last wrote, and every other slot is written before it is read.
/// Every lane's record is reserved to the largest node, edge, slot and
/// output counts any lane has held, so once each network of a run has
/// been loaded, loading them again — into any lane, after any swaps —
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct LaneNetworks {
    lanes: [LaneProgram; LANES],
    /// The largest node, edge, slot and output counts any lane has held.
    capacity: [usize; 4],
    /// Sort buffer for [`Aggregation::Median`] nodes.
    sorted: Vec<f64>,
}

impl Default for LaneNetworks {
    fn default() -> LaneNetworks {
        LaneNetworks::new()
    }
}

impl LaneNetworks {
    /// Creates empty lanes (records grow on first load).
    pub fn new() -> LaneNetworks {
        LaneNetworks {
            lanes: std::array::from_fn(|_| LaneProgram::default()),
            capacity: [0; 4],
            sorted: Vec::new(),
        }
    }

    /// Copies `net`'s compiled program into lane `lane`, replacing what
    /// the lane held. The lane's input slots are left as they were, or
    /// zero where the lane had fewer slots.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn load(&mut self, lane: usize, net: &Network) {
        let counts = [
            net.slots.len(),
            net.edges.len(),
            net.total_slots,
            net.output_slots.len(),
        ];
        if counts.iter().zip(&self.capacity).any(|(n, c)| n > c) {
            for (c, n) in self.capacity.iter_mut().zip(counts) {
                *c = (*c).max(n);
            }
            let [nodes, edges, slots, outputs] = self.capacity;
            for program in &mut self.lanes {
                reserve_total(&mut program.nodes, nodes);
                reserve_total(&mut program.edges, edges);
                reserve_total(&mut program.values, slots);
                reserve_total(&mut program.output_slots, outputs);
            }
        }
        let program = &mut self.lanes[lane];
        program.num_inputs = net.num_inputs;
        program.nodes.clear();
        program.nodes.extend((0..net.slots.len()).map(|i| LaneNode {
            slot: net.slots[i],
            start: net.edge_offsets[i],
            end: net.edge_offsets[i + 1],
            bias: net.biases[i],
            response: net.responses[i],
            activation: net.activations[i],
            aggregation: net.aggregations[i],
        }));
        program.edges.clear();
        program.edges.extend_from_slice(&net.edges);
        program.values.resize(net.total_slots, 0.0);
        program.output_slots.clear();
        program.output_slots.extend_from_slice(&net.output_slots);
    }

    /// Lane `lane`'s input slots, for the caller to write an observation
    /// into before [`LaneNetworks::activate`]. Evaluation never writes
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn input_slots(&mut self, lane: usize) -> &mut [f64] {
        let program = &mut self.lanes[lane];
        &mut program.values[..program.num_inputs]
    }

    /// Evaluates lanes `0..live` on the observations in their input
    /// slots, rank by rank (see the type docs). A lane that never held a
    /// network evaluates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `live > LANES`.
    pub fn activate(&mut self, live: usize) {
        let LaneNetworks { lanes, sorted, .. } = self;
        let lanes = &mut lanes[..live];
        let depth = lanes.iter().map(|p| p.nodes.len()).max().unwrap_or(0);
        for r in 0..depth {
            for LaneProgram {
                nodes,
                edges,
                values,
                ..
            } in lanes.iter_mut()
            {
                // A lane's nodes run in `activate_in_place`'s order, so each
                // non-input slot is written before a later node reads it.
                if let Some(&node) = nodes.get(r) {
                    let agg = fold(
                        node.aggregation,
                        &edges[node.start..node.end],
                        values,
                        sorted,
                    );
                    values[node.slot] = node.activation.apply(node.bias + node.response * agg);
                }
            }
        }
    }

    /// Output `o` (in output-id order) of lane `lane` after
    /// [`LaneNetworks::activate`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES` or `o` is not below the lane's output
    /// count.
    pub fn output(&self, lane: usize, o: usize) -> f64 {
        let program = &self.lanes[lane];
        program.values[program.output_slots[o]]
    }

    /// Exchanges lanes `a` and `b`: programs and value slots alike.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not below [`LANES`].
    pub fn swap(&mut self, a: usize, b: usize) {
        self.lanes.swap(a, b);
    }
}

/// Grows `v`'s capacity to at least `total` elements.
fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
    v.reserve(total.saturating_sub(v.len()));
}

/// Reusable compilation workspace for [`Network::compile_into`]: a
/// compiled [`Network`] plus every internal buffer the compiler needs.
///
/// Compiling a genome through a plan produces exactly the network
/// [`Network::from_genome`] would, but all buffers — the plan's SoA
/// arrays and the compiler's CSR adjacency / wavefront scratch — are
/// retained and reused across compiles, so recompiling a same-shaped
/// genome (an unchanged elite carried into the next generation) performs
/// **zero heap allocation** in steady state (proved by
/// `tests/zero_alloc.rs`).
///
/// # Ownership rules
///
/// Same as [`Scratch`]: one instance may be reused across genomes of any
/// shape (buffers grow to the largest genome seen), must not be shared
/// between concurrent compiles (give each worker its own, e.g. via
/// `crate::executor::WorkerLocal`), and carries no information between
/// calls — reuse affects performance only, never results.
#[derive(Debug, Clone, Default)]
pub struct NetworkPlan {
    /// The compiled network (meaningful after a successful compile).
    net: Network,
    /// Per-slot remaining in-degree during Kahn layering.
    indegree: Vec<usize>,
    /// CSR offsets into `out_targets` per source slot (`num_nodes + 1`).
    out_offsets: Vec<usize>,
    /// Destination slots of enabled edges, grouped by source slot.
    out_targets: Vec<usize>,
    /// CSR offsets into `in_edges` per destination slot (`num_nodes + 1`).
    in_offsets: Vec<usize>,
    /// `(source slot, weight)` edges grouped by destination slot, in
    /// genome connection order within each group.
    in_edges: Vec<(usize, f64)>,
    /// `(src slot, dst slot, weight)` per enabled connection, in genome
    /// connection order.
    conn_slots: Vec<(usize, usize, f64)>,
    /// CSR fill cursors.
    cursor: Vec<usize>,
    /// Current Kahn wavefront (slot indices; slot order == id order).
    frontier: Vec<usize>,
    /// Next Kahn wavefront.
    next: Vec<usize>,
    /// Layer vectors past the depth of the most recent compile, kept for
    /// the next deeper one.
    spare_layers: Vec<Vec<NodeId>>,
}

impl NetworkPlan {
    /// Creates an empty plan (buffers grow on first compile).
    pub fn new() -> NetworkPlan {
        NetworkPlan::default()
    }

    /// The most recently compiled network. A fresh plan holds an empty
    /// network; after a failed compile the contents are unspecified.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Consumes the plan, keeping only the compiled network.
    pub fn into_network(self) -> Network {
        self.net
    }
}

/// A compiled, immutable, reusable phenotype.
///
/// ```
/// use genesys_neat::{Genome, NeatConfig, Network, Scratch, XorWow};
/// let config = NeatConfig::builder(2, 1).build()?;
/// let genome = Genome::initial(0, &config, &mut XorWow::seed_from_u64_value(1));
/// let net = Network::from_genome(&genome)?;
/// // Allocation-free hot path: reuse the scratch and output buffers.
/// let mut scratch = Scratch::new();
/// let mut out = [0.0f64; 1];
/// net.activate_into(&mut scratch, &[0.5, -0.5], &mut out);
/// // Zero-copy form: write the observation into the input slots.
/// scratch.input_slots(&net).copy_from_slice(&[0.5, -0.5]);
/// let mut in_place = [0.0f64; 1];
/// net.activate_in_place(&mut scratch, &mut in_place);
/// assert_eq!(in_place, out);
/// // Convenience wrapper (allocates per call):
/// assert_eq!(net.activate(&[0.5, -0.5]), out);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    num_inputs: usize,
    num_outputs: usize,
    total_slots: usize,
    // ---- compiled plan: SoA over non-input nodes, topological order ----
    /// Value slot each eval node writes.
    slots: Vec<usize>,
    biases: Vec<f64>,
    responses: Vec<f64>,
    activations: Vec<Activation>,
    aggregations: Vec<Aggregation>,
    /// CSR offsets into `edges`: eval node `i` owns
    /// `edges[edge_offsets[i]..edge_offsets[i + 1]]`.
    edge_offsets: Vec<usize>,
    /// Flat `(source value slot, weight)` array for all enabled edges.
    edges: Vec<(usize, f64)>,
    /// Per-wavefront `(start, end)` ranges over the eval arrays (entry 0 is
    /// the input wavefront and covers only its source-free non-input nodes).
    layer_ranges: Vec<(usize, usize)>,
    output_slots: Vec<usize>,
    layers: Vec<Vec<NodeId>>,
    num_macs: u64,
}

impl Network {
    /// Compiles a genome into a network.
    ///
    /// Convenience wrapper over [`Network::compile_into`]: builds a fresh
    /// [`NetworkPlan`] per call. Hot loops that recompile genomes every
    /// generation (the evaluation fan-out) should hold a per-worker plan
    /// and call `compile_into` directly — recompiling a same-shaped genome
    /// through a warm plan allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::Cycle`] if the enabled connection graph is not
    /// acyclic (cannot happen for genomes produced by this crate, which
    /// maintain the feed-forward invariant, but hardware-decoded genomes go
    /// through here too).
    pub fn from_genome(genome: &Genome) -> Result<Network, GenomeError> {
        let mut plan = NetworkPlan::new();
        Network::compile_into(&mut plan, genome)?;
        Ok(plan.into_network())
    }

    /// Compiles `genome` into `plan`'s retained buffers — the buffer-reuse
    /// counterpart of [`Network::from_genome`], producing a bit-identical
    /// plan (same slots, edges, wavefronts and fold order) without the
    /// per-call HashMaps and `Vec`-of-`Vec` adjacency the one-shot
    /// compiler allocates. Node lookup is a binary search over the
    /// genome's id-sorted gene cluster; adjacency lives in two reusable
    /// CSR buffers filled in genome connection order. Input ids map
    /// straight to their slot (input `i` sits at position `i`, which
    /// [`Genome::validate`] enforces), so the search covers only the
    /// genes past the inputs.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::Cycle`] if the enabled connection graph is
    /// not acyclic. On error the plan's network contents are unspecified,
    /// but the plan itself stays reusable.
    pub fn compile_into(plan: &mut NetworkPlan, genome: &Genome) -> Result<(), GenomeError> {
        let nodes = genome.node_genes();
        let n = nodes.len();
        let num_inputs = genome.num_inputs();
        // The gene cluster is sorted by id, so slot order == id order:
        // input `i` is slot `i`, and any other id is a binary search over
        // the genes past the inputs (no hash map).
        let slot_of = |id: NodeId| -> usize {
            let id_value = id.0 as usize;
            if id_value < num_inputs {
                return id_value;
            }
            num_inputs
                + nodes[num_inputs..]
                    .binary_search_by_key(&id, |node| node.id)
                    .expect("validated genome: every edge endpoint is a node")
        };

        let NetworkPlan {
            net,
            indegree,
            out_offsets,
            out_targets,
            in_offsets,
            in_edges,
            conn_slots,
            cursor,
            frontier,
            next,
            spare_layers,
        } = plan;

        // Pass 1 over enabled connections: CSR histograms + slot/weight
        // triples (so pass 2 never re-searches the gene cluster).
        indegree.clear();
        indegree.resize(n, 0);
        out_offsets.clear();
        out_offsets.resize(n + 1, 0);
        in_offsets.clear();
        in_offsets.resize(n + 1, 0);
        conn_slots.clear();
        let mut num_macs = 0u64;
        for conn in genome.conns().filter(|c| c.enabled) {
            let src = slot_of(conn.key.src);
            let dst = slot_of(conn.key.dst);
            conn_slots.push((src, dst, conn.weight));
            out_offsets[src + 1] += 1;
            in_offsets[dst + 1] += 1;
            indegree[dst] += 1;
            num_macs += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }

        // Pass 2: stable CSR fills. Per-destination edge order is exactly
        // the genome's connection order (bit-identical aggregation folds
        // versus the reference interpreter).
        out_targets.clear();
        out_targets.resize(num_macs as usize, 0);
        in_edges.clear();
        in_edges.resize(num_macs as usize, (0, 0.0));
        cursor.clear();
        cursor.extend_from_slice(&out_offsets[..n]);
        for &(src, dst, _) in conn_slots.iter() {
            out_targets[cursor[src]] = dst;
            cursor[src] += 1;
        }
        cursor.clear();
        cursor.extend_from_slice(&in_offsets[..n]);
        for &(src, dst, weight) in conn_slots.iter() {
            in_edges[cursor[dst]] = (src, weight);
            cursor[dst] += 1;
        }

        // Reset the compiled arrays (capacity retained).
        net.slots.clear();
        net.biases.clear();
        net.responses.clear();
        net.activations.clear();
        net.aggregations.clear();
        net.edge_offsets.clear();
        net.edges.clear();
        net.layer_ranges.clear();
        net.output_slots.clear();
        net.edge_offsets.push(0);

        // Kahn wavefronts over slots. Sorting slots reproduces the NodeId
        // sort of the one-shot compiler (slot order == id order), and each
        // wavefront is flattened straight into the SoA plan. The two
        // wavefront buffers trade roles once per wavefront, so each holds
        // room for every slot; wavefront `w` reuses the layer vector the
        // previous compile left at depth `w`. Recompiling a genome through
        // the plan that compiled it therefore grows no buffer.
        frontier.clear();
        frontier.reserve(n);
        next.clear();
        next.reserve(n);
        for (slot, d) in indegree.iter().enumerate() {
            if *d == 0 {
                frontier.push(slot);
            }
        }
        let mut processed = 0usize;
        let mut depth = 0usize;
        while !frontier.is_empty() {
            next.clear();
            let start = net.slots.len();
            if depth == net.layers.len() {
                net.layers.push(spare_layers.pop().unwrap_or_default());
            }
            let layer = &mut net.layers[depth];
            layer.clear();
            for &slot in frontier.iter() {
                processed += 1;
                for &dst in &out_targets[out_offsets[slot]..out_offsets[slot + 1]] {
                    indegree[dst] -= 1;
                    if indegree[dst] == 0 {
                        next.push(dst);
                    }
                }
                let node = &nodes[slot];
                layer.push(node.id);
                if node.node_type == NodeType::Input {
                    continue;
                }
                net.slots.push(slot);
                net.biases.push(node.bias);
                net.responses.push(node.response);
                net.activations.push(node.activation);
                net.aggregations.push(node.aggregation);
                net.edges
                    .extend_from_slice(&in_edges[in_offsets[slot]..in_offsets[slot + 1]]);
                net.edge_offsets.push(net.edges.len());
            }
            net.layer_ranges.push((start, net.slots.len()));
            depth += 1;
            next.sort_unstable();
            std::mem::swap(frontier, next);
        }
        // Keep the layer vectors of a deeper earlier network for later.
        spare_layers.extend(net.layers.drain(depth..));
        if processed != n {
            return Err(GenomeError::Cycle);
        }

        net.num_inputs = genome.num_inputs();
        net.num_outputs = genome.num_outputs();
        net.total_slots = n;
        net.num_macs = num_macs;
        for o in 0..genome.num_outputs() {
            net.output_slots
                .push(slot_of(NodeId((genome.num_inputs() + o) as u32)));
        }
        // Input nodes occupy the first ids; slot i == input i.
        debug_assert!((0..num_inputs).all(|i| nodes[i].id == NodeId(i as u32)));
        Ok(())
    }

    /// Evaluates the network on the observation in `scratch`'s input
    /// slots ([`Scratch::input_slots`]), writing the output node values (in
    /// output-id order) into `outputs`. This is the one evaluation loop and
    /// the zero-allocation hot path: an environment writes each
    /// observation straight into the input slots, and `scratch` and
    /// `outputs` are reused across steps, episodes and networks. The input
    /// slots are read as they stand and never written.
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len()` differs from the genome's output count.
    pub fn activate_in_place(&self, scratch: &mut Scratch, outputs: &mut [f64]) {
        assert_eq!(
            outputs.len(),
            self.num_outputs,
            "output buffer size must match the genome interface"
        );
        // Grows the buffer to fit this network; the input slots keep what
        // the caller wrote.
        scratch.input_slots(self);
        let Scratch { values, sorted } = scratch;
        // Each non-input slot is written in its wavefront before a later
        // wavefront reads it, so stale contents are never read.
        for i in 0..self.slots.len() {
            let edges = &self.edges[self.edge_offsets[i]..self.edge_offsets[i + 1]];
            let agg = fold(self.aggregations[i], edges, values, sorted);
            values[self.slots[i]] =
                self.activations[i].apply(self.biases[i] + self.responses[i] * agg);
        }
        for (out, &slot) in outputs.iter_mut().zip(&self.output_slots) {
            *out = values[slot];
        }
    }

    /// Evaluates the network on one observation, writing the output node
    /// values (in output-id order) into `outputs`: copies `inputs` into
    /// `scratch`'s input slots, then runs [`Network::activate_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the genome's input count or
    /// `outputs.len()` from its output count.
    pub fn activate_into(&self, scratch: &mut Scratch, inputs: &[f64], outputs: &mut [f64]) {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "observation size must match the genome interface"
        );
        scratch.input_slots(self).copy_from_slice(inputs);
        self.activate_in_place(scratch, outputs);
    }

    /// Evaluates the network on one observation, returning the output node
    /// values in output-id order.
    ///
    /// Compatibility wrapper over [`Network::activate_into`]: allocates a
    /// fresh [`Scratch`] and output `Vec` per call. Hot loops should hold
    /// their own buffers and call `activate_into` directly.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the genome's input count.
    pub fn activate(&self, inputs: &[f64]) -> Vec<f64> {
        let mut scratch = Scratch::new();
        let mut outputs = vec![0.0f64; self.num_outputs];
        self.activate_into(&mut scratch, inputs, &mut outputs);
        outputs
    }

    /// Number of input nodes.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output nodes.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Topological wavefronts (layer 0 = inputs and source-free nodes).
    /// These are the vertex batches ADAM evaluates per matrix–vector pass.
    pub fn layers(&self) -> &[Vec<NodeId>] {
        &self.layers
    }

    /// Per-wavefront `(start, end)` index ranges over the compiled eval
    /// arrays, parallel to [`Network::layers`]. Entry 0 covers only the
    /// source-free **non-input** members of wavefront 0 (usually empty);
    /// for `l ≥ 1` the range length equals `layers()[l].len()`. This is
    /// the view `genesys-core`'s ADAM cycle model packs from.
    pub fn layer_eval_ranges(&self) -> &[(usize, usize)] {
        &self.layer_ranges
    }

    /// Number of compiled (non-input) nodes in the plan.
    pub fn num_eval_nodes(&self) -> usize {
        self.slots.len()
    }

    /// The `(source value slot, weight)` edges feeding compiled node
    /// `eval` (an index into the ranges of
    /// [`Network::layer_eval_ranges`]), in genome connection order.
    pub fn incoming_edges(&self, eval: usize) -> &[(usize, f64)] {
        &self.edges[self.edge_offsets[eval]..self.edge_offsets[eval + 1]]
    }

    /// Multiply-accumulate operations per inference (one per enabled
    /// connection) — the op count used by Table II and the Fig 9 cost
    /// models.
    pub fn num_macs(&self) -> u64 {
        self.num_macs
    }

    /// Total number of nodes (value slots).
    pub fn num_nodes(&self) -> usize {
        self.total_slots
    }
}

/// Aggregates one node's weighted inputs: `edges` are its `(source value
/// slot, weight)` pairs in genome connection order, read from `values`.
/// The one copy of the aggregation fold, shared by
/// [`Network::activate_in_place`] and [`LaneNetworks::activate`]: fold
/// order and empty cases match [`Aggregation::apply`] bit for bit.
#[inline(always)]
fn fold(
    aggregation: Aggregation,
    edges: &[(usize, f64)],
    values: &[f64],
    sorted: &mut Vec<f64>,
) -> f64 {
    if edges.is_empty() {
        return match aggregation {
            Aggregation::Product => 1.0,
            _ => 0.0,
        };
    }
    match aggregation {
        Aggregation::Sum => edges.iter().fold(0.0, |acc, &(s, w)| acc + w * values[s]),
        Aggregation::Product => edges.iter().fold(1.0, |acc, &(s, w)| acc * (w * values[s])),
        Aggregation::Max => edges.iter().fold(f64::NEG_INFINITY, |acc, &(s, w)| {
            f64::max(acc, w * values[s])
        }),
        Aggregation::Min => edges
            .iter()
            .fold(f64::INFINITY, |acc, &(s, w)| f64::min(acc, w * values[s])),
        Aggregation::Mean => {
            edges.iter().fold(0.0, |acc, &(s, w)| acc + w * values[s]) / edges.len() as f64
        }
        Aggregation::MaxAbs => edges.iter().fold(0.0, |best: f64, &(s, w)| {
            let v = w * values[s];
            if v.abs() > best.abs() {
                v
            } else {
                best
            }
        }),
        Aggregation::Median => {
            sorted.clear();
            sorted.extend(edges.iter().map(|&(s, w)| w * values[s]));
            median_in_place(sorted)
        }
    }
}

/// Median of `sorted`'s values, sorting them in place first. The sort is
/// a stable insertion sort in the caller's buffer: allocation-free at any
/// fan-in (stdlib `sort_by` allocates beyond its on-stack merge threshold)
/// and bit-identical to the reference's stable sort — `>` never reorders
/// ±0.0 ties or NaN, so even poisoned inputs degrade deterministically
/// instead of panicking.
fn median_in_place(sorted: &mut [f64]) -> f64 {
    for i in 1..sorted.len() {
        let mut j = i;
        while j > 0 && sorted[j - 1] > sorted[j] {
            sorted.swap(j - 1, j);
            j -= 1;
        }
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

pub mod reference {
    //! Reference interpreter retained as the oracle for the compiled plan.
    //!
    //! Evaluates a genome the way the pre-compilation `Network` did: walk
    //! the wavefronts, gather each node's weighted inputs into a temporary
    //! and apply [`Aggregation::apply`]. Slow and allocating by design —
    //! property tests assert the compiled SoA plan is bit-identical to
    //! this on arbitrary evolved genomes.

    use super::*;

    /// Evaluates `genome` on `inputs` without compiling a plan, returning
    /// the output node values in output-id order.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::Cycle`] if the enabled connection graph is
    /// cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the genome's input count.
    pub fn activate(genome: &Genome, inputs: &[f64]) -> Result<Vec<f64>, GenomeError> {
        assert_eq!(
            inputs.len(),
            genome.num_inputs(),
            "observation size must match the genome interface"
        );
        let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
        for (slot, node) in genome.nodes().enumerate() {
            slot_of.insert(node.id, slot);
        }
        let mut indegree: HashMap<NodeId, usize> = genome.nodes().map(|n| (n.id, 0)).collect();
        let mut out_edges: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut incoming: HashMap<NodeId, Vec<(usize, f64)>> = HashMap::new();
        for conn in genome.conns().filter(|c| c.enabled) {
            *indegree.get_mut(&conn.key.dst).expect("validated genome") += 1;
            out_edges
                .entry(conn.key.src)
                .or_default()
                .push(conn.key.dst);
            incoming
                .entry(conn.key.dst)
                .or_default()
                .push((slot_of[&conn.key.src], conn.weight));
        }
        let mut frontier: Vec<NodeId> = genome
            .nodes()
            .filter(|n| indegree[&n.id] == 0)
            .map(|n| n.id)
            .collect();
        frontier.sort_unstable();
        let mut order: Vec<NodeId> = Vec::new();
        while !frontier.is_empty() {
            let mut next: Vec<NodeId> = Vec::new();
            for &id in &frontier {
                order.push(id);
                if let Some(dsts) = out_edges.get(&id) {
                    for &dst in dsts {
                        let d = indegree.get_mut(&dst).expect("node present");
                        *d -= 1;
                        if *d == 0 {
                            next.push(dst);
                        }
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        if order.len() != genome.num_nodes() {
            return Err(GenomeError::Cycle);
        }

        let mut values = vec![0.0f64; genome.num_nodes()];
        values[..genome.num_inputs()].copy_from_slice(inputs);
        let mut weighted: Vec<f64> = Vec::new();
        for id in &order {
            let node = genome.node(*id).expect("node present");
            if node.node_type == NodeType::Input {
                continue;
            }
            weighted.clear();
            if let Some(inc) = incoming.get(id) {
                weighted.extend(inc.iter().map(|&(slot, w)| w * values[slot]));
            }
            let agg = node.aggregation.apply(&weighted);
            values[slot_of[id]] = node.activation.apply(node.bias + node.response * agg);
        }
        Ok((0..genome.num_outputs())
            .map(|o| values[slot_of[&NodeId((genome.num_inputs() + o) as u32)]])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InitialWeights, NeatConfig};
    use crate::gene::{ConnGene, NodeGene};
    use crate::innovation::InnovationTracker;
    use crate::rng::XorWow;
    use crate::trace::OpCounters;

    fn cfg() -> NeatConfig {
        NeatConfig::builder(2, 1).build().unwrap()
    }

    #[test]
    fn zero_weight_initial_net_outputs_sigmoid_of_zero() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let net = Network::from_genome(&g).unwrap();
        let out = net.activate(&[1.0, -1.0]);
        assert!(
            (out[0] - 0.5).abs() < 1e-12,
            "zero weights ⇒ sigmoid(0) = 0.5"
        );
    }

    #[test]
    fn hand_built_network_computes_weighted_sum() {
        // 2 inputs -> 1 output with weights 2 and -1, identity activation.
        let mut nodes = vec![
            NodeGene::input(NodeId(0)),
            NodeGene::input(NodeId(1)),
            NodeGene::output(NodeId(2)),
        ];
        nodes[2].activation = Activation::Identity;
        nodes[2].bias = 0.25;
        let conns = vec![
            ConnGene::new(NodeId(0), NodeId(2), 2.0),
            ConnGene::new(NodeId(1), NodeId(2), -1.0),
        ];
        let g = Genome::from_parts(0, 2, 1, nodes, conns).unwrap();
        let net = Network::from_genome(&g).unwrap();
        let out = net.activate(&[3.0, 4.0]);
        assert!((out[0] - (0.25 + 2.0 * 3.0 - 4.0)).abs() < 1e-12);
    }

    #[test]
    fn hidden_node_forms_second_wavefront() {
        let mut nodes = vec![
            NodeGene::input(NodeId(0)),
            NodeGene::output(NodeId(1)),
            NodeGene::hidden(NodeId(2)),
        ];
        nodes[1].activation = Activation::Identity;
        nodes[2].activation = Activation::Identity;
        let conns = vec![
            ConnGene::new(NodeId(0), NodeId(2), 3.0),
            ConnGene::new(NodeId(2), NodeId(1), 2.0),
        ];
        let g = Genome::from_parts(0, 1, 1, nodes, conns).unwrap();
        let net = Network::from_genome(&g).unwrap();
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.layer_eval_ranges(), &[(0, 0), (0, 1), (1, 2)]);
        let out = net.activate(&[1.5]);
        assert!((out[0] - 9.0).abs() < 1e-12, "1.5 * 3 * 2 = 9");
        assert_eq!(net.num_macs(), 2);
    }

    #[test]
    fn disabled_connections_do_not_contribute() {
        let mut nodes = vec![NodeGene::input(NodeId(0)), NodeGene::output(NodeId(1))];
        nodes[1].activation = Activation::Identity;
        let mut conn = ConnGene::new(NodeId(0), NodeId(1), 5.0);
        conn.enabled = false;
        let g = Genome::from_parts(0, 1, 1, nodes, vec![conn]).unwrap();
        let net = Network::from_genome(&g).unwrap();
        assert_eq!(net.activate(&[2.0])[0], 0.0);
        assert_eq!(net.num_macs(), 0);
    }

    #[test]
    #[should_panic(expected = "observation size")]
    fn wrong_input_arity_panics() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let net = Network::from_genome(&g).unwrap();
        let _ = net.activate(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "output buffer size")]
    fn wrong_output_arity_panics() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let net = Network::from_genome(&g).unwrap();
        net.activate_into(&mut Scratch::new(), &[1.0, 2.0], &mut [0.0, 0.0]);
    }

    #[test]
    fn evolved_genomes_compile_and_activate() {
        let mut c = cfg();
        c.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
        let mut r = XorWow::seed_from_u64_value(9);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        for _ in 0..200 {
            let mut ops = OpCounters::new();
            g.mutate(&c, &mut innov, &mut r, &mut ops);
            let net = Network::from_genome(&g).expect("mutated genome stays acyclic");
            let out = net.activate(&[0.3, -0.7]);
            assert_eq!(out.len(), 1);
            assert!(out[0].is_finite());
        }
    }

    #[test]
    fn scratch_reuse_across_networks_matches_fresh_buffers() {
        // One Scratch reused across many differently-sized networks and
        // aggregations must give the same bits as fresh buffers each call.
        let mut c = cfg();
        c.initial_weights = InitialWeights::Uniform { lo: -1.0, hi: 1.0 };
        c.activation_options = Activation::ALL.to_vec();
        c.aggregation_options = Aggregation::ALL.to_vec();
        c.activation_mutate_rate = 0.5;
        c.aggregation_mutate_rate = 0.5;
        let mut r = XorWow::seed_from_u64_value(77);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        let mut scratch = Scratch::new();
        let mut out = [0.0f64];
        let mut ops = OpCounters::new();
        for _ in 0..120 {
            g.mutate(&c, &mut innov, &mut r, &mut ops);
            let net = Network::from_genome(&g).unwrap();
            net.activate_into(&mut scratch, &[0.3, -0.7], &mut out);
            let fresh = net.activate(&[0.3, -0.7]);
            assert_eq!(out[0].to_bits(), fresh[0].to_bits());
        }
    }

    #[test]
    fn compiled_plan_matches_reference_interpreter() {
        let mut c = cfg();
        c.initial_weights = InitialWeights::Uniform { lo: -2.0, hi: 2.0 };
        c.activation_options = Activation::ALL.to_vec();
        c.aggregation_options = Aggregation::ALL.to_vec();
        c.activation_mutate_rate = 0.4;
        c.aggregation_mutate_rate = 0.4;
        let mut r = XorWow::seed_from_u64_value(5);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        let mut ops = OpCounters::new();
        for _ in 0..150 {
            g.mutate(&c, &mut innov, &mut r, &mut ops);
            let net = Network::from_genome(&g).unwrap();
            let compiled = net.activate(&[0.9, -1.3]);
            let interpreted = reference::activate(&g, &[0.9, -1.3]).unwrap();
            assert_eq!(compiled.len(), interpreted.len());
            for (a, b) in compiled.iter().zip(interpreted.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "compiled vs reference");
            }
        }
    }

    #[test]
    fn product_fold_is_bit_identical_to_weighted_products() {
        // Regression: the fold must multiply by the *weighted input*
        // (acc * (w * v)), not regroup as (acc * w) * v — the two round
        // differently about half the time at fan-in >= 2.
        let weights = [1.73, -0.481, 2.9];
        let inputs = [1.8126, -0.4810, -1.7371];
        let mut nodes = vec![
            NodeGene::input(NodeId(0)),
            NodeGene::input(NodeId(1)),
            NodeGene::input(NodeId(2)),
            NodeGene::output(NodeId(3)),
        ];
        nodes[3].activation = Activation::Identity;
        nodes[3].aggregation = Aggregation::Product;
        let conns = vec![
            ConnGene::new(NodeId(0), NodeId(3), weights[0]),
            ConnGene::new(NodeId(1), NodeId(3), weights[1]),
            ConnGene::new(NodeId(2), NodeId(3), weights[2]),
        ];
        let g = Genome::from_parts(0, 3, 1, nodes, conns).unwrap();
        let net = Network::from_genome(&g).unwrap();
        let compiled = net.activate(&inputs)[0];
        let interpreted = reference::activate(&g, &inputs).unwrap()[0];
        let explicit = Activation::Identity.apply(
            ((weights[0] * inputs[0]) * (weights[1] * inputs[1])) * (weights[2] * inputs[2]),
        );
        assert_eq!(compiled.to_bits(), interpreted.to_bits());
        assert_eq!(compiled.to_bits(), explicit.to_bits());
    }

    #[test]
    fn median_insertion_sort_matches_reference_at_high_fan_in() {
        // Fan-ins above the stdlib sort's on-stack threshold (~20) used to
        // allocate; the in-place insertion sort must stay bit-identical to
        // the reference interpreter's stable `sort_by` at every size.
        for fan_in in [1usize, 2, 5, 21, 64] {
            let mut nodes: Vec<NodeGene> = (0..fan_in)
                .map(|i| NodeGene::input(NodeId(i as u32)))
                .collect();
            let mut out = NodeGene::output(NodeId(fan_in as u32));
            out.activation = Activation::Identity;
            out.aggregation = Aggregation::Median;
            nodes.push(out);
            let conns: Vec<ConnGene> = (0..fan_in)
                .map(|i| {
                    // Deterministic weights with repeats, negatives and
                    // signed zeros to exercise tie handling.
                    let w = match i % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1.25,
                        3 => -2.5,
                        _ => 1.25,
                    };
                    ConnGene::new(NodeId(i as u32), NodeId(fan_in as u32), w)
                })
                .collect();
            let g = Genome::from_parts(0, fan_in, 1, nodes, conns).unwrap();
            let net = Network::from_genome(&g).unwrap();
            let inputs: Vec<f64> = (0..fan_in).map(|i| (i as f64) - 7.5).collect();
            let compiled = net.activate(&inputs)[0];
            let interpreted = reference::activate(&g, &inputs).unwrap()[0];
            assert_eq!(compiled.to_bits(), interpreted.to_bits(), "fan_in={fan_in}");
        }
    }

    #[test]
    fn empty_aggregation_cases_match_apply_semantics() {
        // A hidden node with no enabled incoming edges aggregates to 0.0
        // (Product: 1.0), matching `Aggregation::apply` on an empty slice.
        for (agg, want) in [(Aggregation::Product, 1.0), (Aggregation::Max, 0.0)] {
            let mut nodes = vec![NodeGene::input(NodeId(0)), NodeGene::output(NodeId(1))];
            nodes[1].activation = Activation::Identity;
            nodes[1].aggregation = agg;
            let g = Genome::from_parts(0, 1, 1, nodes, vec![]).unwrap();
            let net = Network::from_genome(&g).unwrap();
            assert_eq!(net.activate(&[2.0])[0], want, "{agg}");
        }
    }

    /// The buffer-reuse compiler must produce exactly the network the
    /// one-shot compiler does — same plan arrays, wavefronts and edge
    /// order — for arbitrary evolved genomes, with one plan reused across
    /// all of them.
    #[test]
    fn compile_into_matches_from_genome_with_reused_plan() {
        let mut c = cfg();
        c.initial_weights = InitialWeights::Uniform { lo: -2.0, hi: 2.0 };
        c.activation_options = Activation::ALL.to_vec();
        c.aggregation_options = Aggregation::ALL.to_vec();
        c.activation_mutate_rate = 0.4;
        c.aggregation_mutate_rate = 0.4;
        let mut r = XorWow::seed_from_u64_value(13);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut g = Genome::initial(0, &c, &mut r);
        let mut ops = OpCounters::new();
        let mut plan = NetworkPlan::new();
        for _ in 0..150 {
            g.mutate(&c, &mut innov, &mut r, &mut ops);
            Network::compile_into(&mut plan, &g).unwrap();
            let fresh = Network::from_genome(&g).unwrap();
            assert_eq!(plan.network(), &fresh, "reused plan vs one-shot compile");
        }
    }

    /// Capacities of every buffer a plan holds, its network's included.
    fn plan_capacities(plan: &NetworkPlan) -> Vec<usize> {
        let net = &plan.net;
        let mut capacities = vec![
            plan.indegree.capacity(),
            plan.out_offsets.capacity(),
            plan.out_targets.capacity(),
            plan.in_offsets.capacity(),
            plan.in_edges.capacity(),
            plan.conn_slots.capacity(),
            plan.cursor.capacity(),
            plan.frontier.capacity(),
            plan.next.capacity(),
            plan.spare_layers.capacity(),
            net.slots.capacity(),
            net.biases.capacity(),
            net.responses.capacity(),
            net.activations.capacity(),
            net.aggregations.capacity(),
            net.edge_offsets.capacity(),
            net.edges.capacity(),
            net.layer_ranges.capacity(),
            net.output_slots.capacity(),
            net.layers.capacity(),
        ];
        let layers = net.layers.iter().chain(&plan.spare_layers);
        capacities.extend(layers.map(Vec::capacity));
        capacities
    }

    #[test]
    fn recompiling_a_genome_grows_no_plan_buffer() {
        // 8 inputs -> hidden -> output: three wavefronts, the first the
        // widest, so a wavefront buffer or layer vector that changed roles
        // between compiles would have to grow on the second one.
        let nodes: Vec<NodeGene> = (0..8)
            .map(|i| NodeGene::input(NodeId(i)))
            .chain([NodeGene::output(NodeId(8)), NodeGene::hidden(NodeId(9))])
            .collect();
        let conns: Vec<ConnGene> = (0..8)
            .map(|i| ConnGene::new(NodeId(i), NodeId(9), 0.5))
            .chain([ConnGene::new(NodeId(9), NodeId(8), 1.5)])
            .collect();
        let g = Genome::from_parts(0, 8, 1, nodes, conns).unwrap();
        let mut plan = NetworkPlan::new();
        Network::compile_into(&mut plan, &g).unwrap();
        assert_eq!(plan.network().layers().len(), 3);
        let warm = plan_capacities(&plan);
        Network::compile_into(&mut plan, &g).unwrap();
        assert_eq!(plan_capacities(&plan), warm);
        assert_eq!(plan.network(), &Network::from_genome(&g).unwrap());
    }

    #[test]
    fn plan_reuse_across_interface_shapes_leaves_no_stale_state() {
        // Shrinking the genome between compiles must not leak the larger
        // plan's slots, layers or edges into the smaller network.
        let big_cfg = NeatConfig::builder(7, 3).build().unwrap();
        let small_cfg = cfg();
        let mut r = XorWow::seed_from_u64_value(8);
        let big = Genome::initial(0, &big_cfg, &mut r);
        let small = Genome::initial(1, &small_cfg, &mut r);
        let mut plan = NetworkPlan::new();
        for g in [&big, &small, &big, &small] {
            Network::compile_into(&mut plan, g).unwrap();
            assert_eq!(plan.network(), &Network::from_genome(g).unwrap());
        }
        assert_eq!(plan.network().num_inputs(), 2);
        assert_eq!(plan.network().num_nodes(), small.num_nodes());
    }

    #[test]
    fn layer_zero_contains_all_inputs() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(2));
        let net = Network::from_genome(&g).unwrap();
        assert!(net.layers()[0].contains(&NodeId(0)));
        assert!(net.layers()[0].contains(&NodeId(1)));
        assert_eq!(net.layer_eval_ranges().len(), net.layers().len());
        assert_eq!(net.layer_eval_ranges()[0], (0, 0), "inputs compile away");
    }

    #[test]
    fn plan_edges_cover_every_enabled_conn() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(3));
        let net = Network::from_genome(&g).unwrap();
        let total: usize = (0..net.num_eval_nodes())
            .map(|e| net.incoming_edges(e).len())
            .sum();
        assert_eq!(total as u64, net.num_macs());
    }

    #[test]
    fn mac_count_matches_enabled_conns() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(3));
        let net = Network::from_genome(&g).unwrap();
        assert_eq!(
            net.num_macs() as usize,
            g.conns().filter(|c| c.enabled).count()
        );
    }
}
