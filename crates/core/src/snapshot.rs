//! Versioned binary checkpoints — the genome-buffer wire format, extended
//! to the **full evolution state**.
//!
//! [`crate::codec`] defines the 64-bit gene word the SoC stores in SRAM
//! (Fig 6). A [`crate::codec::encode_population`] image captures genomes alone;
//! continuous learning needs more: the species bookkeeping, the innovation
//! counter, the PRNG stream and the seed/generation/key counters, so that
//! a run restored after a power cycle continues **bit-identically** (see
//! `genesys_neat::session`). This module serializes a complete
//! [`RunState`] into a self-describing image of 64-bit words:
//!
//! ```text
//! [0] magic  [1] version  [2] payload length  [3] state kind
//! kind 0 (monolithic):
//!   [4..]    config · counters · RNG · genomes · species · best genome
//! kind 1 (archipelago, format v3):
//!   [4..]    global config · seed · generation · migration epoch ·
//!            workload state · island count · one monolithic body per island
//! [last]     FNV-1a checksum over everything before it
//! ```
//!
//! The redundant *migration epoch* word (`generation /
//! migration_interval`) is a cross-check: an image whose epoch disagrees
//! with its generation counter is rejected as
//! [`SnapshotError::Malformed`] rather than silently resuming off the
//! migration schedule.
//!
//! Genes are stored as **snapshot-local wide gene words** (since format
//! v2): the hardware SRAM word of Fig 6 reserves only 14 bits per node
//! id, which megapopulation runs overflow, so checkpoints carry their own
//! 64-bit layout with 31-bit id fields:
//!
//! ```text
//! node word:  [63]=0  [62:61] type code  [60:48] reserved (zero)
//!             [47:40] activation code    [39:32] aggregation code
//!             [31:0]  node id            (id ≤ SNAPSHOT_MAX_NODE_ID)
//! conn word:  [63]=1  [62] enabled  [61:31] src id  [30:0] dst id
//! ```
//!
//! The exact `f64` bit patterns of the continuous attributes follow each
//! word — any quantized image would break bit-identical resume of a
//! *software* run. A node gene is `[gene word, bias bits, response
//! bits]`; a connection gene is `[gene word, weight bits]`. The hardware
//! codec ([`crate::codec`], 14-bit ids, fixed-point attributes) is a
//! separate format and is unchanged.
//!
//! # Version policy
//!
//! [`SNAPSHOT_VERSION`] is bumped on any layout change; decoders reject
//! images from other versions with [`SnapshotError::UnsupportedVersion`]
//! rather than guessing. **All prior versions are rejected, not
//! migrated**: v1 reused the quantized hardware gene word (14-bit ids)
//! and predates the megapopulation config words
//! (`species_representative_cap` and the reserved word below); v2
//! predates the state kind word and the island config knobs
//! (`islands`/`migration_interval`/`migration_k`), so a v2 image cannot
//! say which backend it checkpoints; v3 predates the `speciate_exact`
//! speciation-kernel toggle. Decoding any of them returns
//! `UnsupportedVersion(v)`. Corrupt input of any shape — truncation, bit
//! flips (caught by the checksum), garbage — returns a typed
//! [`SnapshotError`] and never panics.
//!
//! # The reserved config word
//!
//! The config layout keeps one reserved word, between
//! `species_representative_cap` and `islands`. It held the retired
//! `eval_batch` knob of the per-genome episode-batch kernel, which the
//! population lanes replaced. v4 keeps the word so that images stay
//! byte-identical: encoders always write `1`, and decoders reject any
//! other value as [`SnapshotError::Malformed`]. The next format version
//! drops it.
//!
//! # Save / resume round trip
//!
//! ```
//! use genesys_core::snapshot::{snapshot_from_bytes, snapshot_to_bytes};
//! use genesys_neat::{EvalContext, NeatConfig, Network, Session};
//!
//! let config = NeatConfig::builder(2, 1).pop_size(12).build()?;
//! let fitness = |ctx: EvalContext, net: &Network| {
//!     net.activate(&[(ctx.seed() % 11) as f64 / 11.0, 0.5])[0]
//! };
//! let mut session = Session::builder(config, 99)?.workload(fitness).build();
//! session.run(2);
//!
//! // Checkpoint to bytes (write these to disk), then restore.
//! let bytes = snapshot_to_bytes(&session.export_state())?;
//! let restored = snapshot_from_bytes(&bytes)?;
//! let mut resumed = Session::resume(restored)?.workload(fitness).build();
//!
//! session.run(2);
//! resumed.run(2);
//! assert!(session.genomes().eq(resumed.genomes())); // bit-identical
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::codec::DecodeError;
use genesys_neat::gene::{ConnGene, ConnKey, NodeGene, NodeType};
use genesys_neat::trace::OpCounters;
use genesys_neat::{
    Activation, Aggregation, ArchipelagoState, BestSummary, EvolutionState, GenerationStats,
    Genome, InitialWeights, NeatConfig, NodeId, OwnedGenerationEvent, PopulationDiagnostics,
    RunState, SessionError, Species, SpeciesId,
};
use std::error::Error;
use std::fmt;

/// First word of every snapshot image: `"GENESNAP"` in ASCII.
pub const SNAPSHOT_MAGIC: u64 = 0x4745_4E45_534E_4150;
/// Current wire-format version. Bumped on any layout change; see the
/// module docs for the compatibility policy (v1–v3 images are
/// rejected).
pub const SNAPSHOT_VERSION: u64 = 4;
/// First word of every standalone config image: `"GENECONF"` in ASCII.
/// Config images share the snapshot envelope (magic, version, declared
/// length, FNV-1a checksum) and version with the full snapshot format —
/// the config layout is a slice of the snapshot layout, so a config
/// layout change is by definition a snapshot layout change.
pub const CONFIG_MAGIC: u64 = 0x4745_4E45_434F_4E46;
/// First word of every serialized [`OwnedGenerationEvent`]: `"GENEVENT"`
/// in ASCII.
pub const EVENT_MAGIC: u64 = 0x4745_4E45_5645_4E54;
/// Wire-format version of serialized generation events. Independent of
/// [`SNAPSHOT_VERSION`] (events carry statistics, not genomes); the same
/// policy applies — any layout change bumps it, other versions are
/// rejected with [`SnapshotError::UnsupportedVersion`]. v1 predates the
/// per-phase timing words (`speciate_ns`/`reproduce_ns`/`eval_ns`); v2
/// predates the population-diagnostics words (`high_order_entropy`,
/// `unique_genomes`, `species_entropy`, `largest_species`).
pub const EVENT_VERSION: u64 = 3;
/// Largest node id the snapshot gene words can carry (31-bit id fields —
/// far beyond the hardware codec's 14-bit `codec::MAX_NODE_ID`, so
/// megapopulation runs checkpoint without overflow).
pub const SNAPSHOT_MAX_NODE_ID: u32 = (1 << 31) - 1;

/// Typed decoding/encoding failure. Corrupt input always lands here —
/// never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The image's version word is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u64),
    /// The image ended before the structure it declares.
    Truncated {
        /// Word offset at which more data was expected.
        offset: usize,
    },
    /// The payload does not hash to the trailing checksum word (bit flips,
    /// torn writes).
    ChecksumMismatch,
    /// A declared length is inconsistent with the image size.
    LengthMismatch,
    /// A gene word failed to decode.
    Gene(DecodeError),
    /// A structurally well-formed record produced an invalid value.
    Malformed(&'static str),
    /// A decoded genome failed structural validation.
    InvalidGenome(String),
    /// The decoded state failed cross-field validation.
    InvalidState(String),
    /// A node id does not fit the snapshot wire format's 31-bit id field.
    NodeIdOverflow {
        /// The offending id.
        id: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a GeneSys snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at word {offset}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::LengthMismatch => write!(f, "snapshot length field mismatch"),
            SnapshotError::Gene(e) => write!(f, "gene word: {e}"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::InvalidGenome(e) => write!(f, "invalid genome: {e}"),
            SnapshotError::InvalidState(e) => write!(f, "invalid state: {e}"),
            SnapshotError::NodeIdOverflow { id } => {
                write!(
                    f,
                    "node id {id} exceeds the {SNAPSHOT_MAX_NODE_ID} snapshot wire-format limit"
                )
            }
        }
    }
}

impl Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Gene(e)
    }
}

// ---------------------------------------------------------------------------
// Checksum: FNV-1a over the little-endian bytes of every preceding word.
// Not cryptographic — it detects the accidental corruption class (bit
// flips, truncated/torn writes), which is the failure mode of a checkpoint
// file.

fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

// ---------------------------------------------------------------------------
// Snapshot gene words (module-doc layout). These deliberately do NOT reuse
// `codec::encode_node`/`encode_conn`: the hardware word has 14-bit id
// fields, the snapshot word 31-bit ones.

const CONN_ID_MASK: u64 = (1 << 31) - 1;

fn encode_node_word(node: &NodeGene) -> u64 {
    let mut w = 0u64;
    w |= u64::from(node.node_type.to_code() & 0b11) << 61;
    w |= u64::from(node.activation.to_code()) << 40;
    w |= u64::from(node.aggregation.to_code()) << 32;
    w |= u64::from(node.id.0);
    w
}

fn encode_conn_word(conn: &ConnGene) -> u64 {
    let mut w = 1u64 << 63;
    w |= u64::from(conn.enabled) << 62;
    w |= u64::from(conn.key.src.0) << 31;
    w |= u64::from(conn.key.dst.0);
    w
}

/// Decodes a node word; `bias`/`response` are filled by the caller from
/// the trailing f64 words.
fn decode_node_word(word: u64) -> Result<NodeGene, SnapshotError> {
    if word >> 63 != 0 {
        return Err(SnapshotError::Malformed("expected a node gene word"));
    }
    let type_code = ((word >> 61) & 0b11) as u8;
    if type_code == 0b11 {
        return Err(SnapshotError::Malformed("reserved node type"));
    }
    if (word >> 48) & 0x1FFF != 0 {
        return Err(SnapshotError::Malformed("reserved node bits set"));
    }
    let id = (word & 0xFFFF_FFFF) as u32;
    if id > SNAPSHOT_MAX_NODE_ID {
        return Err(SnapshotError::Malformed("node id out of range"));
    }
    Ok(NodeGene {
        id: NodeId(id),
        node_type: NodeType::from_code(type_code),
        bias: 0.0,
        response: 0.0,
        activation: Activation::from_code(((word >> 40) & 0xFF) as u8),
        aggregation: Aggregation::from_code(((word >> 32) & 0xFF) as u8),
    })
}

/// Decodes a conn word; `weight` is filled by the caller.
fn decode_conn_word(word: u64) -> Result<ConnGene, SnapshotError> {
    if word >> 63 != 1 {
        return Err(SnapshotError::Malformed("expected a conn gene word"));
    }
    let src = ((word >> 31) & CONN_ID_MASK) as u32;
    let dst = (word & CONN_ID_MASK) as u32;
    Ok(ConnGene {
        key: ConnKey::new(NodeId(src), NodeId(dst)),
        weight: 0.0,
        enabled: (word >> 62) & 1 == 1,
    })
}

// ---------------------------------------------------------------------------
// Encoding

fn push_f64(words: &mut Vec<u64>, v: f64) {
    words.push(v.to_bits());
}

/// The value of the reserved config word (module docs).
const RESERVED_CONFIG_WORD: usize = 1;

fn encode_config(words: &mut Vec<u64>, c: &NeatConfig) {
    words.push(c.num_inputs as u64);
    words.push(c.num_outputs as u64);
    words.push(c.pop_size as u64);
    match c.initial_weights {
        InitialWeights::Zero => {
            words.push(0);
            words.push(0);
            words.push(0);
        }
        InitialWeights::Uniform { lo, hi } => {
            words.push(1);
            push_f64(words, lo);
            push_f64(words, hi);
        }
        InitialWeights::Gaussian { stdev } => {
            words.push(2);
            push_f64(words, stdev);
            words.push(0);
        }
    }
    for v in [
        c.weight_mutate_rate,
        c.weight_replace_rate,
        c.weight_perturb_power,
        c.weight_min,
        c.weight_max,
        c.bias_mutate_rate,
        c.bias_replace_rate,
        c.bias_perturb_power,
        c.bias_min,
        c.bias_max,
        c.response_mutate_rate,
        c.response_replace_rate,
        c.response_perturb_power,
        c.response_min,
        c.response_max,
        c.activation_mutate_rate,
        c.aggregation_mutate_rate,
        c.enabled_mutate_rate,
        c.conn_add_prob,
        c.conn_delete_prob,
        c.node_add_prob,
        c.node_delete_prob,
        c.compatibility_threshold,
        c.compatibility_disjoint_coefficient,
        c.compatibility_weight_coefficient,
        c.survival_threshold,
        c.crossover_prob,
    ] {
        push_f64(words, v);
    }
    for v in [
        c.node_delete_limit,
        c.max_stagnation,
        c.species_elitism,
        c.elitism,
        c.min_species_size,
        c.species_representative_cap,
        RESERVED_CONFIG_WORD,
        c.islands,
        c.migration_interval,
        c.migration_k,
    ] {
        words.push(v as u64);
    }
    words.push(c.activation_options.len() as u64);
    for a in &c.activation_options {
        words.push(u64::from(a.to_code()));
    }
    words.push(c.aggregation_options.len() as u64);
    for a in &c.aggregation_options {
        words.push(u64::from(a.to_code()));
    }
    match c.target_fitness {
        Some(t) => {
            words.push(1);
            push_f64(words, t);
        }
        None => {
            words.push(0);
            words.push(0);
        }
    }
    words.push(u64::from(c.speciate_exact));
}

fn encode_genome_record(words: &mut Vec<u64>, g: &Genome) -> Result<(), SnapshotError> {
    words.push(g.key());
    words.push(((g.num_nodes() as u64) << 32) | g.num_conns() as u64);
    match g.fitness() {
        Some(f) => {
            words.push(1);
            push_f64(words, f);
        }
        None => {
            words.push(0);
            words.push(0);
        }
    }
    for node in g.nodes() {
        if node.id.0 > SNAPSHOT_MAX_NODE_ID {
            return Err(SnapshotError::NodeIdOverflow { id: node.id.0 });
        }
        words.push(encode_node_word(node));
        push_f64(words, node.bias);
        push_f64(words, node.response);
    }
    for conn in g.conns() {
        if conn.key.src.0 > SNAPSHOT_MAX_NODE_ID || conn.key.dst.0 > SNAPSHOT_MAX_NODE_ID {
            return Err(SnapshotError::NodeIdOverflow {
                id: conn.key.src.0.max(conn.key.dst.0),
            });
        }
        words.push(encode_conn_word(conn));
        push_f64(words, conn.weight);
    }
    Ok(())
}

fn encode_species_record(words: &mut Vec<u64>, s: &Species) -> Result<(), SnapshotError> {
    words.push(u64::from(s.id.0));
    words.push(s.created_at as u64);
    words.push(s.last_improved as u64);
    push_f64(words, s.best_fitness);
    push_f64(words, s.adjusted_fitness);
    words.push(s.members.len() as u64);
    for &m in &s.members {
        words.push(m as u64);
    }
    encode_genome_record(words, &s.representative)
}

/// State-kind word of a monolithic ([`EvolutionState`]) snapshot body.
const KIND_MONOLITHIC: u64 = 0;
/// State-kind word of an archipelago ([`ArchipelagoState`]) snapshot body.
const KIND_ARCHIPELAGO: u64 = 1;

/// Appends one [`EvolutionState`] body (config · counters · RNG ·
/// genomes · species · best genome) — the payload of a monolithic
/// snapshot, and the per-island repeating unit of an archipelago one.
fn encode_state_body(words: &mut Vec<u64>, state: &EvolutionState) -> Result<(), SnapshotError> {
    encode_config(words, &state.config);
    words.push(state.seed);
    words.push(state.generation);
    words.push(state.next_key);
    words.push(u64::from(state.innovation_next_node));
    words.push(u64::from(state.species_next_id));
    words.push(state.workload_state);
    let (x, counter) = state.rng_state;
    for w in x {
        words.push(u64::from(w));
    }
    words.push(u64::from(counter));
    words.push(state.genomes.len() as u64);
    for g in &state.genomes {
        encode_genome_record(words, g)?;
    }
    words.push(state.species.len() as u64);
    for s in &state.species {
        encode_species_record(words, s)?;
    }
    match &state.best_ever {
        Some(g) => {
            words.push(1);
            encode_genome_record(words, g)?;
        }
        None => words.push(0),
    }
    Ok(())
}

/// Serializes a complete run state — monolithic or archipelago — into
/// the versioned word image (the kind word selects the body layout).
///
/// # Errors
///
/// Returns [`SnapshotError::NodeIdOverflow`] if a genome exceeds the
/// snapshot gene word's 31-bit node-id space ([`SNAPSHOT_MAX_NODE_ID`]).
pub fn encode_snapshot(state: &RunState) -> Result<Vec<u64>, SnapshotError> {
    let mut words = vec![SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0];
    match state {
        RunState::Monolithic(state) => {
            words.push(KIND_MONOLITHIC);
            encode_state_body(&mut words, state)?;
        }
        RunState::Archipelago(state) => {
            words.push(KIND_ARCHIPELAGO);
            encode_config(&mut words, &state.config);
            words.push(state.seed);
            words.push(state.generation);
            // Redundant epoch word, cross-checked on decode (module docs).
            words.push(state.generation / state.config.migration_interval.max(1) as u64);
            words.push(state.workload_state);
            words.push(state.islands.len() as u64);
            for island in &state.islands {
                encode_state_body(&mut words, island)?;
            }
        }
    }
    Ok(seal_envelope(words))
}

// ---------------------------------------------------------------------------
// Decoding

struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self) -> Result<u64, SnapshotError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        self.pos += 1;
        Ok(w)
    }

    fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take()?))
    }

    fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    /// Reads a count that is about to drive `per_item`-word reads,
    /// rejecting counts the remaining image cannot possibly hold (so a
    /// corrupted count cannot trigger an absurd allocation).
    fn take_count(&mut self, per_item: usize) -> Result<usize, SnapshotError> {
        let count = self.take_usize()?;
        let remaining = self.words.len().saturating_sub(self.pos);
        if count > remaining / per_item.max(1) {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        Ok(count)
    }
}

fn decode_config(c: &mut Cursor<'_>) -> Result<NeatConfig, SnapshotError> {
    let num_inputs = c.take_usize()?;
    let num_outputs = c.take_usize()?;
    let pop_size = c.take_usize()?;
    let initial_weights = match c.take()? {
        0 => {
            c.take()?;
            c.take()?;
            InitialWeights::Zero
        }
        1 => InitialWeights::Uniform {
            lo: c.take_f64()?,
            hi: c.take_f64()?,
        },
        2 => {
            let stdev = c.take_f64()?;
            c.take()?;
            InitialWeights::Gaussian { stdev }
        }
        _ => return Err(SnapshotError::Malformed("initial-weights tag")),
    };
    let mut f = [0.0f64; 27];
    for slot in &mut f {
        *slot = c.take_f64()?;
    }
    let node_delete_limit = c.take_usize()?;
    let max_stagnation = c.take_usize()?;
    let species_elitism = c.take_usize()?;
    let elitism = c.take_usize()?;
    let min_species_size = c.take_usize()?;
    let species_representative_cap = c.take_usize()?;
    if c.take()? != RESERVED_CONFIG_WORD as u64 {
        return Err(SnapshotError::Malformed("reserved config word"));
    }
    let islands = c.take_usize()?;
    let migration_interval = c.take_usize()?;
    let migration_k = c.take_usize()?;
    let n_act = c.take_count(1)?;
    let mut activation_options = Vec::with_capacity(n_act);
    for _ in 0..n_act {
        let code = c.take()?;
        if code > u64::from(u8::MAX) {
            return Err(SnapshotError::Malformed("activation code"));
        }
        activation_options.push(Activation::from_code(code as u8));
    }
    let n_agg = c.take_count(1)?;
    let mut aggregation_options = Vec::with_capacity(n_agg);
    for _ in 0..n_agg {
        let code = c.take()?;
        if code > u64::from(u8::MAX) {
            return Err(SnapshotError::Malformed("aggregation code"));
        }
        aggregation_options.push(Aggregation::from_code(code as u8));
    }
    let target_fitness = match c.take()? {
        0 => {
            c.take()?;
            None
        }
        1 => Some(c.take_f64()?),
        _ => return Err(SnapshotError::Malformed("target-fitness flag")),
    };
    let speciate_exact = match c.take()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Malformed("speciate-exact flag")),
    };
    Ok(NeatConfig {
        num_inputs,
        num_outputs,
        pop_size,
        initial_weights,
        weight_mutate_rate: f[0],
        weight_replace_rate: f[1],
        weight_perturb_power: f[2],
        weight_min: f[3],
        weight_max: f[4],
        bias_mutate_rate: f[5],
        bias_replace_rate: f[6],
        bias_perturb_power: f[7],
        bias_min: f[8],
        bias_max: f[9],
        response_mutate_rate: f[10],
        response_replace_rate: f[11],
        response_perturb_power: f[12],
        response_min: f[13],
        response_max: f[14],
        activation_mutate_rate: f[15],
        aggregation_mutate_rate: f[16],
        enabled_mutate_rate: f[17],
        conn_add_prob: f[18],
        conn_delete_prob: f[19],
        node_add_prob: f[20],
        node_delete_prob: f[21],
        compatibility_threshold: f[22],
        compatibility_disjoint_coefficient: f[23],
        compatibility_weight_coefficient: f[24],
        survival_threshold: f[25],
        crossover_prob: f[26],
        node_delete_limit,
        max_stagnation,
        species_elitism,
        elitism,
        min_species_size,
        species_representative_cap,
        islands,
        migration_interval,
        migration_k,
        activation_options,
        aggregation_options,
        target_fitness,
        speciate_exact,
    })
}

fn decode_genome_record(
    c: &mut Cursor<'_>,
    num_inputs: usize,
    num_outputs: usize,
) -> Result<Genome, SnapshotError> {
    let key = c.take()?;
    let shape = c.take()?;
    let num_nodes = (shape >> 32) as usize;
    let num_conns = (shape & 0xFFFF_FFFF) as usize;
    let fitness = match c.take()? {
        0 => {
            c.take()?;
            None
        }
        1 => Some(c.take_f64()?),
        _ => return Err(SnapshotError::Malformed("fitness flag")),
    };
    // 3 words per node, 2 per conn: reject shapes the image cannot hold.
    let remaining = c.words.len().saturating_sub(c.pos);
    if num_nodes
        .checked_mul(3)
        .and_then(|n| num_conns.checked_mul(2).map(|m| n + m))
        .is_none_or(|needed| needed > remaining)
    {
        return Err(SnapshotError::Truncated { offset: c.pos });
    }
    let mut nodes: Vec<NodeGene> = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let mut node = decode_node_word(c.take()?)?;
        // The word carries the discrete fields; the exact f64 bit
        // patterns of the continuous attributes follow it.
        node.bias = c.take_f64()?;
        node.response = c.take_f64()?;
        nodes.push(node);
    }
    let mut conns: Vec<ConnGene> = Vec::with_capacity(num_conns);
    for _ in 0..num_conns {
        let mut conn = decode_conn_word(c.take()?)?;
        conn.weight = c.take_f64()?;
        conns.push(conn);
    }
    let mut genome = Genome::from_parts(key, num_inputs, num_outputs, nodes, conns)
        .map_err(|e| SnapshotError::InvalidGenome(e.to_string()))?;
    if let Some(f) = fitness {
        genome.set_fitness(f);
    }
    Ok(genome)
}

fn decode_species_record(
    c: &mut Cursor<'_>,
    num_inputs: usize,
    num_outputs: usize,
) -> Result<Species, SnapshotError> {
    let id = c.take()?;
    if id > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed("species id"));
    }
    let created_at = c.take_usize()?;
    let last_improved = c.take_usize()?;
    let best_fitness = c.take_f64()?;
    let adjusted_fitness = c.take_f64()?;
    let n_members = c.take_count(1)?;
    let mut members = Vec::with_capacity(n_members);
    for _ in 0..n_members {
        members.push(c.take_usize()?);
    }
    let representative = decode_genome_record(c, num_inputs, num_outputs)?;
    Ok(Species {
        id: SpeciesId(id as u32),
        representative,
        members,
        created_at,
        last_improved,
        best_fitness,
        adjusted_fitness,
    })
}

/// Decodes one [`EvolutionState`] body (the inverse of
/// [`encode_state_body`]). Cross-field validation happens at the
/// [`RunState`] level once the whole image is consumed.
fn decode_state_body(c: &mut Cursor<'_>) -> Result<EvolutionState, SnapshotError> {
    let config = decode_config(c)?;
    let seed = c.take()?;
    let generation = c.take()?;
    let next_key = c.take()?;
    let innovation_next_node = c.take()?;
    let species_next_id = c.take()?;
    if innovation_next_node > u64::from(u32::MAX) || species_next_id > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed("id counter"));
    }
    let workload_state = c.take()?;
    let mut x = [0u32; 5];
    for slot in &mut x {
        let w = c.take()?;
        if w > u64::from(u32::MAX) {
            return Err(SnapshotError::Malformed("rng word"));
        }
        *slot = w as u32;
    }
    let counter = c.take()?;
    if counter > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed("rng counter"));
    }

    // Minimum genome record: key + shape + fitness flag/bits = 4 words.
    let n_genomes = c.take_count(4)?;
    let mut genomes = Vec::with_capacity(n_genomes);
    for _ in 0..n_genomes {
        genomes.push(decode_genome_record(
            c,
            config.num_inputs,
            config.num_outputs,
        )?);
    }
    // Minimum species record: 6 fixed words + a 4-word representative.
    let n_species = c.take_count(10)?;
    let mut species = Vec::with_capacity(n_species);
    for _ in 0..n_species {
        species.push(decode_species_record(
            c,
            config.num_inputs,
            config.num_outputs,
        )?);
    }
    let best_ever = match c.take()? {
        0 => None,
        1 => Some(decode_genome_record(
            c,
            config.num_inputs,
            config.num_outputs,
        )?),
        _ => return Err(SnapshotError::Malformed("best-genome flag")),
    };
    Ok(EvolutionState {
        config,
        genomes,
        species,
        species_next_id: species_next_id as u32,
        innovation_next_node: innovation_next_node as u32,
        rng_state: (x, counter as u32),
        seed,
        generation,
        next_key,
        best_ever,
        workload_state,
    })
}

/// Deserializes a snapshot image produced by [`encode_snapshot`],
/// verifying magic, version, declared length, checksum and the
/// archipelago epoch cross-check, and re-validating the decoded state's
/// cross-field invariants.
///
/// # Errors
///
/// Any malformed, truncated or corrupted input returns a typed
/// [`SnapshotError`]; this function never panics on adversarial bytes.
pub fn decode_snapshot(words: &[u64]) -> Result<RunState, SnapshotError> {
    let mut c = open_envelope(words, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let state = match c.take()? {
        KIND_MONOLITHIC => RunState::Monolithic(Box::new(decode_state_body(&mut c)?)),
        KIND_ARCHIPELAGO => {
            let config = decode_config(&mut c)?;
            let seed = c.take()?;
            let generation = c.take()?;
            let epoch = c.take()?;
            if epoch != generation / config.migration_interval.max(1) as u64 {
                return Err(SnapshotError::Malformed("migration epoch"));
            }
            let workload_state = c.take()?;
            // Minimum island body: a config (dozens of words) + counters;
            // 10 is a safe lower bound for the count sanity check.
            let n_islands = c.take_count(10)?;
            let mut islands = Vec::with_capacity(n_islands);
            for _ in 0..n_islands {
                islands.push(decode_state_body(&mut c)?);
            }
            RunState::Archipelago(Box::new(ArchipelagoState {
                config,
                seed,
                generation,
                islands,
                workload_state,
            }))
        }
        _ => return Err(SnapshotError::Malformed("state kind")),
    };
    close_envelope(&c)?;
    state
        .validate()
        .map_err(|e: SessionError| SnapshotError::InvalidState(e.to_string()))?;
    Ok(state)
}

/// Little-endian byte image of a word image.
fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Inverse of [`words_to_bytes`]; a length that is not a whole number of
/// words is truncation.
fn bytes_to_words(bytes: &[u8]) -> Result<Vec<u64>, SnapshotError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(SnapshotError::Truncated {
            offset: bytes.len() / 8,
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect())
}

/// Serializes a state to bytes (the word image, little-endian) — what a
/// checkpoint file holds.
///
/// # Errors
///
/// See [`encode_snapshot`].
pub fn snapshot_to_bytes(state: &RunState) -> Result<Vec<u8>, SnapshotError> {
    Ok(words_to_bytes(&encode_snapshot(state)?))
}

/// Deserializes a checkpoint file's bytes.
///
/// # Errors
///
/// Returns [`SnapshotError::Truncated`] if the length is not a whole
/// number of words; otherwise see [`decode_snapshot`].
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<RunState, SnapshotError> {
    decode_snapshot(&bytes_to_words(bytes)?)
}

// ---------------------------------------------------------------------------
// Standalone images: config and generation events. Both wrap their payload
// in the snapshot envelope — magic, version, declared payload length,
// trailing FNV-1a checksum — so corrupt input of any shape is a typed
// error, never a panic, exactly like full snapshots.

/// Verifies an image's envelope (`magic`/`version` words, declared
/// length, trailing checksum) and returns a cursor positioned on the
/// first payload word.
fn open_envelope<'a>(
    words: &'a [u64],
    magic: u64,
    version: u64,
) -> Result<Cursor<'a>, SnapshotError> {
    let mut c = Cursor { words, pos: 0 };
    if c.take()? != magic {
        return Err(SnapshotError::BadMagic);
    }
    let got = c.take()?;
    if got != version {
        return Err(SnapshotError::UnsupportedVersion(got));
    }
    let payload_len = c.take_usize()?;
    let expected_len = payload_len
        .checked_add(4)
        .ok_or(SnapshotError::LengthMismatch)?;
    if words.len() != expected_len {
        return Err(if words.len() < expected_len {
            SnapshotError::Truncated {
                offset: words.len(),
            }
        } else {
            SnapshotError::LengthMismatch
        });
    }
    let (payload, checksum) = words.split_at(words.len() - 1);
    if fnv1a(payload) != checksum[0] {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(c)
}

/// Requires the cursor to have consumed the entire payload (everything
/// but the checksum word).
fn close_envelope(c: &Cursor<'_>) -> Result<(), SnapshotError> {
    if c.pos != c.words.len() - 1 {
        return Err(SnapshotError::LengthMismatch);
    }
    Ok(())
}

/// Seals an image under construction: fixes up the payload-length word
/// (index 2) and appends the checksum.
fn seal_envelope(mut words: Vec<u64>) -> Vec<u64> {
    words[2] = (words.len() - 3) as u64;
    words.push(fnv1a(&words));
    words
}

/// Serializes a [`NeatConfig`] alone into a self-describing word image —
/// the payload format of configuration-bearing wire verbs
/// (`genesys_serve`'s `submit`), using the exact field layout snapshots
/// embed.
pub fn encode_config_image(config: &NeatConfig) -> Vec<u64> {
    let mut words = vec![CONFIG_MAGIC, SNAPSHOT_VERSION, 0];
    encode_config(&mut words, config);
    seal_envelope(words)
}

/// Deserializes a config image produced by [`encode_config_image`],
/// verifying the envelope and re-validating the decoded configuration.
///
/// # Errors
///
/// Any malformed, truncated or corrupted input returns a typed
/// [`SnapshotError`]; an image that decodes structurally but fails
/// [`NeatConfig::validate`] returns [`SnapshotError::InvalidState`].
pub fn decode_config_image(words: &[u64]) -> Result<NeatConfig, SnapshotError> {
    let mut c = open_envelope(words, CONFIG_MAGIC, SNAPSHOT_VERSION)?;
    let config = decode_config(&mut c)?;
    close_envelope(&c)?;
    config
        .validate()
        .map_err(|e| SnapshotError::InvalidState(e.to_string()))?;
    Ok(config)
}

/// Byte form of [`encode_config_image`] (little-endian words).
pub fn config_to_bytes(config: &NeatConfig) -> Vec<u8> {
    words_to_bytes(&encode_config_image(config))
}

/// Byte form of [`decode_config_image`].
///
/// # Errors
///
/// See [`decode_config_image`].
pub fn config_from_bytes(bytes: &[u8]) -> Result<NeatConfig, SnapshotError> {
    decode_config_image(&bytes_to_words(bytes)?)
}

/// Serializes an [`OwnedGenerationEvent`] into a self-describing word
/// image — the push-channel payload of `genesys_serve`'s `observe` verb.
/// The image is fixed-size (34 or 39 words): events are allocation-bounded
/// by design, so the wire form is too.
pub fn encode_event(event: &OwnedGenerationEvent) -> Vec<u64> {
    let mut words = vec![EVENT_MAGIC, EVENT_VERSION, 0];
    let s = &event.stats;
    words.push(s.generation as u64);
    push_f64(&mut words, s.max_fitness);
    push_f64(&mut words, s.mean_fitness);
    push_f64(&mut words, s.min_fitness);
    for v in [
        s.num_species,
        s.total_nodes,
        s.total_conns,
        s.total_genes,
        s.max_genome_genes,
        s.memory_bytes,
        s.fittest_parent_reuse,
    ] {
        words.push(v as u64);
    }
    for v in [
        s.ops.crossover,
        s.ops.perturb,
        s.ops.add_node,
        s.ops.add_conn,
        s.ops.delete_node,
        s.ops.delete_conn,
        s.inference_macs,
        s.env_steps,
        s.speciate_ns,
        s.reproduce_ns,
        s.eval_ns,
    ] {
        words.push(v);
    }
    push_f64(&mut words, s.diagnostics.high_order_entropy);
    words.push(s.diagnostics.unique_genomes as u64);
    push_f64(&mut words, s.diagnostics.species_entropy);
    words.push(s.diagnostics.largest_species as u64);
    match &event.best {
        Some(b) => {
            words.push(1);
            words.push(b.key);
            match b.fitness {
                Some(f) => {
                    words.push(1);
                    push_f64(&mut words, f);
                }
                None => {
                    words.push(0);
                    words.push(0);
                }
            }
            words.push(b.nodes as u64);
            words.push(b.conns as u64);
        }
        None => words.push(0),
    }
    seal_envelope(words)
}

/// Deserializes an event image produced by [`encode_event`].
///
/// # Errors
///
/// Any malformed, truncated or corrupted input returns a typed
/// [`SnapshotError`]; this function never panics on adversarial bytes.
pub fn decode_event(words: &[u64]) -> Result<OwnedGenerationEvent, SnapshotError> {
    let mut c = open_envelope(words, EVENT_MAGIC, EVENT_VERSION)?;
    let generation = c.take_usize()?;
    let max_fitness = c.take_f64()?;
    let mean_fitness = c.take_f64()?;
    let min_fitness = c.take_f64()?;
    let num_species = c.take_usize()?;
    let total_nodes = c.take_usize()?;
    let total_conns = c.take_usize()?;
    let total_genes = c.take_usize()?;
    let max_genome_genes = c.take_usize()?;
    let memory_bytes = c.take_usize()?;
    let fittest_parent_reuse = c.take_usize()?;
    let ops = OpCounters {
        crossover: c.take()?,
        perturb: c.take()?,
        add_node: c.take()?,
        add_conn: c.take()?,
        delete_node: c.take()?,
        delete_conn: c.take()?,
    };
    let inference_macs = c.take()?;
    let env_steps = c.take()?;
    let speciate_ns = c.take()?;
    let reproduce_ns = c.take()?;
    let eval_ns = c.take()?;
    let diagnostics = PopulationDiagnostics {
        high_order_entropy: c.take_f64()?,
        unique_genomes: c.take_usize()?,
        species_entropy: c.take_f64()?,
        largest_species: c.take_usize()?,
    };
    let best = match c.take()? {
        0 => None,
        1 => {
            let key = c.take()?;
            let fitness = match c.take()? {
                0 => {
                    c.take()?;
                    None
                }
                1 => Some(c.take_f64()?),
                _ => return Err(SnapshotError::Malformed("best-fitness flag")),
            };
            Some(BestSummary {
                key,
                fitness,
                nodes: c.take_usize()?,
                conns: c.take_usize()?,
            })
        }
        _ => return Err(SnapshotError::Malformed("best-summary flag")),
    };
    close_envelope(&c)?;
    Ok(OwnedGenerationEvent {
        stats: GenerationStats {
            generation,
            max_fitness,
            mean_fitness,
            min_fitness,
            num_species,
            total_nodes,
            total_conns,
            total_genes,
            max_genome_genes,
            memory_bytes,
            ops,
            fittest_parent_reuse,
            inference_macs,
            env_steps,
            diagnostics,
            speciate_ns,
            reproduce_ns,
            eval_ns,
        },
        best,
    })
}

/// Byte form of [`encode_event`] (little-endian words).
pub fn event_to_bytes(event: &OwnedGenerationEvent) -> Vec<u8> {
    words_to_bytes(&encode_event(event))
}

/// Byte form of [`decode_event`].
///
/// # Errors
///
/// See [`decode_event`].
pub fn event_from_bytes(bytes: &[u8]) -> Result<OwnedGenerationEvent, SnapshotError> {
    decode_event(&bytes_to_words(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::{EvalContext, Network, Session};

    fn test_config(islands: usize) -> NeatConfig {
        NeatConfig::builder(3, 2)
            .pop_size(14)
            .islands(islands)
            .migration_interval(2)
            .migration_k(1)
            .node_add_prob(0.6)
            .conn_add_prob(0.6)
            .target_fitness(Some(1e9))
            .build()
            .unwrap()
    }

    fn test_fitness(ctx: EvalContext, net: &Network) -> f64 {
        let x = (ctx.seed() % 13) as f64 / 13.0;
        net.activate(&[x, 0.5, 1.0 - x]).iter().sum()
    }

    fn evolved_run_state(seed: u64, generations: usize, islands: usize) -> RunState {
        let mut s = Session::builder(test_config(islands), seed)
            .unwrap()
            .workload(test_fitness)
            .build();
        s.run(generations);
        s.export_state()
    }

    fn evolved_state(seed: u64, generations: usize) -> RunState {
        evolved_run_state(seed, generations, 1)
    }

    #[test]
    fn roundtrip_is_exact() {
        let state = evolved_state(7, 5);
        let words = encode_snapshot(&state).unwrap();
        let back = decode_snapshot(&words).unwrap();
        assert_eq!(state, back);
        // And a fixed point: re-encoding the decoded state yields the
        // same bytes.
        assert_eq!(words, encode_snapshot(&back).unwrap());
    }

    #[test]
    fn bytes_roundtrip_is_exact() {
        let state = evolved_state(21, 4);
        let bytes = snapshot_to_bytes(&state).unwrap();
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(state, back);
    }

    /// Input genes are constants that the compatibility distance skips,
    /// so an image whose input gene carries another bias must not decode,
    /// even under a valid checksum (which detects corruption, not
    /// forgery).
    #[test]
    fn forged_input_bias_is_an_invalid_genome() {
        let state = evolved_state(8, 3);
        let mut words = encode_snapshot(&state).unwrap();
        let input = encode_node_word(&genesys_neat::NodeGene::input(genesys_neat::NodeId(1)));
        let at = words
            .windows(3)
            .position(|w| w == [input, 0.0f64.to_bits(), 1.0f64.to_bits()])
            .expect("a genome record holds input 1");
        words[at + 1] = 0.5f64.to_bits();
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        let err = snapshot_from_bytes(&words_to_bytes(&words)).unwrap_err();
        assert!(matches!(err, SnapshotError::InvalidGenome(_)), "{err:?}");
    }

    #[test]
    fn every_truncation_errors_and_never_panics() {
        let state = evolved_state(3, 3);
        let words = encode_snapshot(&state).unwrap();
        for len in 0..words.len() {
            assert!(
                decode_snapshot(&words[..len]).is_err(),
                "prefix of {len} words must not decode"
            );
        }
        let bytes = snapshot_to_bytes(&state).unwrap();
        for len in (0..bytes.len()).step_by(7) {
            assert!(snapshot_from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let state = evolved_state(9, 3);
        let words = encode_snapshot(&state).unwrap();
        // Every word, one flipped bit each (cycling bit positions keeps
        // the test fast while touching every region of the image).
        for (i, bit) in (0..words.len()).map(|i| (i, (i * 13) % 64)) {
            let mut corrupt = words.clone();
            corrupt[i] ^= 1u64 << bit;
            assert!(
                decode_snapshot(&corrupt).is_err(),
                "flip of bit {bit} in word {i} must not decode"
            );
        }
    }

    #[test]
    fn garbage_input_errors() {
        assert_eq!(
            decode_snapshot(&[]).unwrap_err(),
            SnapshotError::Truncated { offset: 0 }
        );
        assert_eq!(
            decode_snapshot(&[1, 2, 3]).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut rng = genesys_neat::XorWow::seed_from_u64_value(5);
        for _ in 0..50 {
            let words: Vec<u64> = (0..64)
                .map(|_| (u64::from(rng.next_u32_value()) << 32) | u64::from(rng.next_u32_value()))
                .collect();
            assert!(decode_snapshot(&words).is_err());
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let state = evolved_state(11, 2);
        let mut words = encode_snapshot(&state).unwrap();
        words[1] = SNAPSHOT_VERSION + 1;
        // Recompute the checksum so the version check itself is what trips.
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        assert_eq!(
            decode_snapshot(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1)
        );
    }

    /// `state.genomes[0]` with an extra hidden node of the given id,
    /// installed as `best_ever` under the next genome key, with the
    /// innovation and key counters past it.
    fn with_forged_id(state: RunState, id: u32) -> RunState {
        let RunState::Monolithic(mut state) = state else {
            panic!("forged-id helper expects a monolithic state");
        };
        let config = &state.config;
        let forged = Genome::from_parts(
            state.next_key,
            config.num_inputs,
            config.num_outputs,
            state.genomes[0].nodes().copied().chain(std::iter::once(
                genesys_neat::NodeGene::hidden(genesys_neat::NodeId(id)),
            )),
            state.genomes[0].conns().copied(),
        )
        .unwrap();
        state.best_ever = Some(forged);
        state.innovation_next_node = id + 1;
        state.next_key += 1;
        RunState::Monolithic(state)
    }

    #[test]
    fn node_id_overflow_is_a_typed_error() {
        // Beyond the 31-bit snapshot wire limit.
        let state = with_forged_id(evolved_state(2, 1), SNAPSHOT_MAX_NODE_ID + 1);
        assert!(matches!(
            encode_snapshot(&state),
            Err(SnapshotError::NodeIdOverflow { .. })
        ));
    }

    #[test]
    fn ids_beyond_the_hardware_limit_roundtrip() {
        // v1 reused the hardware gene word and failed here; the v2
        // snapshot words carry 31-bit ids, so megapopulation-sized node
        // ids checkpoint exactly.
        use crate::codec::MAX_NODE_ID as HW_MAX_NODE_ID;
        for id in [HW_MAX_NODE_ID + 1, 1 << 20, SNAPSHOT_MAX_NODE_ID] {
            let state = with_forged_id(evolved_state(2, 1), id);
            let words = encode_snapshot(&state).unwrap();
            let back = decode_snapshot(&words).unwrap();
            assert_eq!(state, back, "id {id}");
        }
    }

    #[test]
    fn v1_images_are_rejected() {
        let state = evolved_state(6, 2);
        let mut words = encode_snapshot(&state).unwrap();
        words[1] = 1;
        // Recompute the checksum so the version check itself is what trips.
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        assert_eq!(
            decode_snapshot(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn v2_images_are_rejected() {
        // v2 predates the state kind word and the island config knobs, so
        // it is rejected like v1, not migrated.
        let state = evolved_state(6, 2);
        let mut words = encode_snapshot(&state).unwrap();
        words[1] = 2;
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        assert_eq!(
            decode_snapshot(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(2)
        );
    }

    #[test]
    fn archipelago_snapshot_roundtrips_and_resumes() {
        let state = evolved_run_state(19, 3, 3);
        assert!(state.as_archipelago().is_some());
        let words = encode_snapshot(&state).unwrap();
        let back = decode_snapshot(&words).unwrap();
        assert_eq!(state, back);
        assert_eq!(words, encode_snapshot(&back).unwrap());
        // Truncation and bit flips stay typed errors for the new body.
        for len in (0..words.len()).step_by(11) {
            assert!(decode_snapshot(&words[..len]).is_err());
        }
        for (i, bit) in (0..words.len()).map(|i| (i, (i * 13) % 64)) {
            let mut corrupt = words.clone();
            corrupt[i] ^= 1u64 << bit;
            assert!(decode_snapshot(&corrupt).is_err());
        }
        // A decoded archipelago checkpoint resumes bit-identically.
        let mut resumed = Session::resume(back)
            .unwrap()
            .workload(test_fitness)
            .build();
        let mut full = Session::builder(test_config(3), 19)
            .unwrap()
            .workload(test_fitness)
            .build();
        full.run(3 + 2);
        resumed.run(2);
        assert!(full.genomes().eq(resumed.genomes()));
    }

    #[test]
    fn archipelago_epoch_cross_check_is_enforced() {
        let state = evolved_run_state(19, 3, 3);
        let words = encode_snapshot(&state).unwrap();
        // The epoch word sits right after config/seed/generation in the
        // archipelago body; find it by re-encoding with a poked epoch.
        let config_len = {
            let mut w = Vec::new();
            encode_config(&mut w, state.config());
            w.len()
        };
        let epoch_index = 3 + 1 + config_len + 2;
        let mut corrupt = words.clone();
        corrupt[epoch_index] += 1;
        let n = corrupt.len();
        corrupt[n - 1] = fnv1a(&corrupt[..n - 1]);
        assert_eq!(
            decode_snapshot(&corrupt).unwrap_err(),
            SnapshotError::Malformed("migration epoch")
        );
    }

    #[test]
    fn unknown_state_kind_is_rejected() {
        let state = evolved_state(5, 1);
        let mut words = encode_snapshot(&state).unwrap();
        words[3] = 9;
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        assert_eq!(
            decode_snapshot(&words).unwrap_err(),
            SnapshotError::Malformed("state kind")
        );
    }

    /// Offset of the reserved word inside an encoded config: three
    /// interface words, three initial-weight words, 27 `f64` rates and six
    /// counts come before it.
    const RESERVED_AT: usize = 3 + 3 + 27 + 6;

    /// `words` with the reserved config word at `at` set to `value`, under
    /// a recomputed checksum, so the word itself is what a decoder sees.
    fn with_reserved_word(mut words: Vec<u64>, at: usize, value: u64) -> Vec<u64> {
        assert_eq!(words[at], 1, "encoders write the reserved word as 1");
        words[at] = value;
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        words
    }

    #[test]
    fn reserved_config_word_other_than_one_is_malformed() {
        let state = evolved_state(10, 2);
        let want = SnapshotError::Malformed("reserved config word");
        // A snapshot's config follows magic, version, length and kind; a
        // config image's follows the first three.
        let snapshot = with_reserved_word(encode_snapshot(&state).unwrap(), 4 + RESERVED_AT, 3);
        assert_eq!(decode_snapshot(&snapshot).unwrap_err(), want);
        let config = with_reserved_word(encode_config_image(state.config()), 3 + RESERVED_AT, 3);
        assert_eq!(decode_config_image(&config).unwrap_err(), want);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let state = evolved_state(4, 2);
        let mut words = encode_snapshot(&state).unwrap();
        words.push(0xDEAD_BEEF);
        assert!(decode_snapshot(&words).is_err());
    }

    #[test]
    fn config_image_roundtrips_and_rejects_corruption() {
        let config = evolved_state(8, 1).config().clone();
        let words = encode_config_image(&config);
        assert_eq!(decode_config_image(&words).unwrap(), config);
        assert_eq!(
            config_from_bytes(&config_to_bytes(&config)).unwrap(),
            config
        );
        // Truncation of every prefix is a typed error, never a panic.
        for len in 0..words.len() {
            assert!(decode_config_image(&words[..len]).is_err());
        }
        // Bit flips are caught.
        for (i, bit) in (0..words.len()).map(|i| (i, (i * 17) % 64)) {
            let mut corrupt = words.clone();
            corrupt[i] ^= 1u64 << bit;
            assert!(decode_config_image(&corrupt).is_err());
        }
        // A snapshot image is not a config image (magic distinguishes).
        let snap = encode_snapshot(&evolved_state(8, 1)).unwrap();
        assert_eq!(
            decode_config_image(&snap).unwrap_err(),
            SnapshotError::BadMagic
        );
        // A structurally valid image carrying an invalid config is typed.
        let mut bad = config.clone();
        bad.pop_size = 0;
        let mut words = vec![CONFIG_MAGIC, SNAPSHOT_VERSION, 0];
        encode_config(&mut words, &bad);
        let words = seal_envelope(words);
        assert!(matches!(
            decode_config_image(&words),
            Err(SnapshotError::InvalidState(_))
        ));
    }

    #[test]
    fn event_image_roundtrips_and_rejects_corruption() {
        let state = evolved_state(15, 3);
        let state = state.as_monolithic().unwrap();
        let best = state.best_ever.as_ref().unwrap();
        let mut event = OwnedGenerationEvent {
            stats: GenerationStats::collect(2, &state.genomes, state.species.len(), None, 77),
            best: Some(BestSummary::of(best)),
        };
        event.stats.env_steps = 123;
        for e in [
            event.clone(),
            OwnedGenerationEvent {
                best: None,
                ..event.clone()
            },
        ] {
            let words = encode_event(&e);
            assert_eq!(decode_event(&words).unwrap(), e);
            assert_eq!(event_from_bytes(&event_to_bytes(&e)).unwrap(), e);
            for len in 0..words.len() {
                assert!(decode_event(&words[..len]).is_err());
            }
            for (i, bit) in (0..words.len()).map(|i| (i, (i * 29) % 64)) {
                let mut corrupt = words.clone();
                corrupt[i] ^= 1u64 << bit;
                assert!(decode_event(&corrupt).is_err());
            }
        }
        // Event version policy mirrors the snapshot one.
        let mut words = encode_event(&event);
        words[1] = EVENT_VERSION + 1;
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        assert_eq!(
            decode_event(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(EVENT_VERSION + 1)
        );
    }
}
