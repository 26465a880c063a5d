//! The 64-bit hardware gene encoding (Fig 6 of the paper).
//!
//! "We use 64 bits to capture both types of genes." One SRAM word = one
//! gene. Node genes carry `{type, id, bias, response, activation,
//! aggregation}`; connection genes carry `{src, dst, weight, enabled}`.
//! Continuous attributes are stored in signed fixed point, so a genome that
//! round-trips through the genome buffer is *quantized* — the SoC evolves
//! fixed-point genomes, an effect the `quantization` ablation bench
//! measures.
//!
//! Bit layout (MSB first):
//!
//! ```text
//! node  [63]=0 [62:61]=type [60:47]=id   [46:35]=bias(Q5.6) [34:23]=response(Q5.6) [22:19]=act [18:16]=agg [15:0]=0
//! conn  [63]=1 [62:49]=src  [48:35]=dst  [34:19]=weight(Q6.9) [18]=enabled [17:0]=0
//! ```

use genesys_neat::gene::{ConnGene, ConnKey, NodeGene, NodeId, NodeType};
use genesys_neat::{Activation, Aggregation, Genome};
use std::error::Error;
use std::fmt;

/// Width of the node-id fields: 14 bits.
pub const NODE_ID_BITS: u32 = 14;
/// Largest encodable node id.
pub const MAX_NODE_ID: u32 = (1 << NODE_ID_BITS) - 1;
/// Fixed-point scale for bias/response (Q5.6: 6 fraction bits).
pub const ATTR_SCALE: f64 = 64.0;
/// Fixed-point scale for connection weights (Q6.9: 9 fraction bits).
pub const WEIGHT_SCALE: f64 = 512.0;

const ATTR_BITS: u32 = 12;
const WEIGHT_BITS: u32 = 16;

/// Error produced when decoding a malformed gene word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A node gene used the reserved type pattern `11`.
    ReservedNodeType,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::ReservedNodeType => write!(f, "reserved node type pattern 0b11"),
        }
    }
}

impl Error for DecodeError {}

/// A decoded gene: either kind, as stored in the genome buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gene {
    /// A node (vertex) gene.
    Node(NodeGene),
    /// A connection (edge) gene.
    Conn(ConnGene),
}

impl Gene {
    /// The sort key used by the genome buffer layout: node genes first (by
    /// id), then connection genes (by `(src, dst)`).
    pub fn sort_key(&self) -> (u8, u32, u32) {
        match self {
            Gene::Node(n) => (0, n.id.0, 0),
            Gene::Conn(c) => (1, c.key.src.0, c.key.dst.0),
        }
    }
}

#[inline]
fn quantize(value: f64, scale: f64, bits: u32) -> u64 {
    let max = (1i64 << (bits - 1)) - 1;
    let min = -(1i64 << (bits - 1));
    let raw = (value * scale).round() as i64;
    let clamped = raw.clamp(min, max);
    (clamped as u64) & ((1u64 << bits) - 1)
}

#[inline]
fn dequantize(raw: u64, scale: f64, bits: u32) -> f64 {
    // Sign-extend the `bits`-wide field.
    let shift = 64 - bits;
    let signed = ((raw << shift) as i64) >> shift;
    signed as f64 / scale
}

/// Quantizes a bias/response value exactly as the gene word stores it.
pub fn quantize_attr(value: f64) -> f64 {
    dequantize(
        quantize(value, ATTR_SCALE, ATTR_BITS),
        ATTR_SCALE,
        ATTR_BITS,
    )
}

/// Quantizes a connection weight exactly as the gene word stores it.
pub fn quantize_weight(value: f64) -> f64 {
    dequantize(
        quantize(value, WEIGHT_SCALE, WEIGHT_BITS),
        WEIGHT_SCALE,
        WEIGHT_BITS,
    )
}

/// Encodes a node gene into its 64-bit word.
///
/// Node ids are truncated to [`NODE_ID_BITS`]; the SoC configuration keeps
/// genomes below that (Section IV gene encoding).
pub fn encode_node(node: &NodeGene) -> u64 {
    let mut w = 0u64;
    // bit 63 = 0 (node)
    w |= u64::from(node.node_type.to_code() & 0b11) << 61;
    w |= u64::from(node.id.0 & MAX_NODE_ID) << 47;
    w |= quantize(node.bias, ATTR_SCALE, ATTR_BITS) << 35;
    w |= quantize(node.response, ATTR_SCALE, ATTR_BITS) << 23;
    w |= u64::from(node.activation.to_code() & 0xF) << 19;
    w |= u64::from(node.aggregation.to_code() & 0x7) << 16;
    w
}

/// Encodes a connection gene into its 64-bit word.
pub fn encode_conn(conn: &ConnGene) -> u64 {
    let mut w = 1u64 << 63;
    w |= u64::from(conn.key.src.0 & MAX_NODE_ID) << 49;
    w |= u64::from(conn.key.dst.0 & MAX_NODE_ID) << 35;
    w |= quantize(conn.weight, WEIGHT_SCALE, WEIGHT_BITS) << 19;
    w |= u64::from(conn.enabled) << 18;
    w
}

/// Encodes either gene kind.
pub fn encode(gene: &Gene) -> u64 {
    match gene {
        Gene::Node(n) => encode_node(n),
        Gene::Conn(c) => encode_conn(c),
    }
}

/// Decodes a 64-bit gene word.
///
/// # Errors
///
/// Returns [`DecodeError::ReservedNodeType`] for the reserved node-type
/// pattern.
pub fn decode(word: u64) -> Result<Gene, DecodeError> {
    if word >> 63 == 0 {
        let type_code = ((word >> 61) & 0b11) as u8;
        if type_code == 0b11 {
            return Err(DecodeError::ReservedNodeType);
        }
        // Hardware type field: 00 hidden, 01 input, 10 output (Fig 6).
        let node_type = NodeType::from_code(type_code);
        Ok(Gene::Node(NodeGene {
            id: NodeId(((word >> 47) & u64::from(MAX_NODE_ID)) as u32),
            node_type,
            bias: dequantize((word >> 35) & 0xFFF, ATTR_SCALE, ATTR_BITS),
            response: dequantize((word >> 23) & 0xFFF, ATTR_SCALE, ATTR_BITS),
            activation: Activation::from_code(((word >> 19) & 0xF) as u8),
            aggregation: Aggregation::from_code(((word >> 16) & 0x7) as u8),
        }))
    } else {
        Ok(Gene::Conn(ConnGene {
            key: ConnKey::new(
                NodeId(((word >> 49) & u64::from(MAX_NODE_ID)) as u32),
                NodeId(((word >> 35) & u64::from(MAX_NODE_ID)) as u32),
            ),
            weight: dequantize((word >> 19) & 0xFFFF, WEIGHT_SCALE, WEIGHT_BITS),
            enabled: (word >> 18) & 1 == 1,
        }))
    }
}

/// Serializes a genome into its genome-buffer image: node genes in
/// ascending id order, then connection genes in ascending key order — the
/// "two logical clusters" layout of Section IV-C5.
pub fn encode_genome(genome: &Genome) -> Vec<u64> {
    let mut words = Vec::with_capacity(genome.num_genes());
    for node in genome.nodes() {
        words.push(encode_node(node));
    }
    for conn in genome.conns() {
        words.push(encode_conn(conn));
    }
    words
}

/// Deserializes a genome-buffer image back into a [`Genome`].
///
/// # Errors
///
/// Returns an error string if a word is malformed or the gene set violates
/// genome invariants (the Gene Merge validity checks).
pub fn decode_genome(
    key: u64,
    num_inputs: usize,
    num_outputs: usize,
    words: &[u64],
) -> Result<Genome, Box<dyn Error>> {
    let mut nodes = Vec::new();
    let mut conns = Vec::new();
    for &w in words {
        match decode(w)? {
            Gene::Node(n) => nodes.push(n),
            Gene::Conn(c) => conns.push(c),
        }
    }
    Ok(Genome::from_parts(
        key,
        num_inputs,
        num_outputs,
        nodes,
        conns,
    )?)
}

/// Quantizes every continuous attribute of a genome to the fixed-point
/// grid of the hardware encoding (what storing it in the genome buffer
/// does). Used by the quantization ablation.
pub fn quantize_genome(genome: &Genome) -> Genome {
    let nodes: Vec<NodeGene> = genome
        .nodes()
        .map(|n| NodeGene {
            bias: quantize_attr(n.bias),
            response: quantize_attr(n.response),
            ..*n
        })
        .collect();
    let conns: Vec<ConnGene> = genome
        .conns()
        .map(|c| ConnGene {
            weight: quantize_weight(c.weight),
            ..*c
        })
        .collect();
    Genome::from_parts(
        genome.key(),
        genome.num_inputs(),
        genome.num_outputs(),
        nodes,
        conns,
    )
    .expect("quantization preserves structure")
}

/// Marker placed before each genome in a population image. Uses the
/// reserved node-type pattern `0b11` (never produced by [`encode_node`]),
/// so a header can never be confused with a gene word.
const GENOME_HEADER_TAG: u64 = 0b011 << 61;

fn encode_header(key: u64, num_genes: usize) -> u64 {
    GENOME_HEADER_TAG | ((key & 0xFFFF_FFFF) << 24) | (num_genes as u64 & 0xFF_FFFF)
}

fn decode_header(word: u64) -> Option<(u64, usize)> {
    if word >> 61 != 0b011 {
        return None;
    }
    Some(((word >> 24) & 0xFFFF_FFFF, (word & 0xFF_FFFF) as usize))
}

/// Serializes a whole population into one genome-buffer image — the
/// checkpoint format of the SoC. Layout per genome: a header word
/// (key + gene count), a raw `f64`-bits fitness word, then the gene words
/// in buffer order.
pub fn encode_population<'a>(genomes: impl IntoIterator<Item = &'a Genome>) -> Vec<u64> {
    let mut words = Vec::new();
    for g in genomes {
        words.push(encode_header(g.key(), g.num_genes()));
        words.push(g.fitness().unwrap_or(f64::NAN).to_bits());
        words.extend(encode_genome(g));
    }
    words
}

/// Deserializes a population image produced by [`encode_population`].
///
/// # Errors
///
/// Returns an error string if a header is missing/truncated or any genome
/// fails validation.
pub fn decode_population(
    num_inputs: usize,
    num_outputs: usize,
    words: &[u64],
) -> Result<Vec<Genome>, Box<dyn Error>> {
    let mut genomes = Vec::new();
    let mut i = 0usize;
    while i < words.len() {
        let (key, num_genes) =
            decode_header(words[i]).ok_or_else(|| format!("expected genome header at word {i}"))?;
        let fitness = f64::from_bits(*words.get(i + 1).ok_or("truncated fitness word")?);
        let body = words
            .get(i + 2..i + 2 + num_genes)
            .ok_or("truncated genome body")?;
        let mut genome = decode_genome(key, num_inputs, num_outputs, body)?;
        if fitness.is_finite() {
            genome.set_fitness(fitness);
        }
        genomes.push(genome);
        i += 2 + num_genes;
    }
    Ok(genomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::{NeatConfig, XorWow};

    #[test]
    fn node_roundtrip_preserves_discrete_fields() {
        let mut node = NodeGene::hidden(NodeId(1234));
        node.activation = Activation::Tanh;
        node.aggregation = Aggregation::Max;
        node.bias = 1.5;
        node.response = -2.25;
        let decoded = decode(encode_node(&node)).unwrap();
        match decoded {
            Gene::Node(d) => {
                assert_eq!(d.id, node.id);
                assert_eq!(d.node_type, node.node_type);
                assert_eq!(d.activation, node.activation);
                assert_eq!(d.aggregation, node.aggregation);
                assert_eq!(d.bias, 1.5, "1.5 is exactly representable in Q5.6");
                assert_eq!(d.response, -2.25);
            }
            Gene::Conn(_) => panic!("decoded wrong kind"),
        }
    }

    #[test]
    fn conn_roundtrip() {
        let mut conn = ConnGene::new(NodeId(3), NodeId(9001), -0.5);
        conn.enabled = false;
        let decoded = decode(encode_conn(&conn)).unwrap();
        match decoded {
            Gene::Conn(d) => {
                assert_eq!(d.key, conn.key);
                assert_eq!(d.weight, -0.5);
                assert!(!d.enabled);
            }
            Gene::Node(_) => panic!("decoded wrong kind"),
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        let mut rng = XorWow::seed_from_u64_value(5);
        for _ in 0..10_000 {
            let v = rng.uniform(-30.0, 30.0);
            assert!((quantize_attr(v) - v).abs() <= 0.5 / ATTR_SCALE + 1e-12);
            assert!((quantize_weight(v) - v).abs() <= 0.5 / WEIGHT_SCALE + 1e-12);
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let q = quantize_attr(1000.0);
        assert!(q <= 32.0, "Q5.6 clamps at +32, got {q}");
        let q = quantize_weight(-1000.0);
        assert!(q >= -64.0 - 1e-9, "Q6.9 clamps at -64, got {q}");
    }

    #[test]
    fn node_type_patterns_match_fig6() {
        // 00: hidden, 01: input, 10: output.
        let hidden = encode_node(&NodeGene::hidden(NodeId(0)));
        let input = encode_node(&NodeGene::input(NodeId(0)));
        let output = encode_node(&NodeGene::output(NodeId(0)));
        assert_eq!((hidden >> 61) & 0b11, 0b00);
        assert_eq!((input >> 61) & 0b11, 0b01);
        assert_eq!((output >> 61) & 0b11, 0b10);
    }

    #[test]
    fn reserved_type_rejected() {
        let word = 0b11u64 << 61;
        assert_eq!(decode(word).unwrap_err(), DecodeError::ReservedNodeType);
    }

    #[test]
    fn genome_image_roundtrips() {
        let config = NeatConfig::builder(4, 2).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(11);
        let genome = Genome::initial(7, &config, &mut rng);
        let words = encode_genome(&genome);
        assert_eq!(words.len(), genome.num_genes());
        let back = decode_genome(7, 4, 2, &words).unwrap();
        assert_eq!(back.num_nodes(), genome.num_nodes());
        assert_eq!(back.num_conns(), genome.num_conns());
        for (a, b) in genome.nodes().zip(back.nodes()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.node_type, b.node_type);
        }
    }

    #[test]
    fn genome_image_is_sorted_nodes_then_conns() {
        let config = NeatConfig::builder(3, 1).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(2);
        let genome = Genome::initial(0, &config, &mut rng);
        let words = encode_genome(&genome);
        let genes: Vec<Gene> = words.iter().map(|&w| decode(w).unwrap()).collect();
        let keys: Vec<_> = genes.iter().map(Gene::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "buffer image must be in genome-buffer order");
    }

    #[test]
    fn population_image_roundtrips_with_fitness() {
        let config = NeatConfig::builder(3, 1).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(21);
        let genomes: Vec<Genome> = (0..5u64)
            .map(|k| {
                let mut g = Genome::initial(k, &config, &mut rng);
                g.set_fitness(k as f64 * 1.5);
                g
            })
            .collect();
        let words = encode_population(&genomes);
        let back = decode_population(3, 1, &words).unwrap();
        assert_eq!(back.len(), 5);
        for (a, b) in genomes.iter().zip(back.iter()) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.num_genes(), b.num_genes());
            assert_eq!(a.fitness(), b.fitness());
        }
    }

    #[test]
    fn unevaluated_fitness_survives_roundtrip_as_none() {
        let config = NeatConfig::builder(2, 1).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(22);
        let genomes = vec![Genome::initial(9, &config, &mut rng)];
        let back = decode_population(2, 1, &encode_population(&genomes)).unwrap();
        assert_eq!(back[0].fitness(), None);
    }

    #[test]
    fn header_tag_never_collides_with_genes() {
        let config = NeatConfig::builder(4, 2).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(23);
        let genome = Genome::initial(0, &config, &mut rng);
        for word in encode_genome(&genome) {
            assert!(decode_header(word).is_none(), "gene decoded as header");
        }
    }

    #[test]
    fn truncated_population_image_errors() {
        let config = NeatConfig::builder(2, 1).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(24);
        let genomes = vec![Genome::initial(0, &config, &mut rng)];
        let mut words = encode_population(&genomes);
        words.pop();
        assert!(decode_population(2, 1, &words).is_err());
    }

    #[test]
    fn garbage_header_errors() {
        let err = decode_population(2, 1, &[0u64, 0u64]).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn quantize_genome_preserves_structure_and_grids_attributes() {
        let config = NeatConfig::builder(3, 2).build().unwrap();
        let mut rng = XorWow::seed_from_u64_value(13);
        let mut genome = Genome::initial(0, &config, &mut rng);
        let mut ops = genesys_neat::trace::OpCounters::new();
        genome.mutate_attributes(&config, &mut rng, &mut ops);
        let q = quantize_genome(&genome);
        assert_eq!(q.num_genes(), genome.num_genes());
        for conn in q.conns() {
            let snapped = quantize_weight(conn.weight);
            assert_eq!(conn.weight, snapped, "already on the grid");
        }
    }
}
