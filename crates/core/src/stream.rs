//! Gene movement blocks: **Gene Split** and **Gene Merge** (Section IV-C4).
//!
//! Gene Split "sits between the PEs and the Genome Buffer to ensure that
//! the alignment is maintained and proper gene pairs are sent to the PEs
//! every cycle": both parents' gene streams are merged by key — node genes
//! first, then connection genes, each cluster in ascending key order — so
//! the crossover engine always sees the two versions of the *same* gene
//! together. Gene Merge re-assembles child genes into a well-formed genome
//! image and writes it back to the buffer.

use crate::codec::Gene;
use genesys_neat::gene::{ConnGene, NodeGene, NodeType};
use genesys_neat::{Genome, GenomeError};

/// One aligned slot of the parent gene streams: the same key as seen by
/// parent 1 (the fitter parent) and parent 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignedPair {
    /// The fitter parent's gene, if it has this key.
    pub fit: Option<Gene>,
    /// The other parent's gene, if it has this key.
    pub other: Option<Gene>,
}

impl AlignedPair {
    /// True when both parents carry the gene (a *matching* gene in NEAT
    /// terms; crossover cherry-picks attributes).
    pub fn is_matching(&self) -> bool {
        self.fit.is_some() && self.other.is_some()
    }
}

/// Aligns two parents' gene streams by key (the Gene Split function).
///
/// The output preserves the genome-buffer order: all node slots first,
/// then all connection slots. Keys present only in one parent produce a
/// half-empty pair (a *disjoint/excess* gene).
pub fn align_parents(fit: &Genome, other: &Genome) -> Vec<AlignedPair> {
    let mut out = Vec::with_capacity(fit.num_genes().max(other.num_genes()));
    // Node cluster: two sorted iterators merged by id.
    let mut a = fit.nodes().peekable();
    let mut b = other.nodes().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                let pair = match x.id.cmp(&y.id) {
                    std::cmp::Ordering::Less => AlignedPair {
                        fit: Some(Gene::Node(*a.next().expect("peeked"))),
                        other: None,
                    },
                    std::cmp::Ordering::Greater => AlignedPair {
                        fit: None,
                        other: Some(Gene::Node(*b.next().expect("peeked"))),
                    },
                    std::cmp::Ordering::Equal => AlignedPair {
                        fit: Some(Gene::Node(*a.next().expect("peeked"))),
                        other: Some(Gene::Node(*b.next().expect("peeked"))),
                    },
                };
                out.push(pair);
            }
            (Some(_), None) => out.push(AlignedPair {
                fit: Some(Gene::Node(*a.next().expect("peeked"))),
                other: None,
            }),
            (None, Some(_)) => out.push(AlignedPair {
                fit: None,
                other: Some(Gene::Node(*b.next().expect("peeked"))),
            }),
            (None, None) => break,
        }
    }
    // Connection cluster.
    let mut a = fit.conns().peekable();
    let mut b = other.conns().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                let pair = match x.key.cmp(&y.key) {
                    std::cmp::Ordering::Less => AlignedPair {
                        fit: Some(Gene::Conn(*a.next().expect("peeked"))),
                        other: None,
                    },
                    std::cmp::Ordering::Greater => AlignedPair {
                        fit: None,
                        other: Some(Gene::Conn(*b.next().expect("peeked"))),
                    },
                    std::cmp::Ordering::Equal => AlignedPair {
                        fit: Some(Gene::Conn(*a.next().expect("peeked"))),
                        other: Some(Gene::Conn(*b.next().expect("peeked"))),
                    },
                };
                out.push(pair);
            }
            (Some(_), None) => out.push(AlignedPair {
                fit: Some(Gene::Conn(*a.next().expect("peeked"))),
                other: None,
            }),
            (None, Some(_)) => out.push(AlignedPair {
                fit: None,
                other: Some(Gene::Conn(*b.next().expect("peeked"))),
            }),
            (None, None) => break,
        }
    }
    out
}

/// Outcome of assembling a child genome from PE output genes.
#[derive(Debug)]
pub struct MergeReport {
    /// The assembled, validated child genome.
    pub genome: Genome,
    /// Connection genes dropped because an endpoint was missing.
    pub dropped_dangling: usize,
    /// Connection genes dropped because they would have made the graph
    /// cyclic (feed-forward repair; see [`merge_child`]).
    pub dropped_cyclic: usize,
    /// Genes dropped as duplicates of an earlier key.
    pub dropped_duplicates: usize,
}

/// Assembles child genes into a valid genome (the Gene Merge function).
///
/// "The gene merge logic organizes the child genes and produces the entire
/// genome"; for newly added genes it "ensures that they are sequenced in
/// the right order when put together in memory". On top of ordering, this
/// model performs the validity repairs the paper assigns to the
/// merge/CPU path: duplicate keys, dangling connections and — a deviation
/// from the paper, so that every child stays the feed-forward graph
/// `genesys_neat::Network` compiles — cycle-creating additions are
/// dropped.
///
/// # Errors
///
/// Returns a [`GenomeError`] only if repairs cannot restore validity
/// (e.g. an interface node disappeared, which the PE never does).
pub fn merge_child(
    key: u64,
    num_inputs: usize,
    num_outputs: usize,
    genes: Vec<Gene>,
) -> Result<MergeReport, GenomeError> {
    let mut nodes: Vec<NodeGene> = Vec::new();
    let mut conns: Vec<ConnGene> = Vec::new();
    let mut dropped_duplicates = 0usize;
    for gene in genes {
        match gene {
            Gene::Node(n) => {
                if nodes.iter().any(|m| m.id == n.id) {
                    dropped_duplicates += 1;
                } else {
                    nodes.push(n);
                }
            }
            Gene::Conn(c) => {
                if conns.iter().any(|d| d.key == c.key) {
                    dropped_duplicates += 1;
                } else {
                    conns.push(c);
                }
            }
        }
    }
    nodes.sort_by_key(|n| n.id);
    conns.sort_by_key(|c| c.key);

    // Dangling / into-input repair.
    let mut dropped_dangling = 0usize;
    let node_ids: std::collections::BTreeSet<_> = nodes.iter().map(|n| n.id).collect();
    let input_ids: std::collections::BTreeSet<_> = nodes
        .iter()
        .filter(|n| n.node_type == NodeType::Input)
        .map(|n| n.id)
        .collect();
    conns.retain(|c| {
        let ok = node_ids.contains(&c.key.src)
            && node_ids.contains(&c.key.dst)
            && !input_ids.contains(&c.key.dst)
            && c.key.src != c.key.dst;
        if !ok {
            dropped_dangling += 1;
        }
        ok
    });

    // Cycle repair: admit connections one by one, skipping any whose
    // addition would close a cycle. Connections inherited from a valid
    // parent are admitted first and cannot conflict among themselves.
    let mut dropped_cyclic = 0usize;
    let mut adjacency: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    let mut admitted: Vec<ConnGene> = Vec::with_capacity(conns.len());
    for c in conns {
        if reaches(&adjacency, c.key.dst.0, c.key.src.0) {
            dropped_cyclic += 1;
            continue;
        }
        adjacency.entry(c.key.src.0).or_default().push(c.key.dst.0);
        admitted.push(c);
    }

    let genome = Genome::from_parts(key, num_inputs, num_outputs, nodes, admitted)?;
    Ok(MergeReport {
        genome,
        dropped_dangling,
        dropped_cyclic,
        dropped_duplicates,
    })
}

/// DFS reachability over the admitted-connection adjacency.
fn reaches(adjacency: &std::collections::HashMap<u32, Vec<u32>>, from: u32, to: u32) -> bool {
    if from == to {
        return true;
    }
    let mut stack = vec![from];
    let mut seen = std::collections::HashSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
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

#[cfg(test)]
mod tests {
    use super::*;
    use genesys_neat::gene::{ConnKey, NodeId};
    use genesys_neat::trace::OpCounters;
    use genesys_neat::{InnovationTracker, NeatConfig, XorWow};

    fn cfg() -> NeatConfig {
        NeatConfig::builder(2, 1).build().unwrap()
    }

    #[test]
    fn identical_parents_align_fully_matching() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let pairs = align_parents(&g, &g.clone());
        assert_eq!(pairs.len(), g.num_genes());
        assert!(pairs.iter().all(AlignedPair::is_matching));
    }

    #[test]
    fn alignment_orders_nodes_before_conns() {
        let g = Genome::initial(0, &cfg(), &mut XorWow::seed_from_u64_value(1));
        let pairs = align_parents(&g, &g.clone());
        let kinds: Vec<bool> = pairs
            .iter()
            .map(|p| matches!(p.fit.or(p.other).unwrap(), Gene::Conn(_)))
            .collect();
        // once we see a conn, all following are conns
        let first_conn = kinds.iter().position(|&k| k).unwrap();
        assert!(kinds[first_conn..].iter().all(|&k| k));
    }

    #[test]
    fn disjoint_genes_appear_half_empty() {
        let c = cfg();
        let mut rng = XorWow::seed_from_u64_value(2);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let base = Genome::initial(0, &c, &mut rng);
        let mut grown = base.clone();
        let mut ops = OpCounters::new();
        grown.mutate_add_node(&mut innov, &mut rng, &mut ops);
        let pairs = align_parents(&grown, &base);
        let disjoint = pairs.iter().filter(|p| !p.is_matching()).count();
        assert_eq!(disjoint, 3, "one new node + two new conns are unmatched");
        // and all disjoint slots belong to the fitter (grown) parent
        assert!(pairs
            .iter()
            .filter(|p| !p.is_matching())
            .all(|p| p.fit.is_some()));
    }

    #[test]
    fn alignment_is_key_sorted_in_each_cluster() {
        let c = cfg();
        let mut rng = XorWow::seed_from_u64_value(3);
        let mut innov = InnovationTracker::new(c.first_hidden_id());
        let mut a = Genome::initial(0, &c, &mut rng);
        let mut b = Genome::initial(1, &c, &mut rng);
        let mut ops = OpCounters::new();
        for _ in 0..5 {
            a.mutate(&c, &mut innov, &mut rng, &mut ops);
            b.mutate(&c, &mut innov, &mut rng, &mut ops);
        }
        let pairs = align_parents(&a, &b);
        let keys: Vec<_> = pairs
            .iter()
            .map(|p| p.fit.or(p.other).unwrap().sort_key())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn merge_rebuilds_a_valid_genome() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let genes: Vec<Gene> = g
            .nodes()
            .map(|n| Gene::Node(*n))
            .chain(g.conns().map(|c| Gene::Conn(*c)))
            .collect();
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.genome.num_genes(), g.num_genes());
        assert_eq!(report.dropped_dangling, 0);
        assert_eq!(report.dropped_cyclic, 0);
    }

    #[test]
    fn merge_drops_dangling_and_duplicate_genes() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let mut genes: Vec<Gene> = g
            .nodes()
            .map(|n| Gene::Node(*n))
            .chain(g.conns().map(|c| Gene::Conn(*c)))
            .collect();
        genes.push(Gene::Conn(ConnGene::new(NodeId(0), NodeId(99), 1.0))); // dangling
        genes.push(Gene::Node(NodeGene::hidden(NodeId(0)))); // duplicate id
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.dropped_dangling, 1);
        assert_eq!(report.dropped_duplicates, 1);
        assert!(report.genome.validate().is_ok());
    }

    #[test]
    fn merge_repairs_cycles() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let mut genes: Vec<Gene> = g.nodes().map(|n| Gene::Node(*n)).collect();
        genes.push(Gene::Node(NodeGene::hidden(NodeId(10))));
        genes.push(Gene::Node(NodeGene::hidden(NodeId(11))));
        genes.push(Gene::Conn(ConnGene::new(NodeId(10), NodeId(11), 1.0)));
        genes.push(Gene::Conn(ConnGene::new(NodeId(11), NodeId(10), 1.0))); // closes cycle
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.dropped_cyclic, 1);
        assert!(report.genome.validate().is_ok());
    }

    #[test]
    fn merge_drops_connection_into_input() {
        let g = Genome::initial(5, &cfg(), &mut XorWow::seed_from_u64_value(4));
        let mut genes: Vec<Gene> = g
            .nodes()
            .map(|n| Gene::Node(*n))
            .chain(g.conns().map(|c| Gene::Conn(*c)))
            .collect();
        genes.push(Gene::Conn(ConnGene {
            key: ConnKey::new(NodeId(2), NodeId(0)),
            weight: 1.0,
            enabled: true,
        }));
        let report = merge_child(5, 2, 1, genes).unwrap();
        assert_eq!(report.dropped_dangling, 1);
    }
}
