//! Reproduction traces.
//!
//! The paper drives its hardware evaluation from traces of the evolution
//! phase: "Each line on the trace captures the generation, the child gene
//! and genome id, the type of operation — mutation or crossover, and the
//! parameters changed or added or deleted" (Section VI-A). These types are
//! that trace. The EvE model in `genesys-core` replays them cycle-by-cycle,
//! and the Fig 5(a) experiment histograms them.

/// Kind of a reproduction operation, matching Fig 3(d) and the four EvE PE
/// pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Per-gene attribute selection from two parents (Crossover Engine).
    Crossover,
    /// Attribute perturbation (Perturbation Engine).
    Perturb,
    /// Node insertion (Add Gene Engine).
    AddNode,
    /// Connection insertion (Add Gene Engine).
    AddConn,
    /// Node deletion (Delete Gene Engine).
    DeleteNode,
    /// Connection deletion (Delete Gene Engine).
    DeleteConn,
}

impl OpKind {
    /// All operation kinds.
    pub const ALL: [OpKind; 6] = [
        OpKind::Crossover,
        OpKind::Perturb,
        OpKind::AddNode,
        OpKind::AddConn,
        OpKind::DeleteNode,
        OpKind::DeleteConn,
    ];

    /// True for the structural/attribute *mutations* (everything except
    /// crossover).
    pub fn is_mutation(self) -> bool {
        self != OpKind::Crossover
    }
}

/// One recorded reproduction operation (a "line" of the paper's trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproductionOp {
    /// Which engine performed the op.
    pub kind: OpKind,
    /// How many genes/attributes the op touched.
    pub count: u64,
}

/// Tallies of reproduction operations for one child genome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Gene-pair alignments processed by the crossover engine.
    pub crossover: u64,
    /// Attribute perturbations applied.
    pub perturb: u64,
    /// Node genes inserted.
    pub add_node: u64,
    /// Connection genes inserted.
    pub add_conn: u64,
    /// Node genes deleted.
    pub delete_node: u64,
    /// Connection genes deleted.
    pub delete_conn: u64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        OpCounters::default()
    }

    /// Total operations of all kinds.
    pub fn total(&self) -> u64 {
        self.crossover
            + self.perturb
            + self.add_node
            + self.add_conn
            + self.delete_node
            + self.delete_conn
    }

    /// Total mutation operations (everything but crossover).
    pub fn mutations(&self) -> u64 {
        self.total() - self.crossover
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &OpCounters) {
        self.crossover += other.crossover;
        self.perturb += other.perturb;
        self.add_node += other.add_node;
        self.add_conn += other.add_conn;
        self.delete_node += other.delete_node;
        self.delete_conn += other.delete_conn;
    }

    /// Records `count` operations of the given kind.
    pub fn record(&mut self, kind: OpKind, count: u64) {
        match kind {
            OpKind::Crossover => self.crossover += count,
            OpKind::Perturb => self.perturb += count,
            OpKind::AddNode => self.add_node += count,
            OpKind::AddConn => self.add_conn += count,
            OpKind::DeleteNode => self.delete_node += count,
            OpKind::DeleteConn => self.delete_conn += count,
        }
    }

    /// Reads the tally for one kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        match kind {
            OpKind::Crossover => self.crossover,
            OpKind::Perturb => self.perturb,
            OpKind::AddNode => self.add_node,
            OpKind::AddConn => self.add_conn,
            OpKind::DeleteNode => self.delete_node,
            OpKind::DeleteConn => self.delete_conn,
        }
    }
}

/// Trace of the creation of one child genome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildTrace {
    /// Index of the child within the new generation.
    pub child_index: usize,
    /// Index of the fitter parent within the previous generation.
    pub parent1: usize,
    /// Index of the other parent (equals `parent1` for asexual
    /// reproduction / elite copies).
    pub parent2: usize,
    /// Number of parent gene pairs streamed through the PE for this child
    /// (node genes first, then connection genes — the EvE dataflow order).
    pub genes_streamed: u64,
    /// Operation tallies.
    pub ops: OpCounters,
    /// True if the child is an unmodified elite copy (bypasses the PE).
    pub is_elite: bool,
}

/// Trace of one full reproduction step (generation `n` → `n+1`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenerationTrace {
    /// Generation index that *produced* these children.
    pub generation: usize,
    /// Per-child traces, in child index order.
    pub children: Vec<ChildTrace>,
}

impl GenerationTrace {
    /// Aggregate operation tallies across all children.
    pub fn totals(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for child in &self.children {
            total.merge(&child.ops);
        }
        total
    }

    /// Total crossover + mutation ops — the quantity Fig 5(a) histograms.
    pub fn total_ops(&self) -> u64 {
        self.totals().total()
    }

    /// How many children reused the single most-used parent — the
    /// genome-level-reuse (GLR) statistic of Fig 4(c).
    pub fn fittest_parent_reuse(&self) -> usize {
        use std::collections::HashMap;
        let mut uses: HashMap<usize, usize> = HashMap::new();
        for child in &self.children {
            if child.is_elite {
                continue;
            }
            *uses.entry(child.parent1).or_insert(0) += 1;
            if child.parent2 != child.parent1 {
                *uses.entry(child.parent2).or_insert(0) += 1;
            }
        }
        uses.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(idx: usize, p1: usize, p2: usize, elite: bool) -> ChildTrace {
        ChildTrace {
            child_index: idx,
            parent1: p1,
            parent2: p2,
            genes_streamed: 10,
            ops: OpCounters {
                crossover: 10,
                perturb: 3,
                add_node: 1,
                add_conn: 0,
                delete_node: 0,
                delete_conn: 1,
            },
            is_elite: elite,
        }
    }

    #[test]
    fn counters_total_and_mutations() {
        let c = OpCounters {
            crossover: 10,
            perturb: 5,
            add_node: 1,
            add_conn: 2,
            delete_node: 3,
            delete_conn: 4,
        };
        assert_eq!(c.total(), 25);
        assert_eq!(c.mutations(), 15);
    }

    #[test]
    fn record_and_count_roundtrip() {
        let mut c = OpCounters::new();
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            c.record(*kind, i as u64 + 1);
        }
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(c.count(*kind), i as u64 + 1);
        }
    }

    #[test]
    fn reuse_counts_most_used_parent() {
        let trace = GenerationTrace {
            generation: 0,
            children: vec![
                child(0, 7, 3, false),
                child(1, 7, 2, false),
                child(2, 7, 7, false),
                child(3, 1, 2, false),
                child(4, 7, 1, true), // elite: ignored
            ],
        };
        assert_eq!(trace.fittest_parent_reuse(), 3);
    }

    #[test]
    fn totals_merge_children() {
        let trace = GenerationTrace {
            generation: 1,
            children: vec![child(0, 0, 1, false), child(1, 0, 1, false)],
        };
        assert_eq!(trace.totals().crossover, 20);
        assert_eq!(trace.total_ops(), 30);
    }

    #[test]
    fn op_kind_mutation_predicate() {
        assert!(!OpKind::Crossover.is_mutation());
        assert!(OpKind::Perturb.is_mutation());
        assert!(OpKind::AddNode.is_mutation());
    }
}
