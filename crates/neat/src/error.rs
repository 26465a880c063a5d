//! Error types for configuration and genome validation.

use crate::gene::NodeType;
use std::error::Error;
use std::fmt;

/// Error returned when a [`NeatConfig`](crate::NeatConfig) is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A probability-like field was outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Name of the offending field.
        field: &'static str,
    },
    /// The population size was zero.
    EmptyPopulation,
    /// The number of inputs or outputs was zero.
    EmptyInterface,
    /// A numeric bound was inconsistent (e.g. `weight_min > weight_max`)
    /// or out of its range (e.g. a negative or non-finite compatibility
    /// coefficient).
    InvalidBound {
        /// Name of the offending field pair.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ProbabilityOutOfRange { field } => {
                write!(f, "probability field `{field}` must lie in [0, 1]")
            }
            ConfigError::EmptyPopulation => write!(f, "population size must be at least 1"),
            ConfigError::EmptyInterface => {
                write!(f, "number of inputs and outputs must both be at least 1")
            }
            ConfigError::InvalidBound { field } => {
                write!(f, "bound `{field}` is inconsistent or out of range")
            }
        }
    }
}

impl Error for ConfigError {}

/// Error returned when assembling a [`Genome`](crate::Genome) from parts that
/// violate its structural invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenomeError {
    /// A connection referenced a node id that is not present in the genome.
    DanglingConnection {
        /// Source node id of the offending connection.
        src: u32,
        /// Destination node id of the offending connection.
        dst: u32,
    },
    /// A connection's destination was an input node (inputs have no
    /// incoming edges in NEAT).
    ConnectionIntoInput {
        /// Destination node id of the offending connection.
        dst: u32,
    },
    /// The connection graph contained a cycle; phenotypes must stay
    /// feed-forward (the paper's inference is "processing an acyclic
    /// directed graph").
    Cycle,
    /// An expected input or output node was missing.
    MissingInterfaceNode {
        /// Node id that was expected but absent.
        id: u32,
    },
    /// An input node was not the default input gene
    /// ([`NodeGene::input`](crate::NodeGene::input)): it had another type
    /// or non-default attributes. Every genome's input genes are the same
    /// constants, which the compatibility distance relies on.
    NonDefaultInput {
        /// Id of the offending input node.
        id: u32,
    },
    /// A node's type disagreed with its id range: ids
    /// `num_inputs..num_inputs + num_outputs` are outputs, every id past
    /// them is hidden.
    NodeTypeMismatch {
        /// Id of the offending node.
        id: u32,
        /// The type its id range requires.
        expected: NodeType,
        /// The type the gene carried.
        found: NodeType,
    },
}

impl fmt::Display for GenomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenomeError::DanglingConnection { src, dst } => {
                write!(f, "connection {src}->{dst} references a missing node")
            }
            GenomeError::ConnectionIntoInput { dst } => {
                write!(f, "connection terminates at input node {dst}")
            }
            GenomeError::Cycle => write!(f, "connection graph contains a cycle"),
            GenomeError::MissingInterfaceNode { id } => {
                write!(f, "interface node {id} is missing from the genome")
            }
            GenomeError::NonDefaultInput { id } => {
                write!(f, "input node {id} is not the default input gene")
            }
            GenomeError::NodeTypeMismatch {
                id,
                expected,
                found,
            } => {
                write!(f, "node {id} is {found:?} but its id requires {expected:?}")
            }
        }
    }
}

impl Error for GenomeError {}
