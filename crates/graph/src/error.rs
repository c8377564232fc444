//! Error types for graph construction and manipulation.

use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors produced while building or mutating a [`crate::Graph`].
///
/// The enum is `#[non_exhaustive]`: new variants may be added in later
/// versions as more trust boundaries gain typed validation (most recently
/// [`GraphError::CorruptSnapshot`] and [`GraphError::MalformedLine`]), so
/// downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id referred to a node that does not exist in the graph.
    NodeOutOfBounds {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph at the time of the call.
        node_count: usize,
    },
    /// An edge `(u, u)` was requested; simple graphs have no self loops.
    SelfLoop {
        /// The node the self loop was requested on.
        node: NodeId,
    },
    /// The edge already exists; simple graphs have no parallel edges.
    DuplicateEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// Two nodes were assigned the same identifier.
    DuplicateIdentifier {
        /// The duplicated identifier value.
        identifier: u64,
    },
    /// An identifier assignment did not cover every node exactly once.
    AssignmentLengthMismatch {
        /// Number of identifiers supplied.
        provided: usize,
        /// Number of nodes that must be covered.
        expected: usize,
    },
    /// A generator was asked for a graph it cannot produce (e.g. a cycle on
    /// fewer than three nodes).
    InvalidGeneratorParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A construction that requires a connected graph produced only
    /// disconnected instances (e.g. every `G(n, p)` draw fell apart).
    Disconnected {
        /// Human-readable description of the failed construction.
        reason: String,
    },
    /// A binary snapshot (see [`crate::snapshot`]) failed validation.
    ///
    /// Snapshot bytes are treated as untrusted: every structural invariant
    /// (header magic and version, payload checksum, counts and length,
    /// monotone offsets, endpoint bounds, no self loops or duplicate
    /// neighbours, adjacency symmetry) is checked during decode, and any
    /// violation is reported through this variant instead of a panic.
    CorruptSnapshot {
        /// Byte offset of the region in which validation failed (best
        /// effort; `0` when the failure is not tied to one region, such as a
        /// checksum mismatch).
        offset: usize,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// Reading or durably writing a snapshot *file* failed at the I/O layer
    /// (see [`crate::CsrGraph::write_to_path`] /
    /// [`crate::CsrGraph::read_from_path`]).
    ///
    /// Distinct from [`GraphError::CorruptSnapshot`]: this variant means the
    /// bytes never made it to or from disk (missing file, permission error,
    /// failed fsync or rename), while `CorruptSnapshot` means bytes were read
    /// but failed validation.
    SnapshotIo {
        /// The file the operation was addressed at.
        path: String,
        /// Human-readable description of the underlying I/O failure.
        reason: String,
    },
    /// A line of an edge-list document (see [`crate::io::from_edge_list`])
    /// could not be parsed.
    ///
    /// Carries the 1-based line number so callers can point at the offending
    /// input line; errors that only surface once the whole document is
    /// assembled (duplicate identifiers, unknown edge endpoints) are still
    /// reported through their own variants without a line number.
    MalformedLine {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of what is wrong with the line.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, node_count } => {
                write!(f, "node {node} is out of bounds for a graph with {node_count} nodes")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self loop requested on node {node}")
            }
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge ({u}, {v}) already exists")
            }
            GraphError::DuplicateIdentifier { identifier } => {
                write!(f, "identifier {identifier} assigned to more than one node")
            }
            GraphError::AssignmentLengthMismatch { provided, expected } => {
                write!(
                    f,
                    "identifier assignment provides {provided} identifiers but the graph has {expected} nodes"
                )
            }
            GraphError::InvalidGeneratorParameter { reason } => {
                write!(f, "invalid generator parameter: {reason}")
            }
            GraphError::Disconnected { reason } => {
                write!(f, "graph is disconnected: {reason}")
            }
            GraphError::CorruptSnapshot { offset, reason } => {
                write!(f, "corrupt snapshot at byte offset {offset}: {reason}")
            }
            GraphError::SnapshotIo { path, reason } => {
                write!(f, "snapshot i/o on {path}: {reason}")
            }
            GraphError::MalformedLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

/// Convenience alias for results whose error type is [`GraphError`].
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfBounds { node: NodeId::new(9), node_count: 4 };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains('4'));

        let e = GraphError::SelfLoop { node: NodeId::new(2) };
        assert!(e.to_string().contains("self loop"));

        let e = GraphError::DuplicateEdge { u: NodeId::new(1), v: NodeId::new(2) };
        assert!(e.to_string().contains("already exists"));

        let e = GraphError::DuplicateIdentifier { identifier: 7 };
        assert!(e.to_string().contains('7'));

        let e = GraphError::AssignmentLengthMismatch { provided: 3, expected: 5 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));

        let e = GraphError::InvalidGeneratorParameter { reason: "cycle needs n >= 3".into() };
        assert!(e.to_string().contains("cycle needs"));

        let e = GraphError::Disconnected { reason: "every G(8, 0) draw fell apart".into() };
        assert!(e.to_string().contains("disconnected"));

        let e = GraphError::CorruptSnapshot { offset: 24, reason: "offsets not monotone".into() };
        assert!(e.to_string().contains("24"));
        assert!(e.to_string().contains("monotone"));

        let e = GraphError::SnapshotIo { path: "gen-7.snap".into(), reason: "not found".into() };
        assert!(e.to_string().contains("gen-7.snap"));
        assert!(e.to_string().contains("not found"));

        let e = GraphError::MalformedLine { line: 3, reason: "unknown directive 'frob'".into() };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("frob"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}
