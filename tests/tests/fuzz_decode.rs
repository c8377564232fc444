//! Fuzzing of every untrusted-input decode surface.
//!
//! The snapshot codec and the edge-list parser both face arbitrary bytes;
//! these properties check the contract that matters at a trust boundary:
//! **no input panics**, accepted inputs round-trip bit-identically (component
//! labels included), and corrupted inputs are rejected with typed errors.

use avglocal::graph::io::from_edge_list;
use avglocal::graph::{generators, snapshot, CsrGraph, GraphError};
use avglocal_integration_tests::shuffled_ring;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Arbitrary bytes must be decoded or rejected, never panicked on. A
    /// random buffer essentially never carries the magic, so acceptance here
    /// would itself be suspicious — but the property only demands totality.
    #[test]
    fn arbitrary_bytes_never_panic_the_snapshot_decoder(buf in collection::bytes(0..256)) {
        match CsrGraph::from_bytes(&buf) {
            Ok(decoded) => prop_assert_eq!(decoded.to_bytes(), buf),
            Err(GraphError::CorruptSnapshot { offset, .. }) => prop_assert!(offset <= buf.len()),
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error variant: {other}")));
            }
        }
    }

    /// Same totality demand with the header hurdle removed: a well-formed
    /// magic + version prefix followed by arbitrary bytes reaches the body
    /// validation paths instead of bouncing off the first checks.
    #[test]
    fn magic_prefixed_garbage_never_panics(buf in collection::bytes(0..224)) {
        let mut bytes = snapshot::MAGIC.to_vec();
        bytes.extend_from_slice(&snapshot::VERSION.to_le_bytes());
        bytes.extend_from_slice(&buf);
        match CsrGraph::from_bytes(&bytes) {
            Ok(decoded) => prop_assert_eq!(decoded.to_bytes(), bytes),
            Err(GraphError::CorruptSnapshot { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error variant: {other}")));
            }
        }
    }

    /// Every truncation of a valid snapshot is an error, not a panic.
    #[test]
    fn truncated_ring_snapshots_are_rejected(n in 3usize..48, seed in 0u64..32, cut in 0usize..4096) {
        let bytes = shuffled_ring(n, seed).freeze().to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(CsrGraph::from_bytes(&bytes[..cut]).is_err());
    }

    /// Any single bit flip anywhere in a snapshot is detected.
    #[test]
    fn bit_flipped_ring_snapshots_are_rejected(n in 3usize..48, seed in 0u64..32, flip in 0usize..1 << 20) {
        let mut bytes = shuffled_ring(n, seed).freeze().to_bytes();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(CsrGraph::from_bytes(&bytes).is_err(), "flip of bit {} survived", bit);
    }

    /// Accepted snapshots round-trip bit-identically — offsets, targets and
    /// identifiers — on random (often disconnected) graphs, not just the
    /// well-behaved rings.
    #[test]
    fn random_graph_snapshots_round_trip(n in 1usize..64, density in 0usize..4, seed in 0u64..1000) {
        let m = (n.saturating_sub(1)) * density / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::gnm_random(n, m, &mut rng).unwrap();
        let csr = graph.freeze();
        let bytes = csr.to_bytes();
        let decoded = match CsrGraph::from_bytes(&bytes) {
            Ok(decoded) => decoded,
            Err(e) => return Err(TestCaseError::fail(format!("own snapshot rejected: {e}"))),
        };
        prop_assert_eq!(decoded.offsets(), csr.offsets());
        prop_assert_eq!(decoded.targets(), csr.targets());
        prop_assert_eq!(decoded.identifiers(), csr.identifiers());
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// The edge-list parser is total over arbitrary (lossily decoded) text.
    #[test]
    fn arbitrary_text_never_panics_the_edge_list_parser(buf in collection::bytes(0..256)) {
        let text = String::from_utf8_lossy(&buf);
        match from_edge_list(&text) {
            Ok(graph) => prop_assert!(graph.node_count() <= text.len()),
            Err(GraphError::MalformedLine { line, .. }) => {
                prop_assert!(line >= 1 && line <= text.lines().count());
            }
            // Structurally valid text can still describe an invalid graph
            // (duplicate identifiers, self-loops, unknown endpoints, ...).
            Err(_) => {}
        }
    }

    /// Mutating one byte of a valid serialisation keeps the parser total and
    /// keeps reported line numbers inside the document.
    #[test]
    fn mutated_edge_lists_stay_total(n in 3usize..24, seed in 0u64..32, pos in 0usize..4096, byte in 0u64..256) {
        let graph = shuffled_ring(n, seed);
        let mut text = avglocal::graph::io::to_edge_list(&graph).into_bytes();
        let pos = pos % text.len();
        text[pos] = byte as u8;
        let text = String::from_utf8_lossy(&text).into_owned();
        if let Err(GraphError::MalformedLine { line, .. }) = from_edge_list(&text) {
            prop_assert!(line >= 1 && line <= text.lines().count());
        }
    }
}
