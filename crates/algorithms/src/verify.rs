//! Output verifiers: centralized checks that distributed outputs are valid.
//!
//! Every problem the library ships an algorithm for also ships a verifier, so
//! tests and experiments never have to trust an algorithm's own claims.

use avglocal_graph::{ComponentLabels, Graph, Identifier};

/// The largest identifier of each component, indexed by component label, or
/// `None` when `labels` does not cover the identifier table.
#[must_use]
pub fn component_max_identifiers(
    identifiers: &[Identifier],
    labels: &ComponentLabels,
) -> Option<Vec<Identifier>> {
    if labels.node_count() != identifiers.len() {
        return None;
    }
    let mut maxima: Vec<Option<Identifier>> = vec![None; labels.count()];
    for (&label, &id) in labels.labels().iter().zip(identifiers) {
        let slot = &mut maxima[label as usize];
        if slot.is_none_or(|m| id > m) {
            *slot = Some(id);
        }
    }
    // Every component has at least one node, so every slot is filled.
    maxima.into_iter().collect()
}

/// Checks largest-ID outputs against an identifier table (indexed by node):
/// exactly the node carrying the maximum identifier answered `true`.
#[must_use]
pub fn largest_id_ok(identifiers: &[Identifier], outputs: &[bool]) -> bool {
    if outputs.len() != identifiers.len() {
        return false;
    }
    let winner = identifiers.iter().enumerate().max_by_key(|(_, id)| **id).map(|(v, _)| v);
    outputs.iter().enumerate().all(|(v, &out)| out == (Some(v) == winner))
}

/// Checks the component-scoped largest-ID outputs: within every connected
/// component, exactly the node carrying that component's maximum identifier
/// answered `true`.
///
/// On a connected graph this coincides with [`largest_id_ok`]; on a
/// disconnected graph it is the natural semantics of the ball-growing
/// algorithm, whose view saturates at the component boundary.
#[must_use]
pub fn largest_id_per_component_ok(
    identifiers: &[Identifier],
    labels: &ComponentLabels,
    outputs: &[bool],
) -> bool {
    if outputs.len() != identifiers.len() {
        return false;
    }
    let Some(maxima) = component_max_identifiers(identifiers, labels) else {
        return false;
    };
    (0..outputs.len())
        .all(|v| outputs[v] == (identifiers[v] == maxima[labels.labels()[v] as usize]))
}

/// Checks know-the-leader outputs: every node named the maximum identifier.
#[must_use]
pub fn leader_ok(identifiers: &[Identifier], outputs: &[Identifier]) -> bool {
    outputs.len() == identifiers.len()
        && identifiers.iter().max().is_none_or(|max| outputs.iter().all(|id| id == max))
}

/// Checks the component-scoped know-the-leader outputs: every node named the
/// maximum identifier of its own component.
#[must_use]
pub fn component_leader_ok(
    identifiers: &[Identifier],
    labels: &ComponentLabels,
    outputs: &[Identifier],
) -> bool {
    if outputs.len() != identifiers.len() {
        return false;
    }
    let Some(maxima) = component_max_identifiers(identifiers, labels) else {
        return false;
    };
    outputs.iter().zip(labels.labels()).all(|(id, &label)| *id == maxima[label as usize])
}

/// Checks that `colors` (indexed by node) properly colours the graph whose
/// undirected edges are `edges` (node-index pairs), with at most
/// `palette_size` colours.
#[must_use]
pub fn proper_coloring_ok(
    node_count: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
    colors: &[u64],
    palette_size: u64,
) -> bool {
    colors.len() == node_count
        && colors.iter().all(|&c| c < palette_size)
        && edges.into_iter().all(|(u, v)| colors[u] != colors[v])
}

/// [`largest_id_ok`] on `graph`'s identifiers.
#[must_use]
pub fn is_correct_largest_id(graph: &Graph, outputs: &[bool]) -> bool {
    largest_id_ok(graph.identifier_slice(), outputs)
}

/// [`proper_coloring_ok`] on `graph`'s edges.
#[must_use]
pub fn is_proper_coloring(graph: &Graph, colors: &[u64], palette_size: u64) -> bool {
    proper_coloring_ok(
        graph.node_count(),
        graph.edges().map(|(u, v)| (u.index(), v.index())),
        colors,
        palette_size,
    )
}

/// Checks that `in_set` (indexed by node) describes a maximal independent
/// set of `graph`: no two set members are adjacent, and every non-member has
/// a member neighbour.
#[must_use]
pub fn is_maximal_independent_set(graph: &Graph, in_set: &[bool]) -> bool {
    if in_set.len() != graph.node_count() {
        return false;
    }
    // Independence.
    if graph.edges().any(|(u, v)| in_set[u.index()] && in_set[v.index()]) {
        return false;
    }
    // Maximality: every node outside the set has a neighbour inside.
    graph
        .nodes()
        .all(|v| in_set[v.index()] || graph.neighbors(v).iter().any(|&u| in_set[u.index()]))
}

/// Checks that `matched` describes a maximal matching: `matched[v]` is the
/// node `v` is matched with (or `None`), the relation is symmetric, matched
/// pairs are adjacent, and no two unmatched nodes are adjacent.
#[must_use]
pub fn is_maximal_matching(graph: &Graph, matched: &[Option<usize>]) -> bool {
    if matched.len() != graph.node_count() {
        return false;
    }
    for v in graph.nodes() {
        if let Some(partner) = matched[v.index()] {
            if partner >= graph.node_count() {
                return false;
            }
            // Symmetry and adjacency.
            if matched[partner] != Some(v.index()) {
                return false;
            }
            if !graph.contains_edge(v, avglocal_graph::NodeId::new(partner)) {
                return false;
            }
        }
    }
    // Maximality: no edge with both endpoints unmatched.
    graph.edges().all(|(u, v)| matched[u.index()].is_some() || matched[v.index()].is_some())
}

/// Number of distinct colours used by a colouring.
#[must_use]
pub fn color_count(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::generators;

    #[test]
    fn proper_coloring_detection() {
        let g = generators::cycle(6).unwrap();
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1, 0, 1], 2));
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, 0, 0], 2)); // last edge conflicts
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, 0, 2], 2)); // colour out of palette
        assert!(!is_proper_coloring(&g, &[0, 1, 0], 2)); // wrong length
    }

    #[test]
    fn odd_cycle_needs_three_colors() {
        let g = generators::cycle(5).unwrap();
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1, 2], 3));
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, 0], 3));
    }

    #[test]
    fn mis_detection() {
        let g = generators::cycle(6).unwrap();
        assert!(is_maximal_independent_set(&g, &[true, false, true, false, true, false]));
        // Independent but not maximal.
        assert!(!is_maximal_independent_set(&g, &[true, false, false, false, true, false]));
        // Not independent.
        assert!(!is_maximal_independent_set(&g, &[true, true, false, true, false, false]));
        // Wrong length.
        assert!(!is_maximal_independent_set(&g, &[true, false]));
    }

    #[test]
    fn matching_detection() {
        let g = generators::cycle(6).unwrap();
        // Perfect matching 0-1, 2-3, 4-5.
        let m = vec![Some(1), Some(0), Some(3), Some(2), Some(5), Some(4)];
        assert!(is_maximal_matching(&g, &m));
        // Asymmetric.
        let bad = vec![Some(1), None, None, None, None, None];
        assert!(!is_maximal_matching(&g, &bad));
        // Not maximal: nothing matched.
        assert!(!is_maximal_matching(&g, &[None; 6]));
        // Matched pair not adjacent.
        let far = vec![Some(3), None, None, Some(0), None, None];
        assert!(!is_maximal_matching(&g, &far));
        // Wrong length.
        assert!(!is_maximal_matching(&g, &[None; 3]));
        // Partner index out of range.
        let oob = vec![Some(99), None, None, None, None, None];
        assert!(!is_maximal_matching(&g, &oob));
    }

    #[test]
    fn color_counting() {
        assert_eq!(color_count(&[0, 1, 2, 1, 0]), 3);
        assert_eq!(color_count(&[]), 0);
        assert_eq!(color_count(&[7, 7, 7]), 1);
    }

    #[test]
    fn largest_id_wrapper_delegates() {
        let g = generators::cycle(4).unwrap();
        let mut outputs = vec![false; 4];
        outputs[3] = true;
        assert!(is_correct_largest_id(&g, &outputs));
    }

    #[test]
    fn slice_verifiers_reject_wrong_outputs() {
        let ids: Vec<Identifier> = [3u64, 8, 1, 5].map(Identifier::new).to_vec();
        assert!(largest_id_ok(&ids, &[false, true, false, false]));
        assert!(!largest_id_ok(&ids, &[false; 4])); // nobody claims leadership
        assert!(!largest_id_ok(&ids, &[false, true, false, true])); // two winners
        assert!(!largest_id_ok(&ids, &[true, false, false, false])); // wrong node
        assert!(!largest_id_ok(&ids, &[false, true])); // wrong length
        assert!(largest_id_ok(&[], &[]));

        let (eight, five) = (Identifier::new(8), Identifier::new(5));
        assert!(leader_ok(&ids, &[eight; 4]));
        assert!(!leader_ok(&ids, &[eight, eight, five, eight])); // a wrong leader
        assert!(!leader_ok(&ids, &[eight; 3]));
    }

    #[test]
    fn csr_verifiers_reject_wrong_outputs() {
        let (g, labels) = two_components();
        let csr = g.freeze();
        let edges = || csr.edges().map(|(u, v)| (u as usize, v as usize));
        let ids = csr.identifiers();
        assert!(proper_coloring_ok(5, edges(), &[0, 1, 2, 0, 1], 3));
        // Nodes 3 and 4 share the CSR edge (3, 4).
        assert!(!proper_coloring_ok(5, edges(), &[0, 1, 2, 1, 1], 3));
        assert!(!proper_coloring_ok(5, edges(), &[0, 1, 2, 0, 1], 2));
        assert!(!proper_coloring_ok(5, edges(), &[0, 1, 2, 0], 3)); // wrong length

        assert!(largest_id_per_component_ok(ids, &labels, &[false, true, false, true, false]));
        // Two winners in the triangle.
        assert!(!largest_id_per_component_ok(ids, &labels, &[true, true, false, true, false]));
        let id = Identifier::new;
        assert!(component_leader_ok(ids, &labels, &[id(30), id(30), id(30), id(50), id(50)]));
        // The edge component names the triangle's leader.
        assert!(!component_leader_ok(ids, &labels, &[id(30), id(30), id(30), id(30), id(50)]));
    }

    /// Two components: a triangle on nodes {0, 1, 2} (ids 10, 30, 20) and an
    /// edge on nodes {3, 4} (ids 50, 40).
    fn two_components() -> (Graph, ComponentLabels) {
        let mut g = Graph::new();
        for id in [10u64, 30, 20, 50, 40] {
            g.add_node(avglocal_graph::Identifier::new(id));
        }
        let v = avglocal_graph::NodeId::new;
        g.add_edge(v(0), v(1)).unwrap();
        g.add_edge(v(1), v(2)).unwrap();
        g.add_edge(v(2), v(0)).unwrap();
        g.add_edge(v(3), v(4)).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        (g, labels)
    }

    #[test]
    fn component_maxima_are_per_component() {
        let (g, labels) = two_components();
        let maxima = component_max_identifiers(g.identifier_slice(), &labels).unwrap();
        assert_eq!(maxima.len(), 2);
        assert_eq!(maxima[0].value(), 30);
        assert_eq!(maxima[1].value(), 50);
    }

    #[test]
    fn per_component_largest_id_accepts_component_winners() {
        let (g, labels) = two_components();
        let ids = g.identifier_slice();
        // One winner per component: node 1 (id 30) and node 3 (id 50).
        assert!(largest_id_per_component_ok(ids, &labels, &[false, true, false, true, false]));
        // The *global* verifier rejects the same outputs (two winners)…
        assert!(!is_correct_largest_id(&g, &[false, true, false, true, false]));
        // …and the per-component verifier rejects a global-only winner.
        assert!(!largest_id_per_component_ok(ids, &labels, &[false, false, false, true, false]));
        assert!(!largest_id_per_component_ok(ids, &labels, &[false; 3]));
    }

    #[test]
    fn per_component_leader_outputs() {
        let (g, labels) = two_components();
        let (ids, id) = (g.identifier_slice(), Identifier::new);
        assert!(component_leader_ok(ids, &labels, &[id(30), id(30), id(30), id(50), id(50)]));
        // Naming the global maximum from the wrong component is invalid.
        assert!(!component_leader_ok(ids, &labels, &[id(50); 5]));
        assert!(!component_leader_ok(ids, &labels, &[id(30); 2]));
    }

    #[test]
    fn per_component_checks_agree_with_global_on_connected_graphs() {
        let g = generators::cycle(6).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        let mut outputs = vec![false; 6];
        outputs[5] = true;
        assert!(is_correct_largest_id(&g, &outputs));
        assert!(largest_id_per_component_ok(g.identifier_slice(), &labels, &outputs));
    }
}
