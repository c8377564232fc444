//! The complexity measures compared by the paper and its follow-up line.
//!
//! The paper's headline object is the **node-averaged** running time
//! `Σ_v r(v) / n`; the classical measure is the worst case `max_v r(v)`.
//! The follow-up work (Feuilloley 2017) contrasts both with the
//! **edge-averaged** measure, where every edge is weighted by the output
//! rounds of its two endpoints, and with per-quantile statements ("when does
//! an *ordinary* node output?"). This module makes all of them first-class:
//!
//! * [`Measure`] names a single measure (for search objectives, CSV columns
//!   and table headers);
//! * [`MeasureSet`] evaluates **every** measure in one pass over a radius
//!   vector and an edge stream — the shape the sweep harness threads through
//!   its rows, so one trial execution feeds all measures at once;
//! * [`ComponentMeasures`] scopes a [`MeasureSet`] to each connected
//!   component and aggregates, the reporting shape of the per-component
//!   experiment mode for disconnected families.
//!
//! On a `d`-regular graph the edge-averaged measure is sandwiched within a
//! factor of two of the node-averaged one (`Σ_e max(r_u, r_v)` is between
//! `½ Σ_v d·r(v)` and `Σ_v d·r(v)`, and `m = n·d/2`), so on the paper's
//! cycle it inherits the node-averaged asymptotics — the separation that
//! survives is *averaged measures vs worst case*. The two averages detach on
//! hub-heavy or disconnected instances: a high-degree node counts once in
//! the node average but `deg(v)` times in the edge average, and an isolated
//! node dilutes only the node average (it has no edges). Both effects are
//! exercised by E8/E9 and the measure property tests.
//!
//! # Examples
//!
//! One radius vector, every measure — including the full distribution:
//!
//! ```
//! use avglocal::prelude::*;
//!
//! # fn main() -> Result<(), avglocal::CoreError> {
//! // A 4-cycle whose winner saw half the ring; everyone else stopped at 1.
//! let graph = generators::cycle(4)?;
//! let profile = RadiusProfile::new(vec![1, 1, 1, 2]);
//! let set = MeasureSet::of(&profile, &graph);
//!
//! assert_eq!(set.worst_case, 2.0);
//! assert_eq!(set.node_averaged, 1.25);
//! assert_eq!(set.median, 1.0);
//! // Each of the 4 edges is weighted by its slower endpoint; the winner
//! // has two incident edges, so the edge average is (2 + 2 + 1 + 1) / 4.
//! assert_eq!(set.edge_averaged, 1.5);
//! // The scalar columns are all points of the retained distribution.
//! assert_eq!(set.cdf.fraction_within(1), 0.75);
//! assert_eq!(set.cdf.quantile(500), set.median);
//!
//! // Any single measure can be looked up or evaluated directly.
//! assert_eq!(set.get(Measure::WorstCase), Some(2.0));
//! assert_eq!(Measure::NodeAveraged.evaluate_on(&profile, &graph), 1.25);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use avglocal_graph::{ComponentLabels, CsrGraph, Graph};

use crate::cdf::RadiusCdf;
use crate::profile::RadiusProfile;

/// How an edge aggregates the output radii of its two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeWeight {
    /// The edge is done when its **last** endpoint outputs: `max(r_u, r_v)`.
    Max,
    /// The midpoint of the endpoints' output rounds: `(r_u + r_v) / 2`.
    Mean,
}

/// A way of collapsing an execution's radius profile into a single number.
///
/// * [`Measure::WorstCase`] is the classical LOCAL running time
///   `max_v r(v)`;
/// * [`Measure::NodeAveraged`] is the paper's measure `Σ_v r(v) / n`;
/// * [`Measure::Total`] is the un-normalised sum `Σ_v r(v)`, the quantity the
///   Section 2 recurrence bounds directly;
/// * [`Measure::EdgeAveraged`] averages over the **edges**, each weighted by
///   its endpoints' radii ([`EdgeWeight`] picks max or mean);
/// * [`Measure::Quantile`] is the nearest-rank radius quantile (`per_mille =
///   500` is the median — the "ordinary node" of the follow-up question).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Measure {
    /// `max_v r(v)` — the classical measure.
    WorstCase,
    /// `Σ_v r(v) / n` — the paper's measure.
    NodeAveraged,
    /// `Σ_v r(v)`.
    Total,
    /// `Σ_e w(e) / m` with `w` given by the [`EdgeWeight`].
    EdgeAveraged {
        /// How an edge aggregates its endpoints' radii.
        weight: EdgeWeight,
    },
    /// The nearest-rank quantile of the radii, in thousandths (`500` =
    /// median, `900` = 90th percentile). Values are clamped to `0..=1000`.
    Quantile {
        /// The quantile in thousandths.
        per_mille: u16,
    },
}

/// The median radius — the headline [`Measure::Quantile`].
pub const MEDIAN: Measure = Measure::Quantile { per_mille: 500 };

impl Measure {
    /// The canonical measures, in display order (the median stands in for
    /// the quantile family).
    pub const ALL: [Measure; 6] = [
        Measure::WorstCase,
        Measure::NodeAveraged,
        Measure::Total,
        Measure::EdgeAveraged { weight: EdgeWeight::Max },
        Measure::EdgeAveraged { weight: EdgeWeight::Mean },
        MEDIAN,
    ];

    /// Evaluates the measure on a radius profile alone.
    ///
    /// Returns `None` for [`Measure::EdgeAveraged`], which needs the graph
    /// structure — use [`Measure::evaluate_on`] or [`MeasureSet`] for those.
    #[must_use]
    pub fn evaluate(&self, profile: &RadiusProfile) -> Option<f64> {
        match self {
            Measure::WorstCase => Some(profile.max() as f64),
            Measure::NodeAveraged => Some(profile.average()),
            Measure::Total => Some(profile.total() as f64),
            Measure::Quantile { per_mille } => Some(profile.quantile(*per_mille)),
            Measure::EdgeAveraged { .. } => None,
        }
    }

    /// Evaluates the measure on a radius profile together with the graph it
    /// was measured on; supports every measure.
    ///
    /// # Panics
    ///
    /// Panics when `profile` does not cover every node of `graph`.
    #[must_use]
    pub fn evaluate_on(&self, profile: &RadiusProfile, graph: &Graph) -> f64 {
        assert_eq!(
            profile.len(),
            graph.node_count(),
            "the profile must cover every node of the graph"
        );
        match self.evaluate(profile) {
            Some(value) => value,
            None => {
                let Measure::EdgeAveraged { weight } = self else { unreachable!() };
                let radii = profile.radii();
                let m = graph.edge_count();
                if m == 0 {
                    return 0.0;
                }
                let sum: f64 = graph
                    .edges()
                    .map(|(u, v)| edge_value(*weight, radii[u.index()], radii[v.index()]))
                    .sum();
                sum / m as f64
            }
        }
    }

    /// Short machine-friendly name (used in CSV headers). Non-median
    /// quantiles encode their level (`quantile_900`), so two distinct
    /// quantile measures never collide in keyed output.
    #[must_use]
    pub fn key(&self) -> String {
        match self {
            Measure::WorstCase => "worst_case".to_string(),
            Measure::NodeAveraged => "node_averaged".to_string(),
            Measure::Total => "total".to_string(),
            Measure::EdgeAveraged { weight: EdgeWeight::Max } => "edge_averaged_max".to_string(),
            Measure::EdgeAveraged { weight: EdgeWeight::Mean } => "edge_averaged_mean".to_string(),
            Measure::Quantile { per_mille: 500 } => "median".to_string(),
            Measure::Quantile { per_mille } => format!("quantile_{per_mille}"),
        }
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Measure::WorstCase => f.write_str("worst-case radius"),
            Measure::NodeAveraged => f.write_str("node-averaged radius"),
            Measure::Total => f.write_str("total radius"),
            Measure::EdgeAveraged { weight: EdgeWeight::Max } => {
                f.write_str("edge-averaged radius (max endpoint)")
            }
            Measure::EdgeAveraged { weight: EdgeWeight::Mean } => {
                f.write_str("edge-averaged radius (mean endpoint)")
            }
            Measure::Quantile { per_mille: 500 } => f.write_str("median radius"),
            Measure::Quantile { per_mille } => {
                write!(f, "{:.3}-quantile radius", f64::from(*per_mille) / 1000.0)
            }
        }
    }
}

/// The weight an edge with endpoint radii `ru`, `rv` contributes.
fn edge_value(weight: EdgeWeight, ru: usize, rv: usize) -> f64 {
    match weight {
        EdgeWeight::Max => ru.max(rv) as f64,
        EdgeWeight::Mean => (ru + rv) as f64 / 2.0,
    }
}

/// The two headline measures evaluated side by side, as reported in every
/// experiment table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurePair {
    /// `max_v r(v)`.
    pub worst_case: f64,
    /// `Σ_v r(v) / n`.
    pub average: f64,
}

impl MeasurePair {
    /// Evaluates both measures on a profile.
    #[must_use]
    pub fn of(profile: &RadiusProfile) -> Self {
        MeasurePair { worst_case: profile.max() as f64, average: profile.average() }
    }

    /// The separation factor `worst_case / average` the paper's Section 2 is
    /// about (`∞` when the average is 0 but the worst case is not, 1.0 when
    /// both are 0).
    #[must_use]
    pub fn separation(&self) -> f64 {
        if self.average == 0.0 {
            if self.worst_case == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.worst_case / self.average
        }
    }
}

/// Every measure of one execution, evaluated in a single pass over the
/// radius vector and the edge stream.
///
/// This is the unit the sweep harness threads through its rows: one trial
/// produces one `MeasureSet`, and row aggregation is a per-field mean over
/// the trials — except for [`MeasureSet::cdf`], which merges exactly
/// (pooling the observations) instead of averaging.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasureSet {
    /// Number of nodes measured.
    pub nodes: usize,
    /// Number of edges measured.
    pub edges: usize,
    /// `max_v r(v)`.
    pub worst_case: f64,
    /// `Σ_v r(v)`.
    pub total: f64,
    /// `Σ_v r(v) / n` (0 when there are no nodes).
    pub node_averaged: f64,
    /// `Σ_e max(r_u, r_v) / m` (0 when there are no edges).
    pub edge_averaged: f64,
    /// `Σ_e (r_u + r_v) / 2 / m` (0 when there are no edges).
    pub edge_averaged_mean: f64,
    /// The nearest-rank median radius.
    pub median: f64,
    /// The full radius distribution of the execution — the exact ECDF every
    /// scalar quantile above is a point of. It holds one `(radius, count)`
    /// pair per distinct radius, so a set costs 16 bytes per distinct
    /// radius, however far the slowest node looked.
    pub cdf: RadiusCdf,
}

impl MeasureSet {
    /// Evaluates every measure from a radius vector and an edge stream of
    /// `(u, v)` node indices (each undirected edge listed once).
    ///
    /// # Panics
    ///
    /// Panics when an edge endpoint is out of range of `radii`.
    #[must_use]
    pub fn compute(radii: &[usize], edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let nodes = radii.len();
        let mut worst = 0usize;
        let mut total = 0usize;
        for &r in radii {
            worst = worst.max(r);
            total += r;
        }
        let mut edge_count = 0usize;
        let mut edge_max_sum = 0.0f64;
        let mut edge_mean_sum = 0.0f64;
        for (u, v) in edges {
            edge_count += 1;
            edge_max_sum += radii[u].max(radii[v]) as f64;
            edge_mean_sum += (radii[u] + radii[v]) as f64 / 2.0;
        }
        // The distribution is folded from the same radius vector; the median
        // column is its 500-per-mille point (the same nearest-rank
        // definition the old selection-based median used, bit for bit).
        let cdf = RadiusCdf::from_radii(radii);
        let median = cdf.quantile(500);
        MeasureSet {
            nodes,
            edges: edge_count,
            worst_case: worst as f64,
            total: total as f64,
            node_averaged: if nodes == 0 { 0.0 } else { total as f64 / nodes as f64 },
            edge_averaged: if edge_count == 0 { 0.0 } else { edge_max_sum / edge_count as f64 },
            edge_averaged_mean: if edge_count == 0 {
                0.0
            } else {
                edge_mean_sum / edge_count as f64
            },
            median,
            cdf,
        }
    }

    /// Evaluates every measure of `profile` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics when `profile` does not cover every node of `graph`.
    #[must_use]
    pub fn of(profile: &RadiusProfile, graph: &Graph) -> Self {
        assert_eq!(
            profile.len(),
            graph.node_count(),
            "the profile must cover every node of the graph"
        );
        MeasureSet::compute(profile.radii(), graph.edges().map(|(u, v)| (u.index(), v.index())))
    }

    /// Evaluates every measure of `profile` on a frozen snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `profile` does not cover every node of `csr`.
    #[must_use]
    pub fn of_csr(profile: &RadiusProfile, csr: &CsrGraph) -> Self {
        assert_eq!(
            profile.len(),
            csr.node_count(),
            "the profile must cover every node of the snapshot"
        );
        MeasureSet::compute(profile.radii(), csr.edges().map(|(u, v)| (u as usize, v as usize)))
    }

    /// The headline pair (worst case, node average) of this set.
    #[must_use]
    pub fn pair(&self) -> MeasurePair {
        MeasurePair { worst_case: self.worst_case, average: self.node_averaged }
    }

    /// The separation factor `worst_case / node_averaged` (see
    /// [`MeasurePair::separation`]).
    #[must_use]
    pub fn separation(&self) -> f64 {
        self.pair().separation()
    }

    /// Looks up a [`Measure`] in this set. Every quantile is answerable from
    /// the retained [`MeasureSet::cdf`], not just the median.
    #[must_use]
    pub fn get(&self, measure: Measure) -> Option<f64> {
        match measure {
            Measure::WorstCase => Some(self.worst_case),
            Measure::NodeAveraged => Some(self.node_averaged),
            Measure::Total => Some(self.total),
            Measure::EdgeAveraged { weight: EdgeWeight::Max } => Some(self.edge_averaged),
            Measure::EdgeAveraged { weight: EdgeWeight::Mean } => Some(self.edge_averaged_mean),
            Measure::Quantile { per_mille: 500 } => Some(self.median),
            Measure::Quantile { per_mille } => Some(self.cdf.quantile(per_mille)),
        }
    }
}

/// Nearest-rank quantile of a scratch slice: the value at index
/// `round(q · (len - 1))` of the sorted order (0 for the empty slice).
///
/// Selects in `O(len)` via `select_nth_unstable` instead of sorting — this
/// runs once per sweep trial, inside the hot per-trial loop. The slice is
/// reordered in place.
pub(crate) fn nearest_rank(values: &mut [usize], per_mille: u16) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let q = usize::from(per_mille.min(1000));
    let index = (q * (values.len() - 1) + 500) / 1000;
    *values.select_nth_unstable(index).1 as f64
}

/// A [`MeasureSet`] per connected component plus the whole-graph aggregate —
/// the reporting shape of the per-component experiment mode.
///
/// The aggregate averages over **all** nodes and **all** edges of the graph:
/// an isolated node therefore dilutes the aggregate node average while
/// leaving the edge average untouched, which is exactly the divergence the
/// per-component mode exists to expose.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentMeasures {
    /// The whole-graph measures (all nodes, all edges).
    pub aggregate: MeasureSet,
    /// One measure set per component, indexed by component label (components
    /// are numbered in order of their smallest node index).
    pub per_component: Vec<MeasureSet>,
}

impl ComponentMeasures {
    /// Evaluates the per-component and aggregate measures of `profile` on
    /// `graph` under the given labelling.
    ///
    /// # Panics
    ///
    /// Panics when `profile` or `labels` do not cover every node of `graph`.
    #[must_use]
    pub fn of(profile: &RadiusProfile, graph: &Graph, labels: &ComponentLabels) -> Self {
        assert_eq!(
            labels.node_count(),
            graph.node_count(),
            "the labelling must cover every node of the graph"
        );
        let aggregate = MeasureSet::of(profile, graph);
        let radii = profile.radii();
        let count = labels.count();
        let mut component_radii: Vec<Vec<usize>> = vec![Vec::new(); count];
        // Node index -> index within its component's radius vector, so edges
        // can be rebased into component-local indices.
        let mut local_index: Vec<usize> = Vec::with_capacity(radii.len());
        for v in graph.nodes() {
            let c = labels.label(v) as usize;
            local_index.push(component_radii[c].len());
            component_radii[c].push(radii[v.index()]);
        }
        let mut component_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); count];
        for (u, v) in graph.edges() {
            let c = labels.label(u) as usize;
            debug_assert_eq!(c, labels.label(v) as usize, "edges never cross components");
            component_edges[c].push((local_index[u.index()], local_index[v.index()]));
        }
        let per_component = component_radii
            .iter()
            .zip(&component_edges)
            .map(|(radii, edges)| MeasureSet::compute(radii, edges.iter().copied()))
            .collect();
        ComponentMeasures { aggregate, per_component }
    }

    /// Number of components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.per_component.len()
    }

    /// The measures of the component with the most nodes, if any.
    #[must_use]
    pub fn largest_component(&self) -> Option<&MeasureSet> {
        self.per_component.iter().max_by_key(|m| m.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::{generators, Identifier, NodeId};

    #[test]
    fn measures_evaluate_correctly() {
        let p = RadiusProfile::new(vec![1, 2, 3, 10]);
        assert_eq!(Measure::WorstCase.evaluate(&p), Some(10.0));
        assert_eq!(Measure::NodeAveraged.evaluate(&p), Some(4.0));
        assert_eq!(Measure::Total.evaluate(&p), Some(16.0));
        assert_eq!(MEDIAN.evaluate(&p), Some(3.0));
        assert_eq!(Measure::EdgeAveraged { weight: EdgeWeight::Max }.evaluate(&p), None);
    }

    #[test]
    fn edge_averaged_evaluates_on_graphs() {
        // A path 0-1-2-3 with radii [1, 2, 3, 10]: edge maxima are
        // [2, 3, 10], edge means are [1.5, 2.5, 6.5].
        let g = generators::path(4).unwrap();
        let p = RadiusProfile::new(vec![1, 2, 3, 10]);
        let max = Measure::EdgeAveraged { weight: EdgeWeight::Max }.evaluate_on(&p, &g);
        assert!((max - 5.0).abs() < 1e-12);
        let mean = Measure::EdgeAveraged { weight: EdgeWeight::Mean }.evaluate_on(&p, &g);
        assert!((mean - 3.5).abs() < 1e-12);
        // Profile-only measures agree between the two entry points.
        assert_eq!(Measure::WorstCase.evaluate_on(&p, &g), 10.0);
    }

    #[test]
    fn display_and_keys_are_distinct() {
        let mut names: Vec<String> = Measure::ALL.iter().map(|m| m.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Measure::ALL.len());
        let mut keys: Vec<String> = Measure::ALL.iter().map(Measure::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Measure::ALL.len());
        // Non-median quantiles display and key their level, so distinct
        // levels never collide in keyed output.
        let q9 = Measure::Quantile { per_mille: 900 };
        assert!(q9.to_string().contains("0.900"));
        assert_eq!(q9.key(), "quantile_900");
        assert_ne!(q9.key(), Measure::Quantile { per_mille: 250 }.key());
    }

    #[test]
    fn pair_and_separation() {
        let p = RadiusProfile::new(vec![1, 1, 1, 1, 16]);
        let pair = MeasurePair::of(&p);
        assert_eq!(pair.worst_case, 16.0);
        assert_eq!(pair.average, 4.0);
        assert_eq!(pair.separation(), 4.0);
    }

    #[test]
    fn separation_edge_cases() {
        let zero = MeasurePair { worst_case: 0.0, average: 0.0 };
        assert_eq!(zero.separation(), 1.0);
        let degenerate = MeasurePair { worst_case: 5.0, average: 0.0 };
        assert!(degenerate.separation().is_infinite());
    }

    #[test]
    fn measure_set_computes_every_measure_at_once() {
        let g = generators::cycle(4).unwrap();
        let p = RadiusProfile::new(vec![1, 1, 1, 5]);
        let set = MeasureSet::of(&p, &g);
        assert_eq!(set.nodes, 4);
        assert_eq!(set.edges, 4);
        assert_eq!(set.worst_case, 5.0);
        assert_eq!(set.total, 8.0);
        assert_eq!(set.node_averaged, 2.0);
        // Edges (0,1), (1,2), (2,3), (0,3): maxima [1, 1, 5, 5] -> 3.0.
        assert_eq!(set.edge_averaged, 3.0);
        assert_eq!(set.edge_averaged_mean, 2.0);
        assert_eq!(set.median, 1.0);
        assert_eq!(set.pair(), MeasurePair::of(&p));
        assert_eq!(set.separation(), 2.5);
        // The lookup agrees with every individually evaluated measure.
        for measure in Measure::ALL {
            assert_eq!(set.get(measure), Some(measure.evaluate_on(&p, &g)), "{measure}");
        }
        // Non-median quantiles are answered from the retained distribution.
        let q9 = Measure::Quantile { per_mille: 900 };
        assert_eq!(set.get(q9), Some(q9.evaluate_on(&p, &g)));
        assert_eq!(set.cdf.observations(), 4);
        assert_eq!(set.cdf.quantile(500), set.median);
    }

    #[test]
    fn empty_and_edgeless_measure_sets() {
        let empty = MeasureSet::compute(&[], std::iter::empty());
        assert_eq!(empty, MeasureSet::default());
        let mut g = Graph::new();
        g.add_node(Identifier::new(0));
        let one = MeasureSet::of(&RadiusProfile::new(vec![3]), &g);
        assert_eq!(one.node_averaged, 3.0);
        assert_eq!(one.edge_averaged, 0.0);
        assert_eq!(one.edges, 0);
    }

    #[test]
    fn csr_and_graph_measure_sets_agree() {
        let g = generators::grid(3, 4).unwrap();
        let p = RadiusProfile::new((0..12).map(|i| i % 5).collect());
        assert_eq!(MeasureSet::of(&p, &g), MeasureSet::of_csr(&p, &g.freeze()));
    }

    #[test]
    fn nearest_rank_quantiles() {
        // Deliberately unsorted: selection handles any order.
        assert_eq!(nearest_rank(&mut [4usize, 1, 3, 2], 0), 1.0);
        assert_eq!(nearest_rank(&mut [4usize, 1, 3, 2], 500), 3.0); // round(0.5 * 3) = 2
        assert_eq!(nearest_rank(&mut [4usize, 1, 3, 2], 1000), 4.0);
        assert_eq!(nearest_rank(&mut [], 500), 0.0);
        assert_eq!(nearest_rank(&mut [7], 250), 7.0);
    }

    #[test]
    fn component_measures_scope_and_aggregate() {
        // Component 0: path 0-1 with radii [2, 4]; component 1: isolated
        // node 2 with radius 0.
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_node(Identifier::new(i));
        }
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        let p = RadiusProfile::new(vec![2, 4, 0]);
        let cm = ComponentMeasures::of(&p, &g, &labels);
        assert_eq!(cm.component_count(), 2);
        assert_eq!(cm.per_component[0].node_averaged, 3.0);
        assert_eq!(cm.per_component[0].edge_averaged, 4.0);
        assert_eq!(cm.per_component[1].nodes, 1);
        assert_eq!(cm.per_component[1].node_averaged, 0.0);
        // The aggregate is over all nodes and all edges: the isolated node
        // dilutes the node average but not the edge average.
        assert_eq!(cm.aggregate.node_averaged, 2.0);
        assert_eq!(cm.aggregate.edge_averaged, 4.0);
        assert_eq!(cm.aggregate.worst_case, 4.0);
        assert_eq!(cm.largest_component().unwrap().nodes, 2);
        // Totals are additive across components.
        let total: f64 = cm.per_component.iter().map(|m| m.total).sum();
        assert_eq!(total, cm.aggregate.total);
    }

    #[test]
    fn regular_graph_sandwich_bounds_the_edge_average() {
        // On a d-regular graph the edge-averaged (max) measure lies within
        // [1, 2] x the node-averaged one.
        for g in [generators::cycle(16).unwrap(), generators::torus(4, 4).unwrap()] {
            let p = RadiusProfile::new((0..g.node_count()).map(|i| 1 + (i * 7) % 9).collect());
            let set = MeasureSet::of(&p, &g);
            assert!(set.edge_averaged >= set.node_averaged - 1e-12);
            assert!(set.edge_averaged <= 2.0 * set.node_averaged + 1e-12);
        }
    }
}
