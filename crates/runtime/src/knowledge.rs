//! Global knowledge available to the nodes.
//!
//! The classic LOCAL model assumes every node knows the number of nodes `n`;
//! the paper (following Korman–Sereni–Viennot and Musto) removes that
//! assumption and lets nodes decide at different rounds. [`Knowledge`]
//! captures which global parameters the algorithm may rely on, so the same
//! algorithm implementation can be run in either regime and the executors can
//! enforce what it may read.

/// The global parameters a node is allowed to know before the computation
/// starts.
///
/// The default is the paper's setting: nothing is known (`Knowledge::none()`).
///
/// # Examples
///
/// ```
/// use avglocal_runtime::Knowledge;
///
/// let nothing = Knowledge::none();
/// assert_eq!(nothing.node_count(), None);
///
/// let classic = Knowledge::with_node_count(128);
/// assert_eq!(classic.node_count(), Some(128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Knowledge {
    node_count: Option<usize>,
    identifier_bound: Option<u64>,
}

impl Knowledge {
    /// No global knowledge at all (the paper's setting).
    #[must_use]
    pub const fn none() -> Self {
        Knowledge { node_count: None, identifier_bound: None }
    }

    /// The classic LOCAL assumption: every node knows `n`.
    #[must_use]
    pub const fn with_node_count(n: usize) -> Self {
        Knowledge { node_count: Some(n), identifier_bound: None }
    }

    /// Adds knowledge of the number of nodes.
    #[must_use]
    pub const fn and_node_count(mut self, n: usize) -> Self {
        self.node_count = Some(n);
        self
    }

    /// Adds knowledge of an upper bound on identifier values (the size of the
    /// identifier space, often polynomial in `n`).
    #[must_use]
    pub const fn and_identifier_bound(mut self, bound: u64) -> Self {
        self.identifier_bound = Some(bound);
        self
    }

    /// Number of nodes, if known.
    #[must_use]
    pub const fn node_count(&self) -> Option<usize> {
        self.node_count
    }

    /// Upper bound on identifier values, if known.
    #[must_use]
    pub const fn identifier_bound(&self) -> Option<u64> {
        self.identifier_bound
    }

    /// Returns `true` when no global parameter is known.
    #[must_use]
    pub const fn is_oblivious(&self) -> bool {
        self.node_count.is_none() && self.identifier_bound.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_knows_nothing() {
        let k = Knowledge::none();
        assert!(k.is_oblivious());
        assert_eq!(k.node_count(), None);
        assert_eq!(k.identifier_bound(), None);
        assert_eq!(k, Knowledge::default());
    }

    #[test]
    fn builders_accumulate() {
        let k = Knowledge::none().and_node_count(10).and_identifier_bound(1000);
        assert!(!k.is_oblivious());
        assert_eq!(k.node_count(), Some(10));
        assert_eq!(k.identifier_bound(), Some(1000));
    }

    #[test]
    fn with_node_count_shortcut() {
        assert_eq!(Knowledge::with_node_count(5), Knowledge::none().and_node_count(5));
    }
}
