//! Batched, sharded queries behind the unified [`QueryRequest`] API.
//!
//! A batch pins **one** generation, holds **one** admission slot for its
//! whole lifetime, and spreads its node set over the persistent pool
//! through the session's node loop
//! ([`avglocal_runtime::FrozenExecutor::run_nodes_with`]), where each pool
//! participant keeps one live ball grower and re-centres it for every slot
//! it claims. One cooperative deadline budget covers the entire batch: the
//! batch reads the clock once when it starts, and every probe polls the
//! same shared cancel hook (one clock read) once per ball-growth step, so
//! when the budget expires mid-batch the reply comes back *partial* —
//! completed entries keep their bit-identical answers, the rest are typed
//! [`BatchOutcome::Expired`] — instead of the whole batch failing. The
//! unbounded budget [`u64::MAX`] is no deadline: the batch installs no hook
//! and reads no clock.
//!
//! Single queries and batches take the same [`QueryOptions`]: a deadline
//! budget plus a [`Consistency`] mode (serve from the pinned generation, or
//! retry until the answer comes from a generation still current when the
//! probe completes).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use avglocal_graph::NodeId;
use avglocal_runtime::{BallAlgorithm, NodeBatchOptions, RuntimeError};

use crate::error::{Result, ServiceError};
use crate::service::{Generation, RadiusQueryService};

/// Which generation an answer must be consistent with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Serve from the generation pinned at admission; a swap landing
    /// mid-probe does not invalidate the answer (it still carries its
    /// generation's epoch). The default, and the cheapest.
    #[default]
    Pinned,
    /// Insist the answer come from a generation that is still current when
    /// the probe completes; retry with bounded exponential backoff when a
    /// swap invalidates the pinned generation mid-probe.
    Latest {
        /// How many re-probes to attempt before giving up with
        /// [`ServiceError::StaleGeneration`], capped at 3.
        retry_limit: u32,
    },
}

/// Options shared by single and batched queries.
///
/// The default asks for no deadline on the pinned generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Deadline budget in clock ticks. [`u64::MAX`], the default, means no
    /// deadline, and such a request reads no clock. A finite budget reads
    /// the clock once when the request's probe starts and once per
    /// ball-growth step.
    pub deadline: u64,
    /// Consistency demanded of the answer.
    pub consistency: Consistency,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { deadline: u64::MAX, consistency: Consistency::default() }
    }
}

impl QueryOptions {
    /// The default options: no deadline, pinned consistency.
    #[must_use]
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Overrides the deadline budget.
    #[must_use]
    pub fn with_deadline(mut self, ticks: u64) -> Self {
        self.deadline = ticks;
        self
    }

    /// Overrides the consistency mode.
    #[must_use]
    pub fn with_consistency(mut self, consistency: Consistency) -> Self {
        self.consistency = consistency;
        self
    }
}

/// The node population a batch asks about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSelection {
    /// Every node of the pinned generation — the population the paper's
    /// distributional measures are defined over.
    All,
    /// An explicit node list; reply slots answer positionally, duplicates
    /// and out-of-bounds entries included.
    Nodes(Vec<NodeId>),
}

/// A batched query: a node population plus the shared [`QueryOptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The nodes to probe.
    pub nodes: NodeSelection,
    /// Deadline and consistency, same type as single queries.
    pub options: QueryOptions,
}

impl QueryRequest {
    /// A whole-population request.
    #[must_use]
    pub fn all(options: QueryOptions) -> Self {
        QueryRequest { nodes: NodeSelection::All, options }
    }

    /// A request for an explicit node list.
    #[must_use]
    pub fn nodes(nodes: Vec<NodeId>, options: QueryOptions) -> Self {
        QueryRequest { nodes: NodeSelection::Nodes(nodes), options }
    }
}

/// Per-node outcome of a batched query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome<O> {
    /// The probe completed; bit-identical to a single query of the same
    /// node on the same generation.
    Completed {
        /// The algorithm's output for this node.
        output: O,
        /// The ball radius at which the algorithm decided.
        radius: usize,
    },
    /// The batch's shared deadline expired before this probe decided; the
    /// radius it had reached when cancelled is kept as progress evidence.
    Expired {
        /// Ball radius reached when the deadline cancelled the probe.
        radius: usize,
    },
    /// The probe failed for a non-deadline reason (out-of-bounds node,
    /// non-terminating algorithm, ...).
    Failed(RuntimeError),
}

impl<O> BatchOutcome<O> {
    /// Whether this entry completed.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, BatchOutcome::Completed { .. })
    }
}

/// The typed — possibly partial — reply to a [`QueryRequest`].
///
/// The reply keeps its generation pinned (the `Arc` holds the epoch's
/// frozen session alive), so aggregate layers can fold the radius vector
/// against the exact snapshot that produced it even after later publishes.
#[derive(Debug)]
pub struct BatchReply<O> {
    generation: Arc<Generation>,
    budget: u64,
    nodes: Vec<NodeId>,
    outcomes: Vec<BatchOutcome<O>>,
    completed: usize,
    expired: usize,
}

impl<O> BatchReply<O> {
    /// Epoch of the generation every entry is consistent with.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.generation.epoch()
    }

    /// The pinned generation the batch ran on.
    #[must_use]
    pub fn generation(&self) -> &Arc<Generation> {
        &self.generation
    }

    /// The deadline budget the batch ran under, in clock ticks.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The resolved node list, positionally aligned with
    /// [`BatchReply::outcomes`].
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Per-node outcomes, in request order.
    #[must_use]
    pub fn outcomes(&self) -> &[BatchOutcome<O>] {
        &self.outcomes
    }

    /// Number of completed entries.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of entries cancelled by the shared deadline.
    #[must_use]
    pub fn expired(&self) -> usize {
        self.expired
    }

    /// Number of entries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch had no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Whether every entry completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed == self.outcomes.len()
    }

    /// The full radius vector, for aggregate layers that need every entry.
    ///
    /// # Errors
    ///
    /// The first non-completed entry in node order, typed like the single
    /// query path: [`ServiceError::DeadlineExceeded`] for an expired entry,
    /// [`ServiceError::Probe`] for a failed one.
    pub fn radii(&self) -> Result<Vec<usize>> {
        let mut radii = Vec::with_capacity(self.outcomes.len());
        for outcome in &self.outcomes {
            match outcome {
                BatchOutcome::Completed { radius, .. } => radii.push(*radius),
                BatchOutcome::Expired { radius } => {
                    return Err(ServiceError::DeadlineExceeded {
                        budget: self.budget,
                        radius: *radius,
                    });
                }
                BatchOutcome::Failed(error) => return Err(ServiceError::Probe(error.clone())),
            }
        }
        Ok(radii)
    }
}

impl<A> RadiusQueryService<A>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    /// Runs a batched query: one admission slot, one pinned generation, one
    /// shared deadline, node set sharded across the persistent pool.
    ///
    /// Completed entries are bit-identical to sequential single queries of
    /// the same nodes on the same generation — the slots are
    /// index-addressed, so scheduling never shows in the reply. A deadline
    /// expiring mid-batch yields a *partial* reply (typed per-entry
    /// outcomes), not an error; [`BatchReply::radii`] converts partiality
    /// back into the single-query error types when an aggregate needs every
    /// entry.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the batch is shed at admission —
    /// the whole batch costs exactly one slot —  and
    /// [`ServiceError::StaleGeneration`] when latest consistency exhausts
    /// its retries. Per-node failures are reported in the reply, not here.
    pub fn query_batch(&self, request: &QueryRequest) -> Result<BatchReply<A::Output>> {
        let _slot = self.admit()?;
        // ordering: monotone statistics counter; no ordering dependency.
        self.counters().batches.fetch_add(1, Ordering::Relaxed);
        self.with_consistency(request.options.consistency, |generation| {
            Ok(self.probe_batch(generation, &request.nodes, request.options.deadline))
        })
    }

    /// Runs a batched query on a generation the **caller** already pinned,
    /// instead of the currently published one.
    ///
    /// This is the seam for two-phase protocols that must read a
    /// generation's graph before deciding what to probe — e.g. a sampling
    /// estimator that draws its node subset from the pinned snapshot's
    /// degree sequence and then probes exactly that subset. Routing both
    /// phases through one pinned `Arc<Generation>` closes the race where a
    /// publish lands between the draw and the probe: with plain
    /// [`RadiusQueryService::query_batch`] the probe would silently run
    /// against a different epoch than the one the sample was drawn from.
    ///
    /// Costs one admission slot and one shared deadline budget, exactly like
    /// `query_batch`; the `options.consistency` field is ignored because the
    /// caller's pin *is* the consistency decision.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when shed at admission. Per-node
    /// failures are reported in the reply, not here.
    pub fn query_batch_on(
        &self,
        generation: &Arc<Generation>,
        request: &QueryRequest,
    ) -> Result<BatchReply<A::Output>> {
        let _slot = self.admit()?;
        // ordering: monotone statistics counter; no ordering dependency.
        self.counters().batches.fetch_add(1, Ordering::Relaxed);
        Ok(self.probe_batch(generation, &request.nodes, request.options.deadline))
    }

    /// One batch attempt on a pinned generation, under a shared budget.
    fn probe_batch(
        &self,
        generation: &Arc<Generation>,
        selection: &NodeSelection,
        budget: u64,
    ) -> BatchReply<A::Output> {
        let nodes: Vec<NodeId> = match selection {
            NodeSelection::All => (0..generation.node_count()).map(NodeId::new).collect(),
            NodeSelection::Nodes(nodes) => nodes.clone(),
        };
        let deadline = self.deadline(budget);
        let options = match &deadline {
            Some(expired) => NodeBatchOptions::new().with_cancel(expired),
            None => NodeBatchOptions::new(),
        };
        let results = generation.session().run_nodes_with(
            &nodes,
            self.algorithm(),
            self.knowledge(),
            &options,
        );

        let mut outcomes = Vec::with_capacity(results.len());
        let mut completed = 0usize;
        let mut expired = 0usize;
        for result in results {
            outcomes.push(match result {
                Ok((output, radius)) => {
                    completed += 1;
                    BatchOutcome::Completed { output, radius }
                }
                Err(RuntimeError::Cancelled { radius, .. }) => {
                    expired += 1;
                    BatchOutcome::Expired { radius }
                }
                Err(error) => BatchOutcome::Failed(error),
            });
        }
        // ordering: monotone statistics counters; no ordering dependency.
        self.counters().batch_entries.fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        if expired > 0 {
            // ordering: monotone statistics counter; no ordering dependency.
            self.counters().deadline_expired.fetch_add(expired as u64, Ordering::Relaxed);
        }
        BatchReply {
            generation: Arc::clone(generation),
            budget,
            nodes,
            outcomes,
            completed,
            expired,
        }
    }
}
