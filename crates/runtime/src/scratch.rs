//! A shared pool of detached grower scratch buffers.
//!
//! The work-stealing executor hands every pool participant one
//! [`GrowerScratch`] (via `map_init`) and the participant reuses it across
//! every chunk it claims, preserving the zero-allocation steady state per
//! probe. Between executor runs the buffers are parked here, so a session
//! ([`crate::FrozenExecutor`]) that runs many sweeps re-warms nothing: the
//! next run's participants check the warmed buffers straight back out.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};

use avglocal_graph::GrowerScratch;

/// A lock-guarded stack of warmed [`GrowerScratch`] buffers.
///
/// The lock is taken once per participant per run (checkout on first chunk,
/// return on job teardown), never per probe.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    /// Nothing run under the lock can panic: a locker only pops, pushes or
    /// clones the `Vec` (allocation failure aborts). So the mutex is never
    /// poisoned, and every locker takes the guard out of a poison error
    /// without changing behaviour.
    parked: Mutex<Vec<GrowerScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub(crate) fn new() -> Self {
        ScratchPool::default()
    }

    /// Checks a scratch out of the pool (a warmed one when available), tied
    /// to the pool by a guard that parks it again on drop.
    pub(crate) fn checkout(&self) -> PooledScratch<'_> {
        let scratch =
            self.parked.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default();
        PooledScratch { owner: self, scratch }
    }
}

impl Clone for ScratchPool {
    /// Cloning a pool clones the parked buffers, so a cloned session starts
    /// as warm as the original.
    fn clone(&self) -> Self {
        ScratchPool {
            parked: Mutex::new(self.parked.lock().unwrap_or_else(PoisonError::into_inner).clone()),
        }
    }
}

/// A checked-out scratch; parks itself back into its pool on drop.
#[derive(Debug)]
pub(crate) struct PooledScratch<'a> {
    owner: &'a ScratchPool,
    scratch: GrowerScratch,
}

impl Deref for PooledScratch<'_> {
    type Target = GrowerScratch;

    fn deref(&self) -> &GrowerScratch {
        &self.scratch
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut GrowerScratch {
        &mut self.scratch
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.owner.parked.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_park_roundtrip_reuses_buffers() {
        let pool = ScratchPool::new();
        {
            let mut guard = pool.checkout();
            *guard = GrowerScratch::default();
        }
        // The parked buffer is handed out again.
        assert_eq!(pool.parked.lock().unwrap().len(), 1);
        let _a = pool.checkout();
        assert_eq!(pool.parked.lock().unwrap().len(), 0);
    }

    #[test]
    fn clone_carries_the_parked_buffers() {
        let pool = ScratchPool::new();
        drop(pool.checkout());
        drop(pool.checkout());
        let cloned = pool.clone();
        assert_eq!(cloned.parked.lock().unwrap().len(), pool.parked.lock().unwrap().len());
    }
}
