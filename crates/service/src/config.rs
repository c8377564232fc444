//! Service tunables.

/// Tunables of a [`RadiusQueryService`](crate::RadiusQueryService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission bound: requests beyond this many in flight are shed.
    pub max_in_flight: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { max_in_flight: 64 }
    }
}
