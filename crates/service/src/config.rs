//! Service tunables and the validating builder.
//!
//! [`ServiceConfig`] stays a plain `Copy` struct with public fields — tests
//! and embedders can still write `ServiceConfig { max_in_flight: 1, ..Default::default() }`
//! — but the recommended construction path is [`ServiceConfig::builder`],
//! which rejects the degenerate settings a literal silently accepts: a
//! zero admission bound sheds every request, and a zero backoff base makes
//! latest-consistency retries spin without ever yielding the clock.

use std::fmt;

/// Tunables of a [`RadiusQueryService`](crate::RadiusQueryService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission bound: requests beyond this many in flight are shed.
    pub max_in_flight: usize,
    /// Deadline budget, in clock ticks, of queries that do not bring their
    /// own. [`u64::MAX`], the default, is no deadline: such a probe reads no
    /// clock. A finite budget reads the clock once when the probe starts
    /// and once per ball-growth step.
    pub default_deadline: u64,
    /// How many times a latest-consistency query retries after losing its
    /// pinned generation to a swap, at most: a request's own
    /// [`Consistency::Latest`](crate::Consistency::Latest) `retry_limit` is
    /// capped at this value.
    pub retry_limit: u32,
    /// Backoff before retry `k` (1-based) is `backoff_base · 2^(k − 1)`
    /// ticks, saturating at [`u64::MAX`].
    pub backoff_base: u64,
    /// Optional ball-radius hard limit applied to every generation's
    /// session (see [`avglocal_runtime::FrozenExecutor::with_max_radius`]).
    pub max_radius: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 64,
            default_deadline: u64::MAX,
            retry_limit: 3,
            backoff_base: 1,
            max_radius: None,
        }
    }
}

impl ServiceConfig {
    /// A validating builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder { config: ServiceConfig::default() }
    }
}

/// Builder for [`ServiceConfig`]; see [`ServiceConfig::builder`].
///
/// # Examples
///
/// ```
/// use avglocal_service::{InvalidConfig, ServiceConfig};
///
/// let config = ServiceConfig::builder().max_in_flight(8).build().unwrap();
/// assert_eq!(config.max_in_flight, 8);
///
/// let err = ServiceConfig::builder().backoff_base(0).build().unwrap_err();
/// assert_eq!(err, InvalidConfig::ZeroBackoffBase);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the admission bound. Zero is rejected by [`Self::build`].
    #[must_use]
    pub fn max_in_flight(mut self, bound: usize) -> Self {
        self.config.max_in_flight = bound;
        self
    }

    /// Sets the default deadline budget in clock ticks.
    #[must_use]
    pub fn default_deadline(mut self, ticks: u64) -> Self {
        self.config.default_deadline = ticks;
        self
    }

    /// Sets the latest-consistency retry limit.
    #[must_use]
    pub fn retry_limit(mut self, retries: u32) -> Self {
        self.config.retry_limit = retries;
        self
    }

    /// Sets the backoff base. Zero is rejected by [`Self::build`].
    #[must_use]
    pub fn backoff_base(mut self, ticks: u64) -> Self {
        self.config.backoff_base = ticks;
        self
    }

    /// Sets the optional ball-radius hard limit.
    #[must_use]
    pub fn max_radius(mut self, limit: Option<usize>) -> Self {
        self.config.max_radius = limit;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// A typed [`InvalidConfig`] naming the first degenerate setting: zero
    /// `max_in_flight` (the service would shed everything) or zero
    /// `backoff_base` (retries would spin without sleeping).
    pub fn build(self) -> std::result::Result<ServiceConfig, InvalidConfig> {
        if self.config.max_in_flight == 0 {
            return Err(InvalidConfig::ZeroMaxInFlight);
        }
        if self.config.backoff_base == 0 {
            return Err(InvalidConfig::ZeroBackoffBase);
        }
        Ok(self.config)
    }
}

/// A degenerate [`ServiceConfig`] rejected by
/// [`ServiceConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidConfig {
    /// `max_in_flight == 0`: every request would be shed at admission.
    ZeroMaxInFlight,
    /// `backoff_base == 0`: latest-consistency retries would never back
    /// off, spinning on the clock.
    ZeroBackoffBase,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConfig::ZeroMaxInFlight => {
                write!(f, "max_in_flight must be positive: a zero bound sheds every request")
            }
            InvalidConfig::ZeroBackoffBase => {
                write!(f, "backoff_base must be positive: zero backoff spins on retry")
            }
        }
    }
}

impl std::error::Error for InvalidConfig {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(ServiceConfig::builder().build().unwrap(), ServiceConfig::default());
    }

    #[test]
    fn builder_rejects_each_degenerate_setting() {
        assert_eq!(
            ServiceConfig::builder().max_in_flight(0).build().unwrap_err(),
            InvalidConfig::ZeroMaxInFlight
        );
        assert_eq!(
            ServiceConfig::builder().backoff_base(0).build().unwrap_err(),
            InvalidConfig::ZeroBackoffBase
        );
    }

    #[test]
    fn builder_sets_every_field() {
        let config = ServiceConfig::builder()
            .max_in_flight(4)
            .default_deadline(100)
            .retry_limit(7)
            .backoff_base(2)
            .max_radius(Some(9))
            .build()
            .unwrap();
        let expected = ServiceConfig {
            max_in_flight: 4,
            default_deadline: 100,
            retry_limit: 7,
            backoff_base: 2,
            max_radius: Some(9),
        };
        assert_eq!(config, expected);
    }
}
