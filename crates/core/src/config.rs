//! Shared execution options for the secure-inference parties.
//!
//! [`SecureServer`](crate::inference::SecureServer) and
//! [`SecureClient`](crate::inference::SecureClient) both carry the same
//! two knobs — the activation variant and the triplet
//! worker-thread count — with the same defaults and the same validation.
//! [`ExecConfig`] holds them once; the party types embed it and delegate
//! their builder methods here.

use crate::matmul::{TripletConfig, TripletMode};
use crate::relu::ReluVariant;
use abnn2_net::{Transport, TransportError};
use std::time::Duration;

/// Validates a worker-thread count.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub(crate) fn checked_threads(threads: usize) -> usize {
    assert!(threads > 0, "thread count must be positive");
    threads
}

/// Execution options shared by every inference party: activation variant
/// (must match the peer's) and triplet worker threads (local-only; the
/// transcript is identical for any thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Activation protocol variant. Both parties must agree.
    pub variant: ReluVariant,
    /// Worker threads for triplet mask computation (1 = the paper's
    /// single-core setting).
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { variant: ReluVariant::Oblivious, threads: 1 }
    }
}

impl ExecConfig {
    /// The paper's defaults: oblivious ReLU, single-core.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the activation variant.
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = checked_threads(threads);
        self
    }

    /// The triplet configuration for an explicit message-layout mode.
    #[must_use]
    pub fn triplet(&self, mode: TripletMode) -> TripletConfig {
        TripletConfig::new(mode).with_threads(self.threads)
    }

    /// The triplet configuration with the paper's batch-size selection rule.
    #[must_use]
    pub fn triplet_for_batch(&self, o: usize) -> TripletConfig {
        TripletConfig::for_batch(o).with_threads(self.threads)
    }
}

/// Deadline budget for a resilient session, applied via
/// [`Transport::set_read_timeout`] and [`Transport::set_phase_budget`].
///
/// `None` anywhere means "unbounded" for that knob. The defaults
/// ([`SessionDeadlines::default`]) are deliberately unbounded so plain
/// (non-resilient) runs behave exactly as before; the resilient drivers
/// default to [`SessionDeadlines::lan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionDeadlines {
    /// Longest a single `recv` may block waiting for the peer.
    pub read_timeout: Option<Duration>,
    /// Budget for the whole offline side: base OTs plus the bundle or
    /// the triplets (armed at the `"setup"` mark).
    pub offline_budget: Option<Duration>,
    /// Budget for the whole online phase (armed at the `"online"` mark).
    pub online_budget: Option<Duration>,
}

impl SessionDeadlines {
    /// No deadlines at all: every operation may block forever.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Generous defaults for a LAN: 10 s per read, 120 s per phase.
    #[must_use]
    pub fn lan() -> Self {
        SessionDeadlines {
            read_timeout: Some(Duration::from_secs(10)),
            offline_budget: Some(Duration::from_secs(120)),
            online_budget: Some(Duration::from_secs(120)),
        }
    }

    /// Uniform read timeout with phase budgets at 20× that, handy for
    /// tests that want everything to fail fast.
    #[must_use]
    pub fn uniform(read_timeout: Duration) -> Self {
        SessionDeadlines {
            read_timeout: Some(read_timeout),
            offline_budget: Some(read_timeout * 20),
            online_budget: Some(read_timeout * 20),
        }
    }

    /// The phase budget a session re-arms on entering the phase `label`:
    /// the `"setup"` mark arms the offline budget (covering setup, bundle
    /// and offline), the `"online"` mark the online budget. `None` for
    /// every other mark, which leaves the running budget in place.
    #[must_use]
    pub fn budget_at(&self, label: &str) -> Option<Option<Duration>> {
        match label {
            "setup" => Some(self.offline_budget),
            "online" => Some(self.online_budget),
            _ => None,
        }
    }

    /// Marks the phase `label` on `ch` and re-arms its budget
    /// ([`budget_at`](Self::budget_at)).
    ///
    /// # Errors
    ///
    /// A transport that cannot apply the budget.
    pub fn enter_phase<T: Transport>(&self, ch: &mut T, label: &str) -> Result<(), TransportError> {
        ch.mark_phase(label);
        match self.budget_at(label) {
            Some(budget) => ch.set_phase_budget(budget),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = ExecConfig::new();
        assert_eq!(cfg.variant, ReluVariant::Oblivious);
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn builders_compose() {
        let cfg = ExecConfig::new().with_variant(ReluVariant::Optimized).with_threads(4);
        assert_eq!(cfg.variant, ReluVariant::Optimized);
        assert_eq!(cfg.triplet_for_batch(1).threads, 4);
        assert_eq!(cfg.triplet_for_batch(1).mode, TripletMode::OneBatch);
        assert_eq!(cfg.triplet_for_batch(3).mode, TripletMode::MultiBatch);
        assert_eq!(cfg.triplet(TripletMode::OneBatch).mode, TripletMode::OneBatch);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        let _ = ExecConfig::new().with_threads(0);
    }

    #[test]
    fn deadline_presets() {
        assert_eq!(SessionDeadlines::unbounded(), SessionDeadlines::default());
        assert!(SessionDeadlines::unbounded().read_timeout.is_none());
        let lan = SessionDeadlines::lan();
        assert!(lan.read_timeout.unwrap() < lan.offline_budget.unwrap());
        let u = SessionDeadlines::uniform(Duration::from_millis(100));
        assert_eq!(u.read_timeout, Some(Duration::from_millis(100)));
        assert_eq!(u.online_budget, Some(Duration::from_secs(2)));
    }

    #[test]
    fn setup_and_online_marks_arm_their_budgets() {
        let d = SessionDeadlines {
            read_timeout: None,
            offline_budget: Some(Duration::from_secs(3)),
            online_budget: None,
        };
        assert_eq!(d.budget_at("setup"), Some(Some(Duration::from_secs(3))));
        assert_eq!(d.budget_at("online"), Some(None), "an unbounded online phase disarms");
        for label in ["handshake", "offline", "bundle", "offline:op0/dense"] {
            assert_eq!(d.budget_at(label), None, "{label} leaves the budget running");
        }
    }
}
