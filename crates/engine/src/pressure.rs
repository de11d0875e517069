//! Pressure knobs for the serving path: per-batch budgets and seeded faults.
//!
//! [`ServeConfig`] is the contract a batch is served under — an admission
//! cost budget, a deadline, and a fault-retry budget. [`FaultPlan`] is the
//! chaos half: a *pure function* of `(seed, request index, attempt)` built
//! on the in-repo SplitMix64 PRNG that injects executor failures and delays.
//! Because the plan is stateless per call, the set of faulted attempts is
//! identical no matter which worker thread evaluates a request or in what
//! order — fault decisions are reproducible at every thread count, which is
//! what lets the property suite assert that non-faulted requests return
//! rows byte-identical to a fault-free run.
//!
//! Time never enters this module: deadlines are judged against the
//! injectable [`crate::clock::Clock`] by the serving loop, and the
//! `cnb-analyze` taint pass denies any wall-clock read here even if
//! annotated.

use std::time::Duration;

use crate::prng::SplitMix64;

/// The pressure contract one batch is served under.
///
/// The default is the polite world every pre-existing caller lived in: no
/// admission budget, no deadline, no retries — [`ServeConfig::default`]
/// makes `serve_batch` behave exactly as before the robustness layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeConfig {
    /// Admission control: requests whose (cached or freshly optimized) plan
    /// prices over this budget under the server's cost model are shed with
    /// a typed [`crate::ServeError::Rejected`] before touching the pool.
    /// `None` admits everything.
    pub cost_budget: Option<f64>,
    /// Per-request deadline, measured from batch start on the injected
    /// clock. Requests still unevaluated when it passes come back as
    /// [`crate::ServeError::DeadlineExpired`] — never partial rows.
    /// `None` never expires.
    pub deadline: Option<Duration>,
    /// How many times a fault-hit request is retried before surfacing
    /// [`crate::ServeError::RetriesExhausted`]. With 0, the first fault
    /// surfaces as [`crate::ServeError::FaultInjected`].
    pub max_retries: usize,
}

impl ServeConfig {
    /// No budget, no deadline, no retries — the unpressured contract.
    pub fn unbounded() -> ServeConfig {
        ServeConfig::default()
    }

    /// Sets the admission cost budget (builder style).
    pub fn with_cost_budget(mut self, budget: f64) -> ServeConfig {
        self.cost_budget = Some(budget);
        self
    }

    /// Sets the per-request deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> ServeConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the fault-retry budget (builder style).
    pub fn with_max_retries(mut self, retries: usize) -> ServeConfig {
        self.max_retries = retries;
        self
    }
}

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The attempt fails before executing (transient; retryable).
    Fail,
    /// The attempt executes after an injected stall of this length —
    /// results are unchanged, only latency is (the open-loop harness uses
    /// this to build pressure).
    Delay(Duration),
}

/// A seeded fault-injection schedule.
///
/// [`FaultPlan::fault_for`] derives a fresh SplitMix64 stream from
/// `(seed, request, attempt)` on every call, so the verdict for an attempt
/// is a pure function of those three values: no interior mutability, no
/// cross-thread ordering sensitivity, byte-identical schedules on every
/// run. Failure and delay draws are independent; failure wins when both
/// fire.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    fail_rate: f64,
    delay_rate: f64,
    delay: Duration,
}

impl FaultPlan {
    /// A plan failing each attempt independently with probability
    /// `fail_rate` (clamped to `[0, 1]`), no delays.
    pub fn failures(seed: u64, fail_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_rate: fail_rate.clamp(0.0, 1.0),
            delay_rate: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// Adds injected stalls: each non-failed attempt is delayed by `delay`
    /// with probability `delay_rate` (builder style).
    pub fn with_delays(mut self, delay_rate: f64, delay: Duration) -> FaultPlan {
        self.delay_rate = delay_rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// The fault injected into `request`'s `attempt`, if any. Pure: same
    /// arguments, same verdict, on any thread, forever.
    pub fn fault_for(&self, request: usize, attempt: usize) -> Option<Fault> {
        let mut rng = SplitMix64::seed_from_u64(
            self.seed
                ^ (request as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        // Burn one draw: xor-derived seeds of neighboring requests are
        // correlated in their low bits; SplitMix64's first output already
        // decorrelates, the second is belt and braces.
        rng.next_u64();
        if rng.gen_bool(self.fail_rate) {
            return Some(Fault::Fail);
        }
        if rng.gen_bool(self.delay_rate) {
            return Some(Fault::Delay(self.delay));
        }
        None
    }

    /// Number of consecutive failing attempts injected into `request`
    /// starting at attempt 0 — how many retries a serve under this plan
    /// would consume before succeeding (test/report helper). Capped at 64
    /// so an always-failing plan terminates.
    pub fn leading_failures(&self, request: usize) -> usize {
        let mut n = 0;
        while n < 64 && matches!(self.fault_for(request, n), Some(Fault::Fail)) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unbounded() {
        let c = ServeConfig::default();
        assert_eq!(c, ServeConfig::unbounded());
        assert!(c.cost_budget.is_none());
        assert!(c.deadline.is_none());
        assert_eq!(c.max_retries, 0);
    }

    #[test]
    fn builders_compose() {
        let c = ServeConfig::unbounded()
            .with_cost_budget(100.0)
            .with_deadline(Duration::from_millis(5))
            .with_max_retries(2);
        assert_eq!(c.cost_budget, Some(100.0));
        assert_eq!(c.deadline, Some(Duration::from_millis(5)));
        assert_eq!(c.max_retries, 2);
    }

    #[test]
    fn fault_plan_is_a_pure_function() {
        let plan = FaultPlan::failures(0xFA17, 0.3).with_delays(0.2, Duration::from_micros(50));
        for request in 0..64 {
            for attempt in 0..4 {
                let a = plan.fault_for(request, attempt);
                let b = plan.fault_for(request, attempt);
                assert_eq!(a, b, "request {request} attempt {attempt}");
            }
        }
        // And the clone sees the identical schedule.
        let other = plan.clone();
        for request in 0..64 {
            assert_eq!(plan.fault_for(request, 0), other.fault_for(request, 0));
        }
    }

    #[test]
    fn rates_are_honored_at_the_extremes() {
        let never = FaultPlan::failures(1, 0.0);
        assert!((0..200).all(|r| never.fault_for(r, 0).is_none()));
        let always = FaultPlan::failures(1, 1.0);
        assert!((0..200).all(|r| always.fault_for(r, 0) == Some(Fault::Fail)));
        let delays = FaultPlan::failures(1, 0.0).with_delays(1.0, Duration::from_millis(1));
        assert!(
            (0..50).all(|r| delays.fault_for(r, 0) == Some(Fault::Delay(Duration::from_millis(1))))
        );
    }

    #[test]
    fn half_rate_is_roughly_half_and_varies_by_request_and_attempt() {
        let plan = FaultPlan::failures(7, 0.5);
        let fails = (0..1000)
            .filter(|&r| plan.fault_for(r, 0).is_some())
            .count();
        assert!((400..600).contains(&fails), "fails {fails}");
        // Attempts within one request draw independently: some request
        // fails attempt 0 but not attempt 1 (that's what makes a fault
        // *transient* and a retry worth having).
        assert!((0..1000).any(|r| {
            plan.fault_for(r, 0) == Some(Fault::Fail) && plan.fault_for(r, 1).is_none()
        }));
    }

    #[test]
    fn leading_failures_counts_the_retry_cost() {
        let always = FaultPlan::failures(3, 1.0);
        assert!(always.leading_failures(0) >= 8, "unbounded failure streak");
        let never = FaultPlan::failures(3, 0.0);
        assert_eq!(never.leading_failures(0), 0);
        let half = FaultPlan::failures(3, 0.5);
        let some_retry = (0..100).any(|r| half.leading_failures(r) == 1);
        assert!(some_retry, "a 50% plan should show single-retry requests");
    }
}
