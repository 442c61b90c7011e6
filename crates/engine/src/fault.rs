//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultInjector`] makes the engine fail on purpose at well-defined
//! trigger points ([`FaultSite`]s), so the chaos property tests can assert
//! that every layer above turns an engine failure into a clean typed error
//! or a successful fallback — never a panic, never a hang.
//!
//! Two trigger modes compose:
//!
//! * **seeded random**: site invocation `i` fails when
//!   `splitmix64(seed ⊕ salt(site) ⊕ i)` falls under a rate threshold. The
//!   schedule is a pure function of `(seed, rate)` — re-running with the
//!   same seed injects exactly the same faults, which is what lets a chaos
//!   test compare a faulty run against its fault-free twin;
//! * **targeted**: fail exactly the `n`-th invocation of one site, for
//!   pinpoint tests ("the second scan dies").
//!
//! The injector is always compiled and defaults to *off*: an engine without
//! one pays a single `Option` check per trigger point.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::EngineError;

/// The engine operations that can be made to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A fact-table scan (the workhorse of every plan).
    Scan,
    /// Answering a query from a matched materialized view.
    ViewMatch,
    /// Dictionary/member resolution while compiling predicates.
    DictLookup,
    /// One claimed morsel of a (possibly parallel) scan. Checked with the
    /// morsel index as the ordinal so the schedule does not depend on
    /// thread interleaving.
    Morsel,
}

impl FaultSite {
    pub const ALL: [FaultSite; 4] =
        [FaultSite::Scan, FaultSite::ViewMatch, FaultSite::DictLookup, FaultSite::Morsel];

    fn index(self) -> usize {
        match self {
            FaultSite::Scan => 0,
            FaultSite::ViewMatch => 1,
            FaultSite::DictLookup => 2,
            FaultSite::Morsel => 3,
        }
    }

    fn salt(self) -> u64 {
        // Arbitrary distinct constants so sites draw independent schedules
        // from one seed. Each belongs to its site for good: a retired
        // site's constant is not handed on, so a seed keeps its schedule.
        match self {
            FaultSite::Scan => 0x5CA4_0001,
            FaultSite::ViewMatch => 0x71E3_0003,
            FaultSite::DictLookup => 0xD1C7_0004,
            FaultSite::Morsel => 0x3A8F_0005,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Scan => write!(f, "scan"),
            FaultSite::ViewMatch => write!(f, "view match"),
            FaultSite::DictLookup => write!(f, "dictionary lookup"),
            FaultSite::Morsel => write!(f, "morsel"),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic schedule of injected engine failures.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    /// `rate` mapped onto the u64 range: invocation fails when its hash is
    /// below this threshold.
    threshold: u64,
    /// Targeted faults: `(site, ordinal)` pairs that always fail.
    targeted: Vec<(FaultSite, u64)>,
    /// Per-site invocation counters (ordinals are 0-based).
    counters: [AtomicU64; 4],
    trips: AtomicU64,
}

impl FaultInjector {
    /// A seeded random schedule failing roughly `rate` (clamped to `0..=1`)
    /// of all trigger-point invocations.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        // `rate * 2^64`, saturating so rate = 1.0 fails everything.
        let threshold = if rate >= 1.0 { u64::MAX } else { (rate * (u64::MAX as f64)) as u64 };
        FaultInjector {
            seed,
            threshold,
            targeted: Vec::new(),
            counters: Default::default(),
            trips: AtomicU64::new(0),
        }
    }

    /// An injector that fails only explicitly targeted invocations.
    pub fn targeted() -> Self {
        FaultInjector::with_rate(0, 0.0)
    }

    /// Additionally fails the `ordinal`-th (0-based) invocation of `site`.
    pub fn fail_nth(mut self, site: FaultSite, ordinal: u64) -> Self {
        self.targeted.push((site, ordinal));
        self
    }

    /// The trigger point: called by the engine each time `site` is about to
    /// run. Deterministically decides whether this invocation fails.
    pub fn check(&self, site: FaultSite) -> Result<(), EngineError> {
        let ordinal = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        self.decide(site, ordinal)
    }

    /// Trigger point with an explicitly supplied ordinal, for sites whose
    /// invocations have a natural index of their own. The parallel scan
    /// driver numbers [`FaultSite::Morsel`] checks by morsel index, so the
    /// fault schedule is a function of the data layout — identical however
    /// many threads interleave their claims. The shared invocation counter
    /// still advances (for [`Self::invocations`]) but does not pick the
    /// ordinal.
    pub fn check_at(&self, site: FaultSite, ordinal: u64) -> Result<(), EngineError> {
        self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        self.decide(site, ordinal)
    }

    fn decide(&self, site: FaultSite, ordinal: u64) -> Result<(), EngineError> {
        let scheduled = splitmix64(self.seed ^ site.salt() ^ ordinal) < self.threshold;
        let targeted = self.targeted.iter().any(|&(s, n)| s == site && n == ordinal);
        if scheduled || targeted {
            self.trips.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::FaultInjected { site, ordinal });
        }
        Ok(())
    }

    /// How many faults have fired so far.
    pub fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// How many times `site` has been reached (failed or not).
    pub fn invocations(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let f = FaultInjector::with_rate(42, 0.0);
        for site in FaultSite::ALL {
            for _ in 0..100 {
                f.check(site).unwrap();
            }
        }
        assert_eq!(f.trip_count(), 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let f = FaultInjector::with_rate(42, 1.0);
        assert!(matches!(
            f.check(FaultSite::Scan),
            Err(EngineError::FaultInjected { site: FaultSite::Scan, ordinal: 0 })
        ));
        assert_eq!(f.trip_count(), 1);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let f = FaultInjector::with_rate(seed, 0.3);
            (0..64).map(|_| f.check(FaultSite::Scan).is_err()).collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8), "different seeds should differ");
        let fired = schedule(7).iter().filter(|&&b| b).count();
        assert!(fired > 5 && fired < 40, "rate 0.3 fired {fired}/64 times");
    }

    #[test]
    fn explicit_ordinals_ignore_arrival_order() {
        let f = FaultInjector::targeted().fail_nth(FaultSite::Morsel, 2);
        // Morsels checked out of order (as parallel claims may complete):
        // only the morsel with the targeted index fails, however late it
        // arrives and whatever was checked before it.
        f.check_at(FaultSite::Morsel, 5).unwrap();
        f.check_at(FaultSite::Morsel, 0).unwrap();
        assert!(f.check_at(FaultSite::Morsel, 2).is_err());
        assert_eq!(f.invocations(FaultSite::Morsel), 3);
        assert_eq!(f.trip_count(), 1);
    }

    #[test]
    fn targeted_fault_fires_exactly_once() {
        let f = FaultInjector::targeted().fail_nth(FaultSite::DictLookup, 1);
        f.check(FaultSite::DictLookup).unwrap();
        assert!(f.check(FaultSite::DictLookup).is_err());
        f.check(FaultSite::DictLookup).unwrap();
        f.check(FaultSite::Scan).unwrap();
        assert_eq!(f.invocations(FaultSite::DictLookup), 3);
    }
}
