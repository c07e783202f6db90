//! Deterministic, seeded fault injection for the scheduling engine.
//!
//! A [`FaultPlan`] names a set of probe points inside the engine and a
//! seeded firing pattern; the engine consults it at each probe site and
//! perturbs itself when the plan says to. Every probe is designed so
//! that a run under injection either produces a schedule byte-identical
//! to the clean run (the perturbation hit a redundancy the engine must
//! tolerate: cache flushes, idempotent re-prunes) or a structured
//! [`SchedError`](crate::SchedError) (the perturbation destroyed
//! information and a containment audit caught it). The fault-injection
//! property test asserts exactly that dichotomy — never a panic
//! escaping [`schedule`](crate::schedule), never a silently divergent
//! schedule.
//!
//! Firing is a pure function of `(seed, probe, occurrence index)`, so a
//! plan replays identically across runs, machines, and thread counts.

use std::fmt;

use spec_support::rng::{RngCore, SplitMix64};

/// A named probe point inside the engine where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Probe {
    /// Force a wholesale BDD operation-cache eviction (ite + cofactor)
    /// at a state boundary — an eviction storm. Caches are pure memos,
    /// so the schedule must be byte-identical.
    BddEvict,
    /// Re-run the mark-and-sweep prune immediately after the normal gc
    /// pass — a prune storm — and audit that the whole context is
    /// unchanged (pruning must be idempotent).
    GcStorm,
    /// Artificial fuel exhaustion: abort the run with
    /// [`SchedError::IterationLimit`](crate::SchedError::IterationLimit)
    /// at a state boundary.
    Fuel,
    /// Artificial deadline exhaustion: abort the run with
    /// [`SchedError::Deadline`](crate::SchedError::Deadline) at a state
    /// boundary.
    Deadline,
    /// Drop one incremental-sweep dirty-marking event. From then on
    /// every sweep fixpoint is followed by a reference-sweep audit pass
    /// (the regenerate-everything oracle); if the dropped event ever
    /// mattered, the audit detects candidates the incremental sweep
    /// missed and the run aborts with a structured
    /// [`SchedError::Internal`](crate::SchedError::Internal).
    DropSweepEvent,
    /// Panic at a state boundary, exercising the `catch_unwind`
    /// isolation in [`schedule`](crate::schedule).
    Panic,
}

impl Probe {
    /// All probe points, in declaration order.
    pub const ALL: [Probe; 6] = [
        Probe::BddEvict,
        Probe::GcStorm,
        Probe::Fuel,
        Probe::Deadline,
        Probe::DropSweepEvent,
        Probe::Panic,
    ];

    /// Stable short name, used by `probe --inject` specs.
    pub fn name(&self) -> &'static str {
        match self {
            Probe::BddEvict => "bdd-evict",
            Probe::GcStorm => "gc-storm",
            Probe::Fuel => "fuel",
            Probe::Deadline => "deadline",
            Probe::DropSweepEvent => "drop-sweep",
            Probe::Panic => "panic",
        }
    }

    fn parse(s: &str) -> Option<Probe> {
        Probe::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// Distinct per-probe salt so the firing streams of different
    /// probes under one seed are independent.
    fn salt(&self) -> u64 {
        match self {
            Probe::BddEvict => 0x9e37_79b9_0000_0001,
            Probe::GcStorm => 0x9e37_79b9_0000_0002,
            Probe::Fuel => 0x9e37_79b9_0000_0003,
            Probe::Deadline => 0x9e37_79b9_0000_0004,
            Probe::DropSweepEvent => 0x9e37_79b9_0000_0005,
            Probe::Panic => 0x9e37_79b9_0000_0006,
        }
    }

    fn index(&self) -> usize {
        match self {
            Probe::BddEvict => 0,
            Probe::GcStorm => 1,
            Probe::Fuel => 2,
            Probe::Deadline => 3,
            Probe::DropSweepEvent => 4,
            Probe::Panic => 5,
        }
    }
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault-injection plan: which probes are armed, and a
/// seeded pattern deciding which occurrences of each probe fire.
///
/// An armed probe's `n`-th evaluation fires iff
/// `SplitMix64(seed ^ salt(probe) ^ n) % period == 0` — roughly one in
/// `period` occurrences, in a pattern fully determined by `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the firing pattern.
    pub seed: u64,
    /// Average firing period: each armed probe occurrence fires with
    /// probability `1/period`. `1` fires every occurrence; clamped to
    /// at least 1.
    pub period: u64,
    /// The armed probe points.
    pub probes: Vec<Probe>,
}

impl FaultPlan {
    /// A plan arming every probe except [`Probe::Panic`] (panic storms
    /// are noisy under test harnesses; arm it explicitly when wanted)
    /// with the default period of 3.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            period: 3,
            probes: vec![
                Probe::BddEvict,
                Probe::GcStorm,
                Probe::Fuel,
                Probe::Deadline,
                Probe::DropSweepEvent,
            ],
        }
    }

    /// Replaces the firing period (clamped to ≥ 1).
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period.max(1);
        self
    }

    /// Replaces the armed probe set.
    pub fn with_probes(mut self, probes: Vec<Probe>) -> Self {
        self.probes = probes;
        self
    }

    /// Parses a `probe --inject` spec: `seed[:period[:probes]]`, where
    /// `probes` is a comma-separated list of probe names or `all`
    /// (which includes `panic`). Examples: `42`, `42:5`,
    /// `42:1:drop-sweep,gc-storm`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.splitn(3, ':');
        let seed: u64 = parts
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| format!("bad fault seed in {spec:?}"))?;
        let mut plan = FaultPlan::new(seed);
        if let Some(p) = parts.next() {
            plan.period = p
                .parse::<u64>()
                .map_err(|_| format!("bad fault period in {spec:?}"))?
                .max(1);
        }
        if let Some(names) = parts.next() {
            if names == "all" {
                plan.probes = Probe::ALL.to_vec();
            } else {
                let mut probes = Vec::new();
                for n in names.split(',').filter(|n| !n.is_empty()) {
                    probes.push(Probe::parse(n).ok_or_else(|| {
                        format!(
                            "unknown probe {n:?} (known: {})",
                            Probe::ALL.map(|p| p.name()).join(", ")
                        )
                    })?);
                }
                if probes.is_empty() {
                    return Err(format!("empty probe list in {spec:?}"));
                }
                plan.probes = probes;
            }
        }
        Ok(plan)
    }

    /// Whether the `n`-th occurrence of `probe` fires under this plan.
    /// Pure in `(self, probe, n)`.
    pub fn fires(&self, probe: Probe, n: u64) -> bool {
        if !self.probes.contains(&probe) {
            return false;
        }
        SplitMix64::new(self.seed ^ probe.salt() ^ n)
            .next_u64()
            .is_multiple_of(self.period)
    }
}

/// Counters of injected faults and the containment machinery they
/// exercised, carried in [`SchedStats`](crate::SchedStats) and recorded
/// into bench JSON. All zero on a clean run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Forced BDD operation-cache evictions.
    pub bdd_evicts: u64,
    /// Forced gc re-prune storms (each audited for idempotence).
    pub gc_storms: u64,
    /// Artificial fuel exhaustions injected.
    pub fuel_exhaustions: u64,
    /// Artificial deadline exhaustions injected.
    pub deadline_exhaustions: u64,
    /// Incremental-sweep dirty-marking events dropped.
    pub dropped_events: u64,
    /// Reference-sweep audit passes run because events were dropped.
    pub audits: u64,
    /// Panics injected at state boundaries.
    pub panics: u64,
}

impl FaultStats {
    /// Total faults injected (audit passes are containment work, not
    /// faults, and are excluded).
    pub fn total(&self) -> u64 {
        self.bdd_evicts
            + self.gc_storms
            + self.fuel_exhaustions
            + self.deadline_exhaustions
            + self.dropped_events
            + self.panics
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bdd_evicts={} gc_storms={} fuel={} deadline={} dropped_events={} audits={} panics={}",
            self.bdd_evicts,
            self.gc_storms,
            self.fuel_exhaustions,
            self.deadline_exhaustions,
            self.dropped_events,
            self.audits,
            self.panics
        )
    }
}

/// Runtime state the engine keeps for an armed [`FaultPlan`]:
/// per-probe occurrence counters, injection statistics, and the sticky
/// dropped-event flag that arms the reference-sweep audit.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    counts: [u64; 6],
    pub(crate) stats: FaultStats,
    /// Set when any sweep event has been dropped; from then on every
    /// sweep fixpoint is followed by a reference audit pass. Sticky for
    /// the rest of the run: a dropped mark can surface states later
    /// (e.g. a gc-time mark consumed by the successor state's first
    /// sweep), so the audit must not disarm on one clean pass.
    pub(crate) dropped_any: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            counts: [0; 6],
            stats: FaultStats::default(),
            dropped_any: false,
        }
    }

    /// Evaluates one occurrence of `probe`: bumps its occurrence
    /// counter and reports (and counts) whether the plan fires it.
    pub(crate) fn fire(&mut self, probe: Probe) -> bool {
        let i = probe.index();
        let n = self.counts[i];
        self.counts[i] += 1;
        let fired = self.plan.fires(probe, n);
        if fired {
            match probe {
                Probe::BddEvict => self.stats.bdd_evicts += 1,
                Probe::GcStorm => self.stats.gc_storms += 1,
                Probe::Fuel => self.stats.fuel_exhaustions += 1,
                Probe::Deadline => self.stats.deadline_exhaustions += 1,
                Probe::DropSweepEvent => {
                    self.stats.dropped_events += 1;
                    self.dropped_any = true;
                }
                Probe::Panic => self.stats.panics += 1,
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_is_deterministic() {
        let plan = FaultPlan::new(42);
        let a: Vec<bool> = (0..64).map(|n| plan.fires(Probe::GcStorm, n)).collect();
        let b: Vec<bool> = (0..64).map(|n| plan.fires(Probe::GcStorm, n)).collect();
        assert_eq!(a, b);
        // Distinct probes fire on distinct patterns under one seed.
        let c: Vec<bool> = (0..64).map(|n| plan.fires(Probe::Fuel, n)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn period_one_always_fires() {
        let plan = FaultPlan::new(7).with_period(1);
        assert!((0..32).all(|n| plan.fires(Probe::DropSweepEvent, n)));
    }

    #[test]
    fn unarmed_probe_never_fires() {
        let plan = FaultPlan::new(7)
            .with_probes(vec![Probe::Fuel])
            .with_period(1);
        assert!((0..32).all(|n| !plan.fires(Probe::Panic, n)));
        assert!((0..32).all(|n| plan.fires(Probe::Fuel, n)));
    }

    #[test]
    fn parse_specs() {
        assert_eq!(FaultPlan::parse("42").unwrap(), FaultPlan::new(42));
        assert_eq!(
            FaultPlan::parse("42:5").unwrap(),
            FaultPlan::new(42).with_period(5)
        );
        let p = FaultPlan::parse("1:2:drop-sweep,gc-storm").unwrap();
        assert_eq!(p.probes, vec![Probe::DropSweepEvent, Probe::GcStorm]);
        assert_eq!(p.period, 2);
        assert_eq!(FaultPlan::parse("9:1:all").unwrap().probes.len(), 6);
        assert!(FaultPlan::parse("x").is_err());
        assert!(FaultPlan::parse("1:2:nope").is_err());
        assert!(FaultPlan::parse("1:y").is_err());
    }

    #[test]
    fn fault_state_counts() {
        let mut fs = FaultState::new(FaultPlan::new(3).with_period(1));
        assert!(fs.fire(Probe::DropSweepEvent));
        assert!(fs.fire(Probe::GcStorm));
        assert!(!fs.fire(Probe::Panic)); // not armed by default
        assert!(fs.dropped_any);
        assert_eq!(fs.stats.dropped_events, 1);
        assert_eq!(fs.stats.gc_storms, 1);
        assert_eq!(fs.stats.panics, 0);
        assert_eq!(fs.stats.total(), 2);
    }
}
