//! Deterministic, seed-reproducible fault injection for the EPIM stack.
//!
//! Production failures — a worker thread panicking mid-batch, a lock
//! holder dying, a TCP peer vanishing between two bytes of a frame —
//! are rare enough that untested recovery code is broken recovery code.
//! This crate turns those events into *inputs*: a [`FaultPlan`] names a
//! set of injection points and, per point, a [`FaultRule`] saying when
//! to fire (Nth hit, every K hits, with probability p, at most M
//! times). The scheduler, the network plan, and the wire server consult
//! the plan at fixed hooks; a chaos test installs a plan, drives
//! traffic, and asserts the stack degrades to *typed errors and
//! bit-identical answers* — never hangs, never wrong bits.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(seed, point, hit_index)`:
//! each point keeps an atomic hit counter, and probabilistic rules hash
//! the triple with splitmix64 instead of consuming a shared RNG stream.
//! Two runs with the same seed and the same per-point hit counts make
//! identical decisions regardless of thread interleaving.
//!
//! # Cost when disabled
//!
//! Exactly the `epim-obs` tracing discipline: the
//! hot-path guard [`active`] is one relaxed atomic load (lazily
//! initialised from `EPIM_FAULTS` on first use). Hooks in the scheduler
//! and server are `if faults::active() { … }` — dead weight of a single
//! predictable branch when chaos is off.
//!
//! # Activation
//!
//! Programmatic: [`install`] / [`clear`]. Environmental:
//! `EPIM_FAULTS="worker_panic:nth=3,max=1;stage_delay:ms=5,every=2"`
//! with `EPIM_FAULT_SEED=42`. Clause grammar per point:
//! `name[:key=value,…]` with keys `nth`, `every`, `prob`, `ms`, `max`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A named place in the stack where a fault can be injected.
///
/// Hit counters are per-point: "the 3rd `WorkerPanic` hit" means the
/// third time *any* thread reaches a worker-panic hook, in arrival
/// order of the atomic counter increments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Scheduler worker thread panics after finishing its Nth batch.
    WorkerPanic,
    /// Panic while holding the per-tenant stats lock (poisons it).
    LockPanic,
    /// Sleep injected at the top of a network-plan stage.
    StageDelay,
    /// Server resets the TCP connection instead of writing a response.
    ConnReset,
    /// Server writes a torn (truncated) frame and closes the socket.
    TornFrame,
    /// Server accept loop stalls before accepting a connection.
    AcceptStall,
}

/// Number of distinct injection points.
pub const POINT_COUNT: usize = 6;

/// All injection points, in index order.
pub const ALL_POINTS: [FaultPoint; POINT_COUNT] = [
    FaultPoint::WorkerPanic,
    FaultPoint::LockPanic,
    FaultPoint::StageDelay,
    FaultPoint::ConnReset,
    FaultPoint::TornFrame,
    FaultPoint::AcceptStall,
];

impl FaultPoint {
    /// Stable index into per-point tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultPoint::WorkerPanic => 0,
            FaultPoint::LockPanic => 1,
            FaultPoint::StageDelay => 2,
            FaultPoint::ConnReset => 3,
            FaultPoint::TornFrame => 4,
            FaultPoint::AcceptStall => 5,
        }
    }

    /// Spec-grammar name (`worker_panic`, `conn_reset`, …).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::LockPanic => "lock_panic",
            FaultPoint::StageDelay => "stage_delay",
            FaultPoint::ConnReset => "conn_reset",
            FaultPoint::TornFrame => "torn_frame",
            FaultPoint::AcceptStall => "accept_stall",
        }
    }

    /// Inverse of [`FaultPoint::name`].
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        ALL_POINTS.into_iter().find(|p| p.name() == name)
    }
}

/// When a given [`FaultPoint`] fires.
///
/// A rule fires on hit `h` (1-based) iff all of:
/// - `h >= nth` and, for `every > 0`, `(h - nth) % every == 0`
///   (`every == 0` means "exactly once, at hit `nth`");
/// - fewer than `max_fires` fires so far (`0` = unlimited);
/// - a splitmix64 hash of `(seed, point, h)` lands under `prob`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// First eligible hit (1-based). Default 1.
    pub nth: u64,
    /// Fire every `every` hits from `nth` on; `0` = only at `nth`.
    pub every: u64,
    /// Probability an eligible hit actually fires. Default 1.0.
    pub prob: f64,
    /// Sleep duration for delay-style points, in milliseconds.
    pub delay_ms: u64,
    /// Cap on total fires; `0` = unlimited.
    pub max_fires: u64,
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule {
            nth: 1,
            every: 1,
            prob: 1.0,
            delay_ms: 1,
            max_fires: 0,
        }
    }
}

impl FaultRule {
    /// A rule firing exactly once, on the `nth` hit.
    pub fn once_at(nth: u64) -> FaultRule {
        FaultRule {
            nth,
            every: 0,
            max_fires: 1,
            ..FaultRule::default()
        }
    }

    /// A rule that never fires (hit threshold beyond any real run).
    ///
    /// An "armed but silent" plan: it is installed and every hook pays
    /// the full bookkeeping cost, but behaviour is unchanged.
    pub fn never() -> FaultRule {
        FaultRule {
            nth: u64::MAX,
            ..FaultRule::default()
        }
    }
}

/// A seeded set of per-point rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for probabilistic decisions.
    pub seed: u64,
    rules: [Option<FaultRule>; POINT_COUNT],
}

impl FaultPlan {
    /// An empty plan (no point ever fires) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: [None; POINT_COUNT],
        }
    }

    /// Sets the rule for one point, replacing any previous rule.
    pub fn with_rule(mut self, point: FaultPoint, rule: FaultRule) -> FaultPlan {
        self.rules[point.index()] = Some(rule);
        self
    }

    /// The rule for a point, if any.
    pub fn rule(&self, point: FaultPoint) -> Option<FaultRule> {
        self.rules[point.index()]
    }

    /// Parses the `EPIM_FAULTS` spec grammar.
    ///
    /// `;`-separated clauses, each `name` or `name:key=value,…` with
    /// keys `nth`, `every`, `prob`, `ms` (delay milliseconds) and `max`
    /// (fire cap). Unknown names or keys are hard errors — a chaos run
    /// with a typo'd spec must not silently test nothing.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, args) = match clause.split_once(':') {
                Some((n, a)) => (n.trim(), Some(a)),
                None => (clause, None),
            };
            let point = FaultPoint::from_name(name)
                .ok_or_else(|| format!("unknown fault point `{name}`"))?;
            let mut rule = FaultRule::default();
            if let Some(args) = args {
                for kv in args.split(',') {
                    let kv = kv.trim();
                    if kv.is_empty() {
                        continue;
                    }
                    let (key, value) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("expected key=value in `{kv}`"))?;
                    let (key, value) = (key.trim(), value.trim());
                    let parse_u64 = || {
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("`{key}` wants an integer, got `{value}`"))
                    };
                    match key {
                        "nth" => rule.nth = parse_u64()?,
                        "every" => rule.every = parse_u64()?,
                        "ms" => rule.delay_ms = parse_u64()?,
                        "max" => rule.max_fires = parse_u64()?,
                        "prob" => {
                            rule.prob = value
                                .parse::<f64>()
                                .map_err(|_| format!("`prob` wants a float, got `{value}`"))?;
                            if !(0.0..=1.0).contains(&rule.prob) {
                                return Err(format!("`prob` must be in [0,1], got {}", rule.prob));
                            }
                        }
                        other => return Err(format!("unknown fault key `{other}`")),
                    }
                }
            }
            if rule.nth == 0 {
                return Err("`nth` is 1-based; 0 is invalid".to_string());
            }
            plan.rules[point.index()] = Some(rule);
        }
        Ok(plan)
    }
}

/// An installed plan plus its per-point hit and fire counters.
struct Installed {
    plan: FaultPlan,
    hits: [AtomicU64; POINT_COUNT],
    fired: [AtomicU64; POINT_COUNT],
}

impl Installed {
    fn new(plan: FaultPlan) -> Installed {
        Installed {
            plan,
            hits: Default::default(),
            fired: Default::default(),
        }
    }

    /// Records one hit at `point`; returns the firing rule if it fires.
    fn check(&self, point: FaultPoint) -> Option<FaultRule> {
        let idx = point.index();
        let rule = self.plan.rules[idx]?;
        let hit = self.hits[idx].fetch_add(1, Ordering::Relaxed) + 1;
        if hit < rule.nth {
            return None;
        }
        if rule.every == 0 {
            if hit != rule.nth {
                return None;
            }
        } else if !(hit - rule.nth).is_multiple_of(rule.every) {
            return None;
        }
        if rule.prob < 1.0 && !roll(self.plan.seed, idx, hit, rule.prob) {
            return None;
        }
        if rule.max_fires > 0 {
            // Claim one of the bounded fire slots atomically, so
            // concurrent eligible hits can never overshoot the cap.
            let claimed = self.fired[idx].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                (f < rule.max_fires).then_some(f + 1)
            });
            if claimed.is_err() {
                return None;
            }
        } else {
            self.fired[idx].fetch_add(1, Ordering::Relaxed);
        }
        Some(rule)
    }
}

/// Deterministic per-hit coin flip: hash `(seed, point, hit)` into
/// [0, 1) and compare against `prob`. No shared RNG stream, so the
/// outcome for a given hit index is independent of thread interleaving.
fn roll(seed: u64, idx: usize, hit: u64, prob: f64) -> bool {
    let h = splitmix64(seed ^ splitmix64(((idx as u64) << 56) ^ hit));
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < prob
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 0 = uninitialised, 1 = inactive, 2 = a plan is installed.
static STATE: AtomicU8 = AtomicU8::new(0);
static PLAN: Mutex<Option<Arc<Installed>>> = Mutex::new(None);

/// Whether any fault plan is installed. The hot-path guard: one relaxed
/// atomic load once initialised.
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let plan = match std::env::var("EPIM_FAULTS") {
        Ok(spec) if !spec.is_empty() && spec != "0" => {
            let seed = std::env::var("EPIM_FAULT_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            match FaultPlan::parse(&spec, seed) {
                Ok(plan) => Some(plan),
                // A typo'd chaos spec must not silently test nothing.
                Err(err) => panic!("invalid EPIM_FAULTS spec: {err}"),
            }
        }
        _ => None,
    };
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    // Another thread may have initialised or installed concurrently;
    // first writer wins, everyone re-reads the settled state.
    if STATE.load(Ordering::Relaxed) == 0 {
        match plan {
            Some(plan) => {
                *slot = Some(Arc::new(Installed::new(plan)));
                STATE.store(2, Ordering::Relaxed);
            }
            None => STATE.store(1, Ordering::Relaxed),
        }
    }
    drop(slot);
    STATE.load(Ordering::Relaxed) == 2
}

/// Installs a plan, resetting all hit and fire counters.
pub fn install(plan: FaultPlan) {
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(Arc::new(Installed::new(plan)));
    STATE.store(2, Ordering::Relaxed);
}

/// Removes any installed plan; [`active`] returns `false` afterwards
/// (the environment is *not* re-consulted).
pub fn clear() {
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
    STATE.store(1, Ordering::Relaxed);
}

fn installed() -> Option<Arc<Installed>> {
    if !active() {
        return None;
    }
    PLAN.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(Arc::clone)
}

/// Records a hit at `point` and reports whether its rule fires.
/// Always `false` when no plan is installed.
#[inline]
pub fn fires(point: FaultPoint) -> bool {
    if !active() {
        return false;
    }
    fires_slow(point)
}

#[cold]
fn fires_slow(point: FaultPoint) -> bool {
    installed().is_some_and(|inst| inst.check(point).is_some())
}

/// Records a hit at a delay-style `point`; returns the configured sleep
/// duration when the rule fires.
#[inline]
pub fn fire_delay(point: FaultPoint) -> Option<Duration> {
    if !active() {
        return None;
    }
    fire_delay_slow(point)
}

#[cold]
fn fire_delay_slow(point: FaultPoint) -> Option<Duration> {
    installed()?
        .check(point)
        .map(|rule| Duration::from_millis(rule.delay_ms))
}

/// How many times `point` has fired under the current plan (0 when no
/// plan is installed). Test/diagnostic introspection.
pub fn fire_count(point: FaultPoint) -> u64 {
    installed().map_or(0, |inst| inst.fired[point.index()].load(Ordering::Relaxed))
}

/// How many times `point` has been *hit* under the current plan.
pub fn hit_count(point: FaultPoint) -> u64 {
    installed().map_or(0, |inst| inst.hits[point.index()].load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global fault state is process-wide; serialise the tests touching it.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parse_defaults_and_keys() {
        let plan = FaultPlan::parse("worker_panic", 7).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.rule(FaultPoint::WorkerPanic),
            Some(FaultRule::default())
        );
        assert_eq!(plan.rule(FaultPoint::ConnReset), None);

        let plan = FaultPlan::parse(
            "stage_delay:nth=3,every=2,ms=5,max=4,prob=0.5; conn_reset:nth=9",
            1,
        )
        .unwrap();
        let rule = plan.rule(FaultPoint::StageDelay).unwrap();
        assert_eq!(
            (rule.nth, rule.every, rule.delay_ms, rule.max_fires),
            (3, 2, 5, 4)
        );
        assert_eq!(rule.prob, 0.5);
        assert_eq!(plan.rule(FaultPoint::ConnReset).unwrap().nth, 9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("warp_core_breach", 0).is_err());
        assert!(FaultPlan::parse("worker_panic:wat=1", 0).is_err());
        assert!(FaultPlan::parse("worker_panic:nth=soon", 0).is_err());
        assert!(FaultPlan::parse("worker_panic:prob=1.5", 0).is_err());
        assert!(FaultPlan::parse("worker_panic:nth=0", 0).is_err());
        assert!(FaultPlan::parse("worker_panic:nth", 0).is_err());
    }

    #[test]
    fn nth_every_max_semantics() {
        let _g = gate();
        install(FaultPlan::new(0).with_rule(
            FaultPoint::WorkerPanic,
            FaultRule {
                nth: 3,
                every: 2,
                max_fires: 2,
                ..FaultRule::default()
            },
        ));
        // Hits 1..=8: eligible at 3, 5, 7 — capped at two fires.
        let fired: Vec<bool> = (1..=8).map(|_| fires(FaultPoint::WorkerPanic)).collect();
        assert_eq!(
            fired,
            [false, false, true, false, true, false, false, false]
        );
        assert_eq!(fire_count(FaultPoint::WorkerPanic), 2);
        assert_eq!(hit_count(FaultPoint::WorkerPanic), 8);
        clear();
    }

    #[test]
    fn once_at_fires_exactly_once() {
        let _g = gate();
        install(FaultPlan::new(0).with_rule(FaultPoint::LockPanic, FaultRule::once_at(2)));
        let fired: Vec<bool> = (1..=6).map(|_| fires(FaultPoint::LockPanic)).collect();
        assert_eq!(fired, [false, true, false, false, false, false]);
        clear();
    }

    #[test]
    fn never_rule_is_armed_but_silent() {
        let _g = gate();
        let mut plan = FaultPlan::new(0);
        for p in ALL_POINTS {
            plan = plan.with_rule(p, FaultRule::never());
        }
        install(plan);
        assert!(active());
        for _ in 0..100 {
            assert!(!fires(FaultPoint::WorkerPanic));
            assert!(fire_delay(FaultPoint::StageDelay).is_none());
        }
        assert_eq!(hit_count(FaultPoint::WorkerPanic), 100);
        assert_eq!(fire_count(FaultPoint::WorkerPanic), 0);
        clear();
        assert!(!active());
    }

    #[test]
    fn cleared_state_never_fires_or_counts() {
        let _g = gate();
        clear();
        assert!(!fires(FaultPoint::ConnReset));
        assert!(fire_delay(FaultPoint::StageDelay).is_none());
        assert_eq!(hit_count(FaultPoint::ConnReset), 0);
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let _g = gate();
        let plan = |seed| {
            FaultPlan::new(seed).with_rule(
                FaultPoint::ConnReset,
                FaultRule {
                    prob: 0.5,
                    ..FaultRule::default()
                },
            )
        };
        let run = |seed| {
            install(plan(seed));
            let v: Vec<bool> = (0..64).map(|_| fires(FaultPoint::ConnReset)).collect();
            clear();
            v
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same fire pattern");
        let c = run(43);
        assert_ne!(a, c, "different seeds must differ somewhere in 64 flips");
        let hits = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 flips, got {hits}");
    }

    #[test]
    fn delay_rule_reports_duration() {
        let _g = gate();
        install(FaultPlan::new(0).with_rule(
            FaultPoint::StageDelay,
            FaultRule {
                delay_ms: 7,
                every: 2,
                ..FaultRule::default()
            },
        ));
        assert_eq!(
            fire_delay(FaultPoint::StageDelay),
            Some(Duration::from_millis(7))
        );
        assert_eq!(fire_delay(FaultPoint::StageDelay), None);
        assert_eq!(
            fire_delay(FaultPoint::StageDelay),
            Some(Duration::from_millis(7))
        );
        clear();
    }

    #[test]
    fn concurrent_hits_respect_the_fire_cap() {
        let _g = gate();
        install(FaultPlan::new(0).with_rule(
            FaultPoint::TornFrame,
            FaultRule {
                max_fires: 3,
                ..FaultRule::default()
            },
        ));
        let total: u64 = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| (0..256).filter(|_| fires(FaultPoint::TornFrame)).count() as u64)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(total, 3, "cap must hold under concurrency");
        assert_eq!(hit_count(FaultPoint::TornFrame), 4 * 256);
        clear();
    }
}
