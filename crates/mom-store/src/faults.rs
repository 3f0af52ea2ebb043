//! A seeded, deterministic fault-injection plane.
//!
//! Chaos testing a service whose whole value proposition is byte-identical
//! reproducibility needs faults that are themselves reproducible: the same
//! seed and the same sequence of draws must inject the same failures.  A
//! [`FaultPlan`] names a seed plus, per [`FaultSite`], a probability and an
//! optional budget (most injections allowed).  Each site keeps its own
//! draw counter; draw `n` at site `s` hashes `(seed, s, n)` through a
//! splitmix64 finaliser, so whether one site fires never perturbs another
//! site's sequence, and a retried operation sees a *fresh* draw (retrying
//! past an injected fault is the whole point).
//!
//! The plane is process-global and **off by default**: with no plan
//! installed, [`should_inject`] is a single relaxed atomic load — the hot
//! store path pays nothing.  Every injection is counted in
//! `momsim_faults_injected_total{site}` so a chaos run can prove over
//! `/metrics` that faults actually happened.
//!
//! The injection sites live at the seams the rest of the workspace already
//! has: the store's disk read and the log's append / commit steps (this
//! crate; the log also writes the daemon's job journal), worker
//! compute ([`maybe_panic`] / [`maybe_delay`] in `mom-serve`'s pool), and
//! the daemon's HTTP accept/read path.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A disk-tier read degrades to a miss.
    StoreRead,
    /// A log append — a store segment's or the job journal's — fails
    /// mid-write (part of the frame lands; the log truncates it away).
    StoreWrite,
    /// The `sync_data` committing a log's appended frames fails.
    StoreSync,
    /// A worker's unit compute panics.
    WorkerPanic,
    /// A worker's unit compute stalls for the plan's `delay-ms`.
    WorkerDelay,
    /// The daemon drops an accepted connection before reading it.
    HttpAccept,
    /// The daemon drops a connection mid-request-read.
    HttpRead,
}

/// How many distinct [`FaultSite`]s exist.
pub const SITE_COUNT: usize = 7;

impl FaultSite {
    /// Every site, in a fixed order (the per-site state arrays index by
    /// this order).
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::StoreSync,
        FaultSite::WorkerPanic,
        FaultSite::WorkerDelay,
        FaultSite::HttpAccept,
        FaultSite::HttpRead,
    ];

    /// The site's spec/metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StoreRead => "store-read",
            FaultSite::StoreWrite => "store-write",
            FaultSite::StoreSync => "store-sync",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::WorkerDelay => "worker-delay",
            FaultSite::HttpAccept => "http-accept",
            FaultSite::HttpRead => "http-read",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::StoreRead => 0,
            FaultSite::StoreWrite => 1,
            FaultSite::StoreSync => 2,
            FaultSite::WorkerPanic => 3,
            FaultSite::WorkerDelay => 4,
            FaultSite::HttpAccept => 5,
            FaultSite::HttpRead => 6,
        }
    }
}

impl std::str::FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultSite, String> {
        FaultSite::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site '{s}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// One site's injection rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteRule {
    /// Probability in `[0, 1]` that a draw at this site injects.
    pub probability: f64,
    /// Most injections allowed at this site (`None` = unbounded).  A
    /// budget lets a chaos run front-load failures and then dry up, so
    /// later phases (report replay, drain) see a healthy system.
    pub budget: Option<u64>,
}

/// A complete fault plan: seed, per-site rules and the injected delay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic draw sequence.
    pub seed: u64,
    /// Injected stall length for [`FaultSite::WorkerDelay`].
    pub delay: Duration,
    rules: [Option<SiteRule>; SITE_COUNT],
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan (no site injects) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay: Duration::from_millis(10),
            rules: [None; SITE_COUNT],
        }
    }

    /// Adds or replaces one site's rule.
    pub fn with_site(
        mut self,
        site: FaultSite,
        probability: f64,
        budget: Option<u64>,
    ) -> FaultPlan {
        self.rules[site.index()] = Some(SiteRule {
            probability: probability.clamp(0.0, 1.0),
            budget,
        });
        self
    }

    /// The rule installed for `site`, if any.
    pub fn rule(&self, site: FaultSite) -> Option<SiteRule> {
        self.rules[site.index()]
    }

    /// Whether any site can inject at all.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(Option::is_none)
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    /// Parses the `--inject` spec: comma-separated `key=value` entries.
    ///
    /// * `seed=N` — the draw seed (default 0);
    /// * `delay-ms=N` — the [`FaultSite::WorkerDelay`] stall (default 10);
    /// * `<site>=P` or `<site>=P:BUDGET` — install a rule, e.g.
    ///   `store-read=0.05` or `worker-panic=0.1:20`.
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{entry}' is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("fault spec seed '{value}': {e}"))?;
                }
                "delay-ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|e| format!("fault spec delay-ms '{value}': {e}"))?;
                    plan.delay = Duration::from_millis(ms);
                }
                site => {
                    let site: FaultSite = site.parse()?;
                    let (prob, budget) = match value.split_once(':') {
                        Some((p, b)) => {
                            let budget: u64 = b
                                .parse()
                                .map_err(|e| format!("{} budget '{b}': {e}", site.name()))?;
                            (p, Some(budget))
                        }
                        None => (value, None),
                    };
                    let probability: f64 = prob
                        .parse()
                        .map_err(|e| format!("{} probability '{prob}': {e}", site.name()))?;
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(format!(
                            "{} probability {probability} is outside [0, 1]",
                            site.name()
                        ));
                    }
                    plan = plan.with_site(site, probability, budget);
                }
            }
        }
        Ok(plan)
    }
}

struct PlanState {
    plan: FaultPlan,
    /// Draws made per site (the deterministic sequence position).
    draws: [u64; SITE_COUNT],
    /// Faults injected per site (checked against the budget).
    injected: [u64; SITE_COUNT],
}

/// Fast-path flag: `false` means no plan is installed and every
/// [`should_inject`] call is a single relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<PlanState>> = Mutex::new(None);

/// Installs a plan, replacing any previous one and resetting every site's
/// draw and injection counters.  An empty plan is equivalent to [`clear`].
pub fn install(plan: FaultPlan) {
    let mut state = STATE.lock().unwrap();
    if plan.is_empty() {
        ACTIVE.store(false, Ordering::Release);
        *state = None;
        return;
    }
    *state = Some(PlanState {
        plan,
        draws: [0; SITE_COUNT],
        injected: [0; SITE_COUNT],
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the installed plan; the plane returns to its zero-cost state.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *STATE.lock().unwrap() = None;
}

/// Whether a plan is installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// How many faults the installed plan has injected at `site` (0 with no
/// plan).  Test observability; `/metrics` carries the same counts.
pub fn injected_count(site: FaultSite) -> u64 {
    STATE
        .lock()
        .unwrap()
        .as_ref()
        .map(|state| state.injected[site.index()])
        .unwrap_or(0)
}

/// The splitmix64 finaliser: a high-quality 64-bit mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Draws at `site`: `true` when the installed plan injects a fault here.
/// With no plan installed this is one relaxed atomic load.
#[inline]
pub fn should_inject(site: FaultSite) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    should_inject_slow(site)
}

#[cold]
fn should_inject_slow(site: FaultSite) -> bool {
    let mut guard = STATE.lock().unwrap();
    let Some(state) = guard.as_mut() else {
        return false;
    };
    let i = site.index();
    let Some(rule) = state.plan.rules[i] else {
        return false;
    };
    let draw = state.draws[i];
    state.draws[i] += 1;
    if rule
        .budget
        .is_some_and(|budget| state.injected[i] >= budget)
    {
        return false;
    }
    // Deterministic uniform draw in [0, 1): position `draw` of site `i`
    // under this seed always lands on the same side of the probability.
    let r =
        mix(state.plan.seed ^ mix(((i as u64 + 1) << 32) | draw)) as f64 / (u64::MAX as f64 + 1.0);
    if r >= rule.probability {
        return false;
    }
    state.injected[i] += 1;
    drop(guard);
    mom_obs::counter_with(
        "momsim_faults_injected_total",
        "Faults injected by the fault plane, per site.",
        &[("site", site.name())],
    )
    .inc();
    mom_obs::log::warn("faults", &format!("injected {} fault", site.name()));
    true
}

/// Panics with an identifiable message when the plan injects at `site`.
/// The supervised worker path catches it like any real panic.
pub fn maybe_panic(site: FaultSite) {
    if should_inject(site) {
        panic!("injected fault: {} panic", site.name());
    }
}

/// Sleeps for the plan's `delay` when it injects at `site`.
pub fn maybe_delay(site: FaultSite) {
    if should_inject(site) {
        let delay = STATE
            .lock()
            .unwrap()
            .as_ref()
            .map(|state| state.plan.delay)
            .unwrap_or(Duration::from_millis(10));
        std::thread::sleep(delay);
    }
}

/// `Some(io::Error)` when the plan injects at `site` — the store's disk
/// seams splice this into their `io::Result` chains.
pub fn injected_io_error(site: FaultSite, what: &str) -> Option<io::Error> {
    should_inject(site)
        .then(|| io::Error::other(format!("injected fault: {what} ({})", site.name())))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global state, so tests touching it serialise.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn inactive_plane_never_injects() {
        let _serial = serial();
        clear();
        assert!(!is_active());
        for site in FaultSite::ALL {
            assert!(!should_inject(site));
        }
    }

    #[test]
    fn draws_are_deterministic_and_roughly_calibrated() {
        let _serial = serial();
        let plan = FaultPlan::new(42).with_site(FaultSite::StoreRead, 0.25, None);
        install(plan.clone());
        let first: Vec<bool> = (0..400)
            .map(|_| should_inject(FaultSite::StoreRead))
            .collect();
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (40..=160).contains(&hits),
            "p=0.25 over 400 draws gave {hits} injections"
        );
        assert_eq!(injected_count(FaultSite::StoreRead), hits as u64);
        // Reinstalling the same plan resets the sequence: same draws out.
        install(plan);
        let second: Vec<bool> = (0..400)
            .map(|_| should_inject(FaultSite::StoreRead))
            .collect();
        assert_eq!(first, second, "same seed, same sequence");
        // A different seed produces a different sequence.
        install(FaultPlan::new(43).with_site(FaultSite::StoreRead, 0.25, None));
        let third: Vec<bool> = (0..400)
            .map(|_| should_inject(FaultSite::StoreRead))
            .collect();
        assert_ne!(first, third, "different seed, different sequence");
        clear();
    }

    #[test]
    fn budgets_dry_up_and_sites_are_independent() {
        let _serial = serial();
        install(
            FaultPlan::new(7)
                .with_site(FaultSite::StoreWrite, 1.0, Some(3))
                .with_site(FaultSite::WorkerPanic, 0.0, None),
        );
        let hits = (0..50)
            .filter(|_| should_inject(FaultSite::StoreWrite))
            .count();
        assert_eq!(hits, 3, "budget caps injections");
        assert_eq!(injected_count(FaultSite::StoreWrite), 3);
        assert!(!should_inject(FaultSite::WorkerPanic), "p=0 never injects");
        assert!(
            !should_inject(FaultSite::StoreSync),
            "unruled sites never inject"
        );
        assert!(injected_io_error(FaultSite::StoreRead, "x").is_none());
        clear();
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let plan: FaultPlan = "seed=42, store-read=0.05, worker-panic=0.1:20, delay-ms=25"
            .parse()
            .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.delay, Duration::from_millis(25));
        assert_eq!(
            plan.rule(FaultSite::StoreRead),
            Some(SiteRule {
                probability: 0.05,
                budget: None
            })
        );
        assert_eq!(
            plan.rule(FaultSite::WorkerPanic),
            Some(SiteRule {
                probability: 0.1,
                budget: Some(20)
            })
        );
        assert!(plan.rule(FaultSite::StoreWrite).is_none());

        assert!("frobnicate=0.5".parse::<FaultPlan>().is_err());
        assert!("store-read".parse::<FaultPlan>().is_err());
        assert!("store-read=1.5".parse::<FaultPlan>().is_err());
        assert!("store-read=0.5:x".parse::<FaultPlan>().is_err());
        assert!("".parse::<FaultPlan>().unwrap().is_empty());
    }

    #[test]
    fn injected_panic_is_catchable() {
        let _serial = serial();
        install(FaultPlan::new(1).with_site(FaultSite::WorkerPanic, 1.0, None));
        let caught = std::panic::catch_unwind(|| maybe_panic(FaultSite::WorkerPanic));
        assert!(caught.is_err(), "maybe_panic must panic at p=1");
        clear();
        maybe_panic(FaultSite::WorkerPanic); // no plan: no panic
    }
}
