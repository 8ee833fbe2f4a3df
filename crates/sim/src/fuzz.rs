//! Deterministic nemesis fuzzing: seeded fault schedules and the campaign
//! runner.
//!
//! Per seed, [`NemesisPlan::generate`] drives a `ChaCha8Rng` to compose a
//! random schedule from the fault vocabulary — process crash/recovery
//! churn and oscillation (via [`FaultPlan`]), full and asymmetric network
//! partitions, link-level loss/delay/duplication bursts, whole-deployment
//! restarts, torn WAL tails on recovery, and storage faults (disk-full,
//! short-write, fsync-failure, read errors at seeded operation indices).
//! The plan is pure data: a protocol-specific harness (see
//! `abcast_core::fuzz`) executes it against a simulation and checks the
//! broadcast properties, so *everything* about a run derives from the seed
//! and a failing seed reproduces from its `sim_fuzz --seed <s>` line
//! alone.
//!
//! [`run_campaign`] sweeps a block of seeds under a wall-clock budget with
//! a worker pool (each worker runs whole seeds, so parallelism cannot
//! perturb per-seed determinism), classifies which fault families fired,
//! and aggregates per-family coverage — the FoundationDB-style discipline:
//! thousands of adversarial schedules, every failure a one-line repro.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use std::time::Instant;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use abcast_net::LinkConfig;
use abcast_storage::{FaultSchedule, WriteFaultKind};
use abcast_types::{ProcessId, SimDuration, SimTime};

use crate::faults::FaultPlan;

/// The fault families a [`NemesisPlan`] composes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultFamily {
    /// Process crashes with later recoveries (crash/recovery churn).
    Crash,
    /// A process oscillating between up and down.
    Oscillation,
    /// A full (symmetric) partition splitting the deployment in two.
    Partition,
    /// A single directed link cut (A→B dropped, B→A delivered).
    AsymmetricPartition,
    /// A window of elevated message loss.
    LinkLossBurst,
    /// A window of inflated message delays (reordering pressure).
    LinkDelayBurst,
    /// A window of elevated message duplication.
    Duplication,
    /// A whole-deployment restart (datacenter power cycle).
    DeploymentRestart,
    /// Storage faults: disk-full / short-write / fsync-failure / read
    /// errors at seeded operation indices.
    StorageFault,
    /// A torn WAL tail appended before a recovery replay.
    TornWalTail,
}

impl FaultFamily {
    /// Every family, in a fixed order (coverage reports iterate this).
    pub const ALL: [FaultFamily; 10] = [
        FaultFamily::Crash,
        FaultFamily::Oscillation,
        FaultFamily::Partition,
        FaultFamily::AsymmetricPartition,
        FaultFamily::LinkLossBurst,
        FaultFamily::LinkDelayBurst,
        FaultFamily::Duplication,
        FaultFamily::DeploymentRestart,
        FaultFamily::StorageFault,
        FaultFamily::TornWalTail,
    ];

    /// Stable snake-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultFamily::Crash => "crash",
            FaultFamily::Oscillation => "oscillation",
            FaultFamily::Partition => "partition",
            FaultFamily::AsymmetricPartition => "asymmetric_partition",
            FaultFamily::LinkLossBurst => "link_loss_burst",
            FaultFamily::LinkDelayBurst => "link_delay_burst",
            FaultFamily::Duplication => "duplication",
            FaultFamily::DeploymentRestart => "deployment_restart",
            FaultFamily::StorageFault => "storage_fault",
            FaultFamily::TornWalTail => "torn_wal_tail",
        }
    }
}

impl fmt::Display for FaultFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One nemesis action at a point in virtual time, to be applied at (or
/// just after) `at` by the harness driving the simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum NemesisAction {
    /// Cut the directed link `from → to`.
    Cut {
        /// Sender side of the cut.
        from: ProcessId,
        /// Receiver side of the cut.
        to: ProcessId,
    },
    /// Restore the directed link `from → to`.
    Heal {
        /// Sender side of the healed link.
        from: ProcessId,
        /// Receiver side of the healed link.
        to: ProcessId,
    },
    /// Replace the link configuration (a loss/delay/duplication burst
    /// starts or ends; "ends" restores the baseline configuration).
    SetLink(LinkConfig),
    /// Crash every process at once and boot them all again over their
    /// surviving stable storage.
    RestartDeployment,
}

/// A [`NemesisAction`] with its scheduled virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct NemesisMoment {
    /// When to apply the action.
    pub at: SimTime,
    /// What to do.
    pub action: NemesisAction,
}

/// A complete seeded fault schedule for one fuzz run.
///
/// Everything is derived from `seed` by [`NemesisPlan::generate`]; the
/// plan itself is inert data that a harness executes.
#[derive(Clone, Debug)]
pub struct NemesisPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Number of processes in the deployment (drawn from the seed).
    pub processes: usize,
    /// End of the fault window; after this the harness heals everything
    /// and lets the protocol converge.
    pub horizon: SimTime,
    /// Baseline link configuration for the whole run.
    pub baseline_link: LinkConfig,
    /// Crash/recovery/oscillation schedule.
    pub faults: FaultPlan,
    /// Link cuts / heals / bursts / restarts, time-ordered.
    pub moments: Vec<NemesisMoment>,
    /// Per-process storage fault schedules (empty schedule = healthy
    /// disk).
    pub storage_faults: Vec<FaultSchedule>,
    /// Use a WAL-backed deployment and append a torn tail to one journal
    /// before the reopen at each deployment restart.
    pub torn_wal: bool,
    /// The fault families this plan includes (i.e. that will fire when the
    /// plan executes; storage faults are confirmed against the injection
    /// counters by the harness).
    pub families: Vec<FaultFamily>,
}

impl NemesisPlan {
    /// Composes the fault schedule for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let processes = rng.gen_range(3..=5usize);
        let horizon_ms = rng.gen_range(900..=1600u64);
        let horizon = SimTime::from_micros(horizon_ms * 1000);
        let mut families = Vec::new();
        let mut moments: Vec<NemesisMoment> = Vec::new();

        // Baseline network: mostly LAN-ish, sometimes an adversarial WAN
        // (loss + duplication + heavy reordering jitter at all times).
        let baseline_link = if rng.gen_bool(0.3) {
            LinkConfig::lossy_wan()
        } else {
            LinkConfig::lan()
        };

        let t = |ms: u64| SimTime::from_micros(ms * 1000);
        // A random window inside the fault phase of the run.
        let window = |rng: &mut ChaCha8Rng| {
            let start = rng.gen_range(horizon_ms / 10..=horizon_ms / 2);
            let len = rng.gen_range(horizon_ms / 10..=horizon_ms / 3);
            (t(start), t((start + len).min(horizon_ms)))
        };

        // --- process crash/recovery churn -----------------------------
        let mut faults = FaultPlan::none();
        if rng.gen_bool(0.55) {
            families.push(FaultFamily::Crash);
            let n_crashes = rng.gen_range(1..=2usize);
            for _ in 0..n_crashes {
                let p = ProcessId::new(rng.gen_range(0..processes as u32));
                let at = t(rng.gen_range(horizon_ms / 8..=horizon_ms * 3 / 4));
                let down = SimDuration::from_millis(rng.gen_range(30..=250u64));
                faults = faults.crash_for(p, at, down);
            }
        }
        if rng.gen_bool(0.3) {
            families.push(FaultFamily::Oscillation);
            let p = ProcessId::new(rng.gen_range(0..processes as u32));
            let start = t(rng.gen_range(horizon_ms / 10..=horizon_ms / 3));
            let up_for = SimDuration::from_millis(rng.gen_range(40..=120u64));
            let down_for = SimDuration::from_millis(rng.gen_range(10..=60u64));
            faults = faults.oscillate(p, start, up_for, down_for, t(horizon_ms * 3 / 4));
        }

        // --- partitions -----------------------------------------------
        if rng.gen_bool(0.35) {
            families.push(FaultFamily::Partition);
            let (from_t, to_t) = window(&mut rng);
            // Split the deployment in two halves: {0..=split} | rest.
            let split = rng.gen_range(0..processes as u32 - 1);
            for a in 0..=split {
                for b in (split + 1)..processes as u32 {
                    let (a, b) = (ProcessId::new(a), ProcessId::new(b));
                    moments.push(NemesisMoment {
                        at: from_t,
                        action: NemesisAction::Cut { from: a, to: b },
                    });
                    moments.push(NemesisMoment {
                        at: from_t,
                        action: NemesisAction::Cut { from: b, to: a },
                    });
                    moments.push(NemesisMoment {
                        at: to_t,
                        action: NemesisAction::Heal { from: a, to: b },
                    });
                    moments.push(NemesisMoment {
                        at: to_t,
                        action: NemesisAction::Heal { from: b, to: a },
                    });
                }
            }
        }
        if rng.gen_bool(0.35) {
            families.push(FaultFamily::AsymmetricPartition);
            let (from_t, to_t) = window(&mut rng);
            let a = rng.gen_range(0..processes as u32);
            let b = (a + rng.gen_range(1..processes as u32)) % processes as u32;
            let (a, b) = (ProcessId::new(a), ProcessId::new(b));
            moments.push(NemesisMoment {
                at: from_t,
                action: NemesisAction::Cut { from: a, to: b },
            });
            moments.push(NemesisMoment {
                at: to_t,
                action: NemesisAction::Heal { from: a, to: b },
            });
        }

        // --- link-quality bursts --------------------------------------
        let burst = |rng: &mut ChaCha8Rng,
                         moments: &mut Vec<NemesisMoment>,
                         config: LinkConfig| {
            let start = rng.gen_range(horizon_ms / 10..=horizon_ms / 2);
            let len = rng.gen_range(horizon_ms / 10..=horizon_ms / 4);
            moments.push(NemesisMoment {
                at: t(start),
                action: NemesisAction::SetLink(config),
            });
            moments.push(NemesisMoment {
                at: t((start + len).min(horizon_ms)),
                action: NemesisAction::SetLink(baseline_link.clone()),
            });
        };
        if rng.gen_bool(0.35) {
            families.push(FaultFamily::LinkLossBurst);
            let mut config = baseline_link.clone();
            config.loss_probability = rng.gen_range(0.15..0.45);
            burst(&mut rng, &mut moments, config);
        }
        if rng.gen_bool(0.3) {
            families.push(FaultFamily::LinkDelayBurst);
            let mut config = baseline_link.clone();
            config.min_delay = SimDuration::from_millis(rng.gen_range(5..=15u64));
            config.max_delay = SimDuration::from_millis(rng.gen_range(25..=60u64));
            burst(&mut rng, &mut moments, config);
        }
        if rng.gen_bool(0.3) {
            families.push(FaultFamily::Duplication);
            let mut config = baseline_link.clone();
            config.duplication_probability = rng.gen_range(0.1..0.35);
            burst(&mut rng, &mut moments, config);
        }

        // --- whole-deployment restarts and torn WAL tails -------------
        let torn_wal = rng.gen_bool(0.25);
        let mut restarts = 0;
        if rng.gen_bool(0.3) || torn_wal {
            families.push(FaultFamily::DeploymentRestart);
            restarts = rng.gen_range(1..=2usize);
            for _ in 0..restarts {
                let at = t(rng.gen_range(horizon_ms / 4..=horizon_ms * 3 / 4));
                moments.push(NemesisMoment {
                    at,
                    action: NemesisAction::RestartDeployment,
                });
            }
        }
        if torn_wal {
            // Torn tails only materialise at a reopen; the restart above
            // is guaranteed by the `|| torn_wal` arm.
            families.push(FaultFamily::TornWalTail);
        }
        debug_assert!(!torn_wal || restarts > 0);

        // --- storage faults -------------------------------------------
        let mut storage_faults = vec![FaultSchedule::new(); processes];
        if rng.gen_bool(0.4) {
            families.push(FaultFamily::StorageFault);
            let victims = rng.gen_range(1..=2usize);
            for _ in 0..victims {
                let p = rng.gen_range(0..processes);
                let mut schedule = storage_faults[p].clone();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let at_op = rng.gen_range(5..=250u64);
                    let kind = match rng.gen_range(0..3u8) {
                        0 => WriteFaultKind::DiskFull,
                        1 => WriteFaultKind::ShortWrite,
                        _ => WriteFaultKind::FsyncFailure,
                    };
                    schedule = schedule.write_fault(at_op, kind);
                }
                if rng.gen_bool(0.5) {
                    schedule = schedule.read_fault(rng.gen_range(1..=40u64));
                }
                storage_faults[p] = schedule;
            }
        }

        moments.sort_by_key(|m| m.at);
        families.sort();
        families.dedup();

        NemesisPlan {
            seed,
            processes,
            horizon,
            baseline_link,
            faults,
            moments,
            storage_faults,
            torn_wal,
            families,
        }
    }

    /// `true` if the plan includes the given family.
    pub fn includes(&self, family: FaultFamily) -> bool {
        self.families.contains(&family)
    }
}

/// The verdict of running one seed.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    /// The seed that was run.
    pub seed: u64,
    /// Fault families that actually fired during the run.
    pub families: Vec<FaultFamily>,
    /// Property violations found (empty = the seed passed).
    pub violations: Vec<String>,
    /// Messages delivered by the end of the run (sanity signal that the
    /// schedule did not starve the protocol).
    pub delivered: u64,
}

impl SeedOutcome {
    /// `true` if the seed found no violation.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Configuration of a fuzz campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// First seed of the block.
    pub start_seed: u64,
    /// Maximum number of seeds to run.
    pub max_seeds: u64,
    /// Wall-clock budget; no new seed starts after it is exhausted
    /// (in-flight seeds finish).
    pub budget: Duration,
    /// Worker threads running whole seeds in parallel.
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            start_seed: 0,
            max_seeds: 1000,
            budget: Duration::from_secs(300),
            workers: 4,
        }
    }
}

/// Aggregated result of a fuzz campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// First seed of the block.
    pub start_seed: u64,
    /// Seeds actually run.
    pub seeds_run: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Per-family counts of seeds in which the family fired.
    pub family_counts: BTreeMap<&'static str, u64>,
    /// Outcomes of seeds that found a violation.
    pub failures: Vec<SeedOutcome>,
    /// Total messages delivered across all seeds.
    pub delivered_total: u64,
}

impl CampaignReport {
    /// Fraction of seeds in which `family` fired.
    pub fn coverage(&self, family: FaultFamily) -> f64 {
        if self.seeds_run == 0 {
            return 0.0;
        }
        *self.family_counts.get(family.name()).unwrap_or(&0) as f64 / self.seeds_run as f64
    }

    /// Families whose coverage is below `threshold` (e.g. `0.05`).
    pub fn under_covered(&self, threshold: f64) -> Vec<FaultFamily> {
        FaultFamily::ALL
            .into_iter()
            .filter(|f| self.coverage(*f) < threshold)
            .collect()
    }

    /// Renders the report as JSON (the `fuzz-coverage.json` artifact).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"start_seed\": {},", self.start_seed);
        let _ = writeln!(out, "  \"seeds_run\": {},", self.seeds_run);
        let _ = writeln!(out, "  \"elapsed_secs\": {:.3},", self.elapsed.as_secs_f64());
        let _ = writeln!(out, "  \"delivered_total\": {},", self.delivered_total);
        out.push_str("  \"family_coverage\": {\n");
        let mut first = true;
        for family in FaultFamily::ALL {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let count = *self.family_counts.get(family.name()).unwrap_or(&0);
            let _ = write!(
                out,
                "    \"{}\": {{\"seeds\": {}, \"fraction\": {:.4}}}",
                family.name(),
                count,
                self.coverage(family)
            );
        }
        out.push_str("\n  },\n");
        out.push_str("  \"failures\": [\n");
        let mut first = true;
        for f in &self.failures {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"seed\": {}, \"repro\": \"sim_fuzz --seed {}\", \"violations\": [",
                f.seed, f.seed
            );
            let mut vfirst = true;
            for v in &f.violations {
                if !vfirst {
                    out.push_str(", ");
                }
                vfirst = false;
                let _ = write!(out, "\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Runs seeds `start_seed..` through `run_one` on a worker pool until
/// `max_seeds` have run or the wall-clock budget is exhausted, and
/// aggregates fault-family coverage and failures.
///
/// `run_one` must be a pure function of the seed (the workers impose no
/// ordering); the campaign is then reproducible seed-by-seed even though
/// the set of seeds reached within the budget is wall-clock dependent.
pub fn run_campaign(
    config: &CampaignConfig,
    run_one: impl Fn(u64) -> SeedOutcome + Send + Sync,
) -> CampaignReport {
    let started = Instant::now();
    let next = AtomicU64::new(0);
    let outcomes: Mutex<Vec<SeedOutcome>> = Mutex::new(Vec::new());
    let workers = config.workers.max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if started.elapsed() >= config.budget {
                    break;
                }
                let offset = next.fetch_add(1, Ordering::Relaxed);
                if offset >= config.max_seeds {
                    break;
                }
                let outcome = run_one(config.start_seed + offset);
                outcomes.lock().expect("fuzz worker panicked").push(outcome);
            });
        }
    });

    let outcomes = outcomes.into_inner().expect("fuzz worker panicked");
    let mut family_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut delivered_total = 0;
    for outcome in &outcomes {
        for family in &outcome.families {
            *family_counts.entry(family.name()).or_insert(0) += 1;
        }
        delivered_total += outcome.delivered;
        if !outcome.passed() {
            failures.push(outcome.clone());
        }
    }
    failures.sort_by_key(|f| f.seed);

    CampaignReport {
        start_seed: config.start_seed,
        seeds_run: outcomes.len() as u64,
        elapsed: started.elapsed(),
        family_counts,
        failures,
        delivered_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        for seed in 0..50 {
            let a = NemesisPlan::generate(seed);
            let b = NemesisPlan::generate(seed);
            assert_eq!(a.processes, b.processes);
            assert_eq!(a.horizon, b.horizon);
            assert_eq!(a.families, b.families);
            assert_eq!(a.moments, b.moments);
            assert_eq!(a.faults.events(), b.faults.events());
        }
    }

    #[test]
    fn every_family_appears_across_a_seed_block() {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let block = 400u64;
        for seed in 0..block {
            for family in NemesisPlan::generate(seed).families {
                *counts.entry(family.name()).or_insert(0) += 1;
            }
        }
        for family in FaultFamily::ALL {
            let count = *counts.get(family.name()).unwrap_or(&0);
            assert!(
                count as f64 >= block as f64 * 0.05,
                "family {family} fired in only {count}/{block} plans"
            );
        }
    }

    #[test]
    fn torn_wal_plans_always_restart() {
        let mut seen_torn = false;
        for seed in 0..300 {
            let plan = NemesisPlan::generate(seed);
            if plan.torn_wal {
                seen_torn = true;
                assert!(
                    plan.moments
                        .iter()
                        .any(|m| m.action == NemesisAction::RestartDeployment),
                    "seed {seed}: torn WAL without a restart can never replay the tail"
                );
            }
        }
        assert!(seen_torn);
    }

    #[test]
    fn moments_are_time_ordered_and_inside_the_horizon() {
        for seed in 0..100 {
            let plan = NemesisPlan::generate(seed);
            for pair in plan.moments.windows(2) {
                assert!(pair[0].at <= pair[1].at);
            }
            for moment in &plan.moments {
                assert!(moment.at <= plan.horizon, "seed {seed}");
            }
        }
    }

    #[test]
    fn campaign_aggregates_coverage_and_failures() {
        let config = CampaignConfig {
            start_seed: 10,
            max_seeds: 40,
            budget: Duration::from_secs(60),
            workers: 4,
        };
        let report = run_campaign(&config, |seed| {
            let plan = NemesisPlan::generate(seed);
            SeedOutcome {
                seed,
                families: plan.families,
                violations: if seed == 17 {
                    vec!["synthetic violation".into()]
                } else {
                    Vec::new()
                },
                delivered: 3,
            }
        });
        assert_eq!(report.seeds_run, 40);
        assert_eq!(report.delivered_total, 120);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].seed, 17);
        let json = report.to_json();
        assert!(json.contains("\"seeds_run\": 40"));
        assert!(json.contains("sim_fuzz --seed 17"));
        assert!(json.contains("\"family_coverage\""));
    }

    #[test]
    fn campaign_respects_an_exhausted_budget() {
        let config = CampaignConfig {
            start_seed: 0,
            max_seeds: 100_000,
            budget: Duration::ZERO,
            workers: 2,
        };
        let report = run_campaign(&config, |seed| SeedOutcome {
            seed,
            families: Vec::new(),
            violations: Vec::new(),
            delivered: 0,
        });
        assert_eq!(report.seeds_run, 0, "zero budget starts no seed");
    }
}
