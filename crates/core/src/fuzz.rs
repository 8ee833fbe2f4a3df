//! Per-seed fuzz execution: runs one [`NemesisPlan`] against a full
//! deployment and checks the broadcast properties.
//!
//! This is the protocol-specific half of the deterministic fuzzer (the
//! seed → schedule half lives in [`abcast_sim::fuzz`]).  [`run_seed`]
//! reconstructs *everything* about a run — deployment size, protocol
//! variant, workload, fault schedule — from the seed alone, so a failure
//! reported by a campaign reproduces from its `sim_fuzz --seed <s>` line
//! with no other state.
//!
//! Each run has three phases:
//!
//! 1. **Fault phase** — the cluster executes the plan's crash/recovery
//!    schedule, partitions, link bursts, deployment restarts and storage
//!    faults while a seeded workload keeps broadcasting.  Processes that
//!    fail-stop on a storage fault
//!    ([`crate::protocol::AtomicBroadcast::is_halted`]) are
//!    crashed and later recovered, exactly as the paper's model prescribes.
//!    Safety (Validity, Integrity, Total Order) is checked continuously;
//!    Termination is *not*, because partitions and crash churn legitimately
//!    stall progress.
//! 2. **Heal phase** — every fault is lifted (storage disarmed, partitions
//!    healed, baseline link restored, everyone recovered) and the cluster
//!    runs until delivery converges.  Now all four properties must hold,
//!    with `must_deliver` = everything delivered by anyone.
//! 3. **Durability phase** — the whole deployment restarts (for torn-WAL
//!    seeds: the cluster is torn down, a torn record tail is appended to
//!    one journal, and the deployment reopens from the on-disk files).
//!    Every message delivered before the restart must still be delivered
//!    after it, and the four properties must hold over the recovered
//!    state.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use abcast_consensus::ConsensusConfig;
use abcast_sim::fuzz::{FaultFamily, NemesisAction, NemesisPlan, SeedOutcome};
use abcast_sim::Simulation;
use abcast_storage::{FaultyStorage, SharedStorage, StorageRegistry};
use abcast_types::{MsgId, ProcessId, ProtocolConfig, SimDuration};

use crate::harness::{Cluster, ClusterConfig, FramedAbcast};
use crate::properties::check_all;
use crate::queues::AgreedQueue;

/// A seed's outcome together with the plan it executed (for reporting).
#[derive(Clone, Debug)]
pub struct FuzzRun {
    /// The schedule the seed generated.
    pub plan: NemesisPlan,
    /// What happened.
    pub outcome: SeedOutcome,
}

/// Runs one fuzz seed end to end.  See the module docs for the phases.
pub fn run_seed(seed: u64) -> SeedOutcome {
    run_seed_detailed(seed).outcome
}

/// Virtual-time step between nemesis polls during the fault phase.
const SLICE: SimDuration = SimDuration::from_millis(2);
/// How long a storage-halted process stays down before it is recovered.
const HALT_DOWNTIME: SimDuration = SimDuration::from_millis(40);

/// Like [`run_seed`], but also returns the generated plan.
pub fn run_seed_detailed(seed: u64) -> FuzzRun {
    let plan = NemesisPlan::generate(seed);
    // Separate stream from the plan's so harness choices (protocol
    // variant, workload) are independent of the fault vocabulary draws.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCA_57F0);
    let protocol = if rng.gen_bool(0.35) {
        ProtocolConfig::alternative()
    } else {
        ProtocolConfig::basic()
    };

    // Torn-WAL seeds run over real on-disk journals so the durability
    // phase can close, corrupt and reopen them; everything else runs over
    // in-memory storage.  Both are wrapped in `FaultyStorage`.
    let wal_dir = plan.torn_wal.then(|| {
        let dir = std::env::temp_dir().join(format!("abcast-sim-fuzz/seed-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let inner = match &wal_dir {
        // Tiny segments + the minimum compaction threshold: protocol-sized
        // workloads then rotate and compact constantly, so the crash/torn
        // fault families exercise segment boundaries, not just one file.
        Some(dir) => StorageRegistry::wal_in_segmented(dir, plan.processes, 1, 512, 4096)
            .expect("open WAL storages"),
        None => StorageRegistry::in_memory(plan.processes),
    };
    let faulty: Vec<Arc<FaultyStorage>> = inner
        .iter()
        .map(|(p, s)| {
            Arc::new(FaultyStorage::new(
                s,
                plan.storage_faults[p.index()].clone(),
            ))
        })
        .collect();
    let registry = StorageRegistry::new(
        faulty
            .iter()
            .map(|f| Arc::clone(f) as SharedStorage)
            .collect(),
    );

    let config = ClusterConfig {
        processes: plan.processes,
        seed,
        link: plan.baseline_link.clone(),
        protocol,
        consensus: ConsensusConfig::crash_recovery(),
    };
    let mut cluster = Cluster::with_registry(config.clone(), registry);
    cluster.apply_faults(&plan.faults);

    let mut violations: Vec<String> = Vec::new();

    // ------------------------------------------------------------------
    // Phase 1: faults + workload, safety checked continuously.
    // ------------------------------------------------------------------
    let processes: Vec<ProcessId> = cluster.processes().iter().collect();
    let mut next_moment = 0;
    let mut slices = 0u64;
    let mut payload_counter = 0u8;
    while cluster.now() < plan.horizon {
        let mut deadline = (cluster.now() + SLICE).min(plan.horizon);
        if let Some(moment) = plan.moments.get(next_moment) {
            deadline = deadline.min(moment.at.max(cluster.now()));
        }
        cluster.sim_mut().run_until_time(deadline);

        while let Some(moment) = plan.moments.get(next_moment) {
            if moment.at > cluster.now() {
                break;
            }
            apply_action(&mut cluster, &moment.action);
            next_moment += 1;
        }

        // Fail-stop: a process whose storage misbehaved has halted (it
        // made no externally visible step since the failed write); crash
        // it and bring it back through the recovery procedure later.
        for p in &processes {
            if is_halted(&mut cluster, *p) {
                let back_at = cluster.now() + HALT_DOWNTIME;
                cluster.sim_mut().crash_now(*p);
                cluster.sim_mut().recover_at(*p, back_at);
            }
        }

        // Seeded workload: keep broadcasting from random live processes.
        if rng.gen_bool(0.6) {
            let p = ProcessId::new(rng.gen_range(0..plan.processes as u32));
            if cluster.sim().is_up(p) && !is_halted(&mut cluster, p) {
                payload_counter = payload_counter.wrapping_add(1);
                let size = rng.gen_range(4..=32usize);
                cluster.broadcast(p, vec![payload_counter; size]);
            }
        }

        slices += 1;
        if slices.is_multiple_of(8) {
            // Safety-only check: empty good set and empty must-deliver
            // make Termination vacuous; Validity, Integrity and Total
            // Order still apply to every live delivery sequence.
            for v in cluster.check_properties(&[], &BTreeSet::new()) {
                violations.push(format!("fault phase t={}: {v}", cluster.now()));
            }
            if !violations.is_empty() {
                break; // one broken run is enough; report early
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: heal everything and require convergence + all properties.
    // ------------------------------------------------------------------
    for f in &faulty {
        f.disarm();
    }
    {
        let link = cluster.sim_mut().link_mut();
        link.heal_all();
        link.set_config(plan.baseline_link.clone());
    }
    for p in &processes {
        if is_halted(&mut cluster, *p) {
            cluster.sim_mut().crash_now(*p);
        }
        if !cluster.sim().is_up(*p) {
            cluster.sim_mut().recover_now(*p);
        }
    }
    let ids: BTreeSet<MsgId> = cluster.broadcast_ids().clone();
    let deadline = cluster.now() + SimDuration::from_secs(10);
    let converged = cluster
        .sim_mut()
        .run_until(deadline, |sim| delivery_converged(sim, &ids));
    if !converged {
        violations.push("heal phase: delivery never converged across processes".into());
    }
    let must_before = cluster.delivered_by_any();
    for v in cluster.check_properties(&processes, &must_before) {
        violations.push(format!("heal phase: {v}"));
    }

    // ------------------------------------------------------------------
    // Phase 3: whole-deployment restart; durable state must survive.
    // ------------------------------------------------------------------
    // Storage faults were disarmed at the start of phase 2, so the
    // injection totals are final here — read them before the restart
    // phase tears the storages down.
    let injected: u64 = faulty.iter().map(|f| f.injected().total()).sum();

    let broadcast = cluster.broadcast_ids().clone();
    let (must_after, queue_violations) = match &wal_dir {
        None => {
            cluster.sim_mut().restart_deployment();
            let deadline = cluster.now() + SimDuration::from_secs(10);
            cluster
                .sim_mut()
                .run_until(deadline, |sim| delivery_converged(sim, &ids));
            let must_after = cluster.delivered_by_any();
            let vs: Vec<String> = cluster
                .check_properties(&processes, &must_after)
                .into_iter()
                .map(|v| format!("after restart: {v}"))
                .collect();
            (must_after, vs)
        }
        Some(dir) => {
            // Tear the tail of one journal: a record header promising far
            // more bytes than exist, exactly what a crash mid-append
            // leaves behind.  Replay must stop there, not invent state.
            //
            // A restart kills the whole deployment, background threads
            // included — model that faithfully: the cluster, the faulty
            // wrappers and the inner registry all hold `Arc`s to the WAL
            // storages, and every one must go before the reopen, or a
            // surviving instance's compactor could still be rewriting the
            // directory the new open is replaying.
            drop(cluster);
            drop(faulty);
            drop(inner);
            append_torn_tail(&dir.join("p0.wal"));
            let reopened = StorageRegistry::wal_in_segmented(dir, plan.processes, 1, 512, 4096)
                .expect("reopen WAL storages");
            let mut cluster = Cluster::with_registry(config, reopened);
            let deadline = cluster.now() + SimDuration::from_secs(10);
            cluster
                .sim_mut()
                .run_until(deadline, |sim| delivery_converged(sim, &ids));
            // The reopened harness has no broadcast history, so check
            // against the sets saved from the first deployment.
            let must_after: BTreeSet<MsgId> = ids
                .iter()
                .filter(|id| {
                    cluster
                        .processes()
                        .iter()
                        .filter_map(|p| cluster.sim().actor(p))
                        .any(|a| a.is_delivered(**id))
                })
                .copied()
                .collect();
            let queues: Vec<&AgreedQueue> = processes
                .iter()
                .filter_map(|p| cluster.agreed(*p))
                .collect();
            let good: Vec<usize> = processes.iter().map(|p| p.index()).collect();
            let vs = check_all(&queues, &good, &broadcast, &must_after)
                .into_iter()
                .map(|v| format!("after torn-WAL reopen: {v}"))
                .collect();
            let _ = std::fs::remove_dir_all(dir);
            (must_after, vs)
        }
    };
    violations.extend(queue_violations);
    let lost: Vec<MsgId> = must_before.difference(&must_after).copied().collect();
    if !lost.is_empty() {
        violations.push(format!(
            "Durability violated: delivered before the deployment restart but not after: {lost:?}"
        ));
    }

    // ------------------------------------------------------------------
    // Which families actually fired?  Everything in the plan fires
    // deterministically except storage faults, which only count if an
    // injection point was actually reached.
    // ------------------------------------------------------------------
    let families: Vec<FaultFamily> = plan
        .families
        .iter()
        .copied()
        .filter(|f| *f != FaultFamily::StorageFault || injected > 0)
        .collect();

    FuzzRun {
        outcome: SeedOutcome {
            seed,
            families,
            violations,
            delivered: must_after.len() as u64,
        },
        plan,
    }
}

fn apply_action(cluster: &mut Cluster, action: &NemesisAction) {
    match action {
        NemesisAction::Cut { from, to } => cluster.sim_mut().link_mut().cut(*from, *to),
        NemesisAction::Heal { from, to } => cluster.sim_mut().link_mut().heal(*from, *to),
        NemesisAction::SetLink(config) => cluster.sim_mut().link_mut().set_config(config.clone()),
        NemesisAction::RestartDeployment => cluster.sim_mut().restart_deployment(),
    }
}

fn is_halted(cluster: &mut Cluster, p: ProcessId) -> bool {
    cluster
        .sim()
        .actor(p)
        .map(|a| a.inner().is_halted())
        .unwrap_or(false)
}

/// Everyone is up and no process disagrees about whether an identity was
/// delivered (each may still be pending everywhere — that only matters for
/// Termination, which the caller checks after convergence).
fn delivery_converged(sim: &Simulation<FramedAbcast>, ids: &BTreeSet<MsgId>) -> bool {
    let processes: Vec<ProcessId> = sim.processes().iter().collect();
    if !processes.iter().all(|p| sim.is_up(*p)) {
        return false;
    }
    for id in ids {
        let mut any = false;
        let mut all = true;
        for p in &processes {
            let delivered = sim.actor(*p).map(|a| a.is_delivered(*id)).unwrap_or(false);
            any |= delivered;
            all &= delivered;
        }
        if any && !all {
            return false;
        }
    }
    true
}

/// Appends a torn record to a WAL file: a header that promises more
/// payload than follows, as a crash mid-append would leave.
fn append_torn_tail(path: &std::path::Path) {
    use std::io::Write as _;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&1_000u32.to_le_bytes()); // len: promises 1000 bytes
    bytes.extend_from_slice(&0xDEAD_BEEF_u32.to_le_bytes()); // bogus crc
    bytes.extend_from_slice(&[0x42; 24]); // ...but only 24 arrive
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open WAL for torn-tail append");
    file.write_all(&bytes).expect("append torn tail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_runs_clean_and_reports_its_families() {
        let run = run_seed_detailed(3);
        assert!(
            run.outcome.violations.is_empty(),
            "seed 3 violations: {:#?}",
            run.outcome.violations
        );
        assert_eq!(run.outcome.seed, 3);
        // Deterministic: the same seed reports the same outcome.
        let again = run_seed_detailed(3);
        assert_eq!(run.outcome.families, again.outcome.families);
        assert_eq!(run.outcome.delivered, again.outcome.delivered);
    }
}
