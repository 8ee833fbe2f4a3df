//! Fuzzer regression seeds: every seed here once found a real protocol
//! bug (or pins a schedule shape that did).  Each run reconstructs the
//! whole deployment, workload and fault schedule from the seed alone, so
//! these tests replay the exact executions that failed — re-run any of
//! them by hand with `cargo run --bin sim_fuzz -- --seed <n>`.
//!
//! Keep this suite green: a failure here means one of the fixed bugs
//! regressed under the very schedule that originally exposed it.

mod support;

use crash_recovery_abcast::core::fuzz::run_seed_detailed;
use crash_recovery_abcast::sim::fuzz::FaultFamily;
use support::bounded;

/// Seed 88 — "GC outruns the agreed checkpoint".
///
/// A torn-WAL seed with two mid-run deployment restarts.  Recovery
/// rebuilds the delivery sequence from the logged `(k, Agreed)` image and
/// then extends it by replaying durable `consensus/<k>/decided` records;
/// the boot-step consensus GC used to compute its cutoff from the
/// *replayed* round and deleted the very records the replay depended on.
/// The second restart then regressed the recovered sequence, and the
/// lagging processes re-ran consensus for a settled round — two different
/// decisions for one instance (uniform-agreement violation at `learn`).
///
/// The same schedule also exposed two more bugs on the way down:
/// a coordinator crashing between issuing a `Prepare` and receiving its
/// own lossy self-copy recovered with a stale ballot watermark and
/// reissued the same ballot number, and the consensus forget-floor was
/// volatile, reopening discarded rounds after recovery.
#[test]
fn seed_88_gc_outruns_agreed_checkpoint() {
    let run = bounded(|| run_seed_detailed(88));
    assert!(run.plan.torn_wal, "seed 88 must remain a torn-WAL schedule");
    assert!(
        run.outcome.families.contains(&FaultFamily::DeploymentRestart),
        "seed 88 must keep firing deployment restarts"
    );
    assert!(
        run.outcome.passed(),
        "seed 88 regressed: {:?}",
        run.outcome.violations
    );
    assert!(run.outcome.delivered > 0, "schedule starved the protocol");
}

/// Seed 144 — "pairwise-overlap total order".
///
/// Crash churn plus an asymmetric partition, duplication and storage
/// faults on a five-process deployment.  The property checker originally
/// compared every delivery sequence only against the longest one, so two
/// *short* sequences could disagree on their common prefix without being
/// flagged; this schedule produced exactly that shape.  The checker now
/// compares all pairs (see `abcast_core::properties`), and the protocol
/// must keep the run clean.
#[test]
fn seed_144_pairwise_total_order_shape() {
    let run = bounded(|| run_seed_detailed(144));
    assert!(
        run.outcome.families.contains(&FaultFamily::AsymmetricPartition)
            && run.outcome.families.contains(&FaultFamily::StorageFault),
        "seed 144 must keep its asymmetric-partition + storage-fault shape"
    );
    assert!(
        run.outcome.passed(),
        "seed 144 regressed: {:?}",
        run.outcome.violations
    );
    assert!(run.outcome.delivered > 0, "schedule starved the protocol");
}

/// Seed 12 — "torn tail across a restarted deployment".
///
/// Crash plus asymmetric partition plus a deployment restart, finished by
/// the durability phase tearing the tail of one process's journal before
/// the final reopen.  Pins the WAL replay's torn-tail tolerance composed
/// with mid-run restarts: deliveries made before the teardown must
/// survive the corrupted reopen.
#[test]
fn seed_12_torn_tail_after_restart() {
    let run = bounded(|| run_seed_detailed(12));
    assert!(run.plan.torn_wal, "seed 12 must remain a torn-WAL schedule");
    assert!(
        run.outcome.families.contains(&FaultFamily::Crash)
            && run.outcome.families.contains(&FaultFamily::DeploymentRestart),
        "seed 12 must keep its crash + restart shape"
    );
    assert!(
        run.outcome.passed(),
        "seed 12 regressed: {:?}",
        run.outcome.violations
    );
    assert!(run.outcome.delivered > 0, "schedule starved the protocol");
}

/// Seed 163 — "everything at once".
///
/// The densest schedule in the first campaign block: eight of the ten
/// fault families fire in one run (crash churn, oscillation, both
/// partition kinds, loss bursts, duplication, a deployment restart and
/// storage faults).  Not tied to a single fixed bug; pinned because
/// maximal fault composition is where cross-feature regressions surface
/// first.
#[test]
fn seed_163_dense_fault_composition() {
    let run = bounded(|| run_seed_detailed(163));
    assert!(
        run.outcome.families.len() >= 6,
        "seed 163 lost its dense composition: {:?}",
        run.outcome.families
    );
    assert!(
        run.outcome.passed(),
        "seed 163 regressed: {:?}",
        run.outcome.violations
    );
    assert!(run.outcome.delivered > 0, "schedule starved the protocol");
}
