//! Tier-1 smoke block for the deterministic fuzzer: a small fixed block
//! of seeds runs on every `cargo test`, so the fuzz harness itself (plan
//! generation, the three phases, property checking) cannot silently rot
//! between the full CI campaigns.  The block is intentionally tiny — the
//! thousand-seed sweep lives in the `sim-fuzz` CI job.

mod support;

use crash_recovery_abcast::core::fuzz::run_seed;
use support::bounded;

#[test]
fn fixed_seed_block_passes() {
    let mut delivered = 0u64;
    for seed in 0..8 {
        let outcome = bounded(move || run_seed(seed));
        assert!(
            outcome.passed(),
            "seed {seed} found violations: {:?}",
            outcome.violations
        );
        delivered += outcome.delivered;
    }
    // Sanity: the block as a whole must exercise the protocol, not just
    // survive it.
    assert!(delivered > 0, "smoke block starved the protocol");
}
