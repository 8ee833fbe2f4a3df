//! The simulated run is the one place whose counts must repeat exactly.

use abcast_benchmark::simrun;

#[test]
fn two_simulated_runs_yield_identical_counts() {
    let first = simrun::simulated(400).expect("the simulated run completes");
    let second = simrun::simulated(400).expect("the simulated run completes");
    let counts = |run: &[(&'static str, f64)]| -> Vec<(&'static str, u64)> {
        run.iter()
            // Events per *wall* second is a speed, not a count.
            .filter(|(name, _)| *name != "sim.events_per_wall_s")
            .map(|(name, value)| (*name, value.to_bits()))
            .collect()
    };
    assert_eq!(counts(&first), counts(&second));
    assert_eq!(first.len(), 7);
    assert!(
        first.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
        "{first:?}"
    );
}
