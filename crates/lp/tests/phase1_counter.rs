//! `lp.phase1_solves` counts exactly the solves that run phase 1: those
//! whose origin (every variable at its lower bound) is infeasible. CI
//! asserts the counter stays 0 on the fig7 smoke run, so this test keeps
//! that check from passing because the counter never fires.
//!
//! The only test in this binary, so no other solve moves the counters
//! between the snapshots.

use surfnet_lp::{ConstraintOp, LinearProgram};

fn counter(name: &str) -> u64 {
    surfnet_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// `max x + y` s.t. `x - y = 0`, `x + y ≤ 4`, and `x ≥ lower`.
fn program(lower: f64) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, 0.0, f64::INFINITY);
    let y = lp.add_var(1.0, 0.0, f64::INFINITY);
    lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0);
    lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, lower);
    lp
}

#[test]
fn phase1_solves_counts_only_infeasible_origins() {
    let _t = surfnet_telemetry::Telemetry::enabled();
    let (solves, phase1) = (counter("lp.solves"), counter("lp.phase1_solves"));

    // The origin satisfies every row: phase 1 is skipped.
    let s = program(0.0).maximize().unwrap();
    assert_eq!(s.values, vec![2.0, 2.0]);
    assert_eq!(counter("lp.solves") - solves, 1);
    assert_eq!(counter("lp.phase1_solves") - phase1, 0);

    // `x ≥ 1` cuts the origin off: phase 1 runs, to the same optimum.
    let s = program(1.0).maximize().unwrap();
    assert_eq!(s.values, vec![2.0, 2.0]);
    assert_eq!(counter("lp.solves") - solves, 2);
    assert_eq!(counter("lp.phase1_solves") - phase1, 1);
}
