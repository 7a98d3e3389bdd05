//! Property tests for the simplex solver: on randomly generated feasible
//! programs the solver must return a feasible point at least as good as the
//! known witness.

use proptest::prelude::*;
use surfnet_lp::{ConstraintOp, LinearProgram, LpError};

/// Builds a random LP that is feasible by construction: pick a witness
/// point first, then only add constraints the witness satisfies.
fn feasible_lp(
    witness: Vec<f64>,
    objs: Vec<f64>,
    rows: Vec<Vec<f64>>,
    slacks: Vec<f64>,
) -> (LinearProgram, Vec<f64>) {
    let n = witness.len();
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = objs
        .iter()
        .take(n)
        .map(|&c| lp.add_var(c, 0.0, 10.0))
        .collect();
    for (row, slack) in rows.iter().zip(&slacks) {
        let terms: Vec<_> = vars.iter().zip(row.iter()).map(|(&v, &c)| (v, c)).collect();
        let lhs: f64 = row.iter().zip(&witness).map(|(c, w)| c * w).sum();
        // Constraint passes through lhs + slack ≥ lhs: witness satisfies Le.
        lp.add_constraint(&terms, ConstraintOp::Le, lhs + slack.abs());
    }
    (lp, witness)
}

/// Builds a random LP around a witness point that covers every branch of
/// the tableau layout: fixed variables (`lower == upper`), nonzero and
/// negative lower bounds, finite and infinite upper bounds, and `Le`/`Ge`/
/// `Eq` rows whose rhs takes either sign. Returns the program, the witness,
/// and whether some variable is unbounded above.
fn mixed_lp(seed: u64) -> (LinearProgram, Vec<f64>, bool) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 100.0
    };
    let n = 1 + (seed % 7) as usize;
    let mut lp = LinearProgram::new();
    let mut witness = Vec::with_capacity(n);
    let mut open_above = false;
    let mut vars = Vec::with_capacity(n);
    for _ in 0..n {
        let lower = if next() < 5.0 { 0.0 } else { next() - 5.0 };
        let kind = next();
        let (upper, w) = if kind < 2.5 {
            (lower, lower)
        } else if kind < 7.5 {
            let upper = lower + 0.5 + next();
            (upper, lower + (upper - lower) * next() / 10.0)
        } else {
            open_above = true;
            (f64::INFINITY, lower + next())
        };
        vars.push(lp.add_var(next() - 5.0, lower, upper));
        witness.push(w);
    }
    let m = 1 + ((seed >> 8) % 6) as usize;
    for _ in 0..m {
        let mut terms = Vec::new();
        let mut lhs = 0.0;
        for (&v, &w) in vars.iter().zip(&witness) {
            if next() < 7.0 {
                let c = next() - 5.0;
                terms.push((v, c));
                lhs += c * w;
            }
        }
        let kind = next();
        if kind < 4.0 {
            lp.add_constraint(&terms, ConstraintOp::Le, lhs + next());
        } else if kind < 8.0 {
            lp.add_constraint(&terms, ConstraintOp::Ge, lhs - next());
        } else {
            lp.add_constraint(&terms, ConstraintOp::Eq, lhs);
        }
    }
    (lp, witness, open_above)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_beats_witness_and_stays_feasible(
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000) as f64 / 100.0
        };
        let witness: Vec<f64> = (0..n).map(|_| next() % 10.0).collect();
        let objs: Vec<f64> = (0..n).map(|_| next() - 5.0).collect();
        let m = 1 + (seed as usize % 5);
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| next() - 5.0).collect())
            .collect();
        let slacks: Vec<f64> = (0..m).map(|_| next()).collect();
        let (lp, witness) = feasible_lp(witness, objs, rows, slacks);

        let sol = lp.maximize();
        // Variables are box-bounded, so the program cannot be unbounded.
        let sol = sol.expect("feasible bounded LP must solve");
        prop_assert!(lp.is_feasible(&sol.values, 1e-6));
        let witness_obj = lp.objective_value(&witness);
        prop_assert!(
            sol.objective >= witness_obj - 1e-6,
            "solver {} worse than witness {}",
            sol.objective,
            witness_obj
        );
    }

    #[test]
    fn mixed_programs_solve_at_least_as_well_as_the_witness(seed in any::<u64>()) {
        let (lp, witness, open_above) = mixed_lp(seed);
        prop_assert!(lp.is_feasible(&witness, 1e-9));
        for (sign, result) in [(1.0, lp.maximize()), (-1.0, lp.minimize())] {
            match result {
                Ok(sol) => {
                    prop_assert!(lp.is_feasible(&sol.values, 1e-6), "seed {}", seed);
                    let witness_obj = lp.objective_value(&witness);
                    prop_assert!(
                        sign * sol.objective >= sign * witness_obj - 1e-6,
                        "seed {}: solver {} worse than witness {}",
                        seed,
                        sol.objective,
                        witness_obj
                    );
                }
                // Only a variable without an upper bound can run away.
                Err(LpError::Unbounded) if open_above => {}
                Err(e) => prop_assert!(false, "seed {}: feasible program gave {:?}", seed, e),
            }
        }
    }

    #[test]
    fn minimize_is_negated_maximize(seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 100) as f64 / 10.0
        };
        let mut lp_max = LinearProgram::new();
        let mut lp_min = LinearProgram::new();
        let n = 3;
        for _ in 0..n {
            let c = next() - 5.0;
            lp_max.add_var(c, 0.0, 7.0);
            lp_min.add_var(-c, 0.0, 7.0);
        }
        let smax = lp_max.maximize().unwrap();
        let smin = lp_min.minimize().unwrap();
        prop_assert!((smax.objective + smin.objective).abs() < 1e-7);
    }

    #[test]
    fn contradictory_bounds_infeasible(a in 0.0f64..5.0, gap in 0.1f64..5.0) {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, a);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, a + gap);
        prop_assert_eq!(lp.maximize().unwrap_err(), LpError::Infeasible);
    }
}
