//! The dense two-phase simplex the compacted solver replaced, kept as a
//! test oracle.
//!
//! [`solve`] is the pre-compaction solver verbatim, minus telemetry and
//! `SURFNET_CHECK` hooks, plus a pivot count: an `m × (n + slack + art)`
//! `Vec<Vec<f64>>` tableau whose fixed columns are zeroed rather than
//! removed, with every pivot updating every cell. It always runs phase 1.
//! [`crate::simplex`] must match it bit for bit — same result variant,
//! `==` objective and values, same pivot count — on every program whose
//! origin is infeasible, where it runs phase 1 too. On a program with a
//! feasible origin it skips phase 1 and may stop at another optimal vertex
//! of a degenerate program, so there it must match the result variant and
//! the objective, at a feasible point.

use crate::problem::{ConstraintOp, Direction, LinearProgram};
use crate::{LpError, Solution};

const EPS: f64 = 1e-9;
const RATIO_TOL: f64 = 1e-10;

/// Solves `lp`, returning the result and the number of pivots performed.
pub(crate) fn solve(
    lp: &LinearProgram,
    direction: Direction,
) -> (Result<Solution, LpError>, usize) {
    let mut pivots = 0;
    let result = solve_inner(lp, direction, &mut pivots);
    (result, pivots)
}

fn solve_inner(
    lp: &LinearProgram,
    direction: Direction,
    pivots: &mut usize,
) -> Result<Solution, LpError> {
    let n = lp.num_vars();
    if n == 0 {
        return Ok(Solution {
            objective: 0.0,
            values: Vec::new(),
        });
    }

    // Shifted variables y = x - l ≥ 0. Variables with a zero-width range
    // (upper == lower — routing formulations pin hundreds of forbidden
    // edge flows this way) are *fixed*: their column is zeroed and no
    // bound row is emitted, which keeps the tableau small.
    let fixed: Vec<bool> = (0..n).map(|i| lp.upper[i] - lp.lower[i] <= 0.0).collect();

    // Build the row list: every original constraint plus one
    // `y_i ≤ u_i - l_i` row per finite, non-degenerate upper bound.
    struct Row {
        coeffs: Vec<f64>,
        op: ConstraintOp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(lp.num_constraints());
    for c in &lp.constraints {
        let mut coeffs = vec![0.0; n];
        let mut shift = 0.0;
        for &(i, co) in &c.terms {
            if !fixed[i] {
                coeffs[i] += co;
            }
            shift += co * lp.lower[i];
        }
        rows.push(Row {
            coeffs,
            op: c.op,
            rhs: c.rhs - shift,
        });
    }
    for i in 0..n {
        if lp.upper[i].is_finite() && !fixed[i] {
            let range = lp.upper[i] - lp.lower[i];
            let mut coeffs = vec![0.0; n];
            coeffs[i] = 1.0;
            rows.push(Row {
                coeffs,
                op: ConstraintOp::Le,
                rhs: range,
            });
        }
    }

    // Normalize to non-negative rhs.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for c in r.coeffs.iter_mut() {
                *c = -*c;
            }
            r.op = match r.op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
        }
    }

    let m = rows.len();
    // Column layout: [y (n)] [slack/surplus (m at most)] [artificials] [rhs]
    let mut num_slack = 0usize;
    let mut num_art = 0usize;
    for r in &rows {
        match r.op {
            ConstraintOp::Le => num_slack += 1,
            ConstraintOp::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            ConstraintOp::Eq => num_art += 1,
        }
    }
    let total = n + num_slack + num_art;
    let rhs_col = total;
    let mut tableau = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols: Vec<usize> = Vec::with_capacity(num_art);

    let mut next_slack = n;
    let mut next_art = n + num_slack;
    for (ri, r) in rows.iter().enumerate() {
        tableau[ri][..n].copy_from_slice(&r.coeffs);
        tableau[ri][rhs_col] = r.rhs;
        match r.op {
            ConstraintOp::Le => {
                tableau[ri][next_slack] = 1.0;
                basis[ri] = next_slack;
                next_slack += 1;
            }
            ConstraintOp::Ge => {
                tableau[ri][next_slack] = -1.0;
                next_slack += 1;
                tableau[ri][next_art] = 1.0;
                basis[ri] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
            ConstraintOp::Eq => {
                tableau[ri][next_art] = 1.0;
                basis[ri] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
        }
    }

    let max_iters = 200 * (m + total) + 1000;
    let bland_after = 20 * (m + total) + 200;

    // Phase 1: minimize the sum of artificials.
    if num_art > 0 {
        let mut cost = vec![0.0; total + 1];
        for &a in &art_cols {
            cost[a] = 1.0;
        }
        // Price out the basic artificials.
        for ri in 0..m {
            if art_cols.contains(&basis[ri]) {
                for j in 0..=total {
                    cost[j] -= tableau[ri][j];
                }
            }
        }
        run_simplex(
            &mut tableau,
            &mut basis,
            &mut cost,
            rhs_col,
            max_iters,
            bland_after,
            pivots,
        )?;
        let phase1_obj = -cost[rhs_col];
        if phase1_obj > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Pivot remaining artificials out of the basis (degenerate rows).
        for ri in 0..m {
            if art_cols.contains(&basis[ri]) {
                let pivot_col = (0..n + num_slack).find(|&j| tableau[ri][j].abs() > EPS);
                match pivot_col {
                    Some(j) => pivot(&mut tableau, &mut basis, ri, j, rhs_col, pivots),
                    None => {
                        // Redundant row: zero it (keeps indices stable).
                        for j in 0..=total {
                            tableau[ri][j] = 0.0;
                        }
                    }
                }
            }
        }
        // Forbid artificials from re-entering by erasing their columns.
        for &a in &art_cols {
            for row in tableau.iter_mut() {
                row[a] = 0.0;
            }
        }
    }

    // Phase 2: the true objective. Internally minimize; maximization
    // negates the cost vector.
    let sign = match direction {
        Direction::Maximize => -1.0,
        Direction::Minimize => 1.0,
    };
    let mut cost = vec![0.0; total + 1];
    for i in 0..n {
        // Fixed variables never enter the basis: zero cost, zero column.
        if !fixed[i] {
            cost[i] = sign * lp.objective[i];
        }
    }
    // Artificials keep zero cost but their columns are erased above.
    for ri in 0..m {
        let b = basis[ri];
        if b != usize::MAX && cost[b].abs() > 0.0 {
            let c = cost[b];
            for j in 0..=total {
                cost[j] -= c * tableau[ri][j];
            }
        }
    }
    run_simplex(
        &mut tableau,
        &mut basis,
        &mut cost,
        rhs_col,
        max_iters,
        bland_after,
        pivots,
    )?;

    // Extract the solution.
    let mut y = vec![0.0; total];
    for ri in 0..m {
        let b = basis[ri];
        if b != usize::MAX && b < total {
            y[b] = tableau[ri][rhs_col];
        }
    }
    let values: Vec<f64> = (0..n).map(|i| lp.lower[i] + y[i]).collect();
    Ok(Solution {
        objective: lp.objective_value(&values),
        values,
    })
}

/// Runs simplex iterations until optimality.
///
/// `cost` is the current reduced-cost row for a *minimization*; entry
/// `cost[rhs]` tracks the negated objective value.
fn run_simplex(
    tableau: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &mut [f64],
    rhs_col: usize,
    max_iters: usize,
    bland_after: usize,
    pivots: &mut usize,
) -> Result<(), LpError> {
    let m = tableau.len();
    for iter in 0..max_iters {
        let use_bland = iter >= bland_after;
        // Entering column: most negative reduced cost (Dantzig) or first
        // negative (Bland).
        let mut enter = usize::MAX;
        let mut best = -EPS;
        for j in 0..rhs_col {
            let c = cost[j];
            if c < best {
                enter = j;
                if use_bland {
                    break;
                }
                best = c;
            }
        }
        if enter == usize::MAX {
            return Ok(());
        }
        // Ratio test, Harris-style two-pass. Comparing raw ratios with an
        // absolute tolerance is scale-blind: when the entering column holds
        // entries of ~1e15, two ratios 1e-14 apart look "tied" yet pivoting
        // on the looser one moves other rows' rhs by tens. Pass 1 finds the
        // tightest step bound with a small *feasibility* tolerance on the
        // rhs; pass 2 picks among the rows whose ratio fits inside that
        // bound, so any choice degrades feasibility by at most RATIO_TOL.
        let mut t_limit = f64::INFINITY;
        for row in tableau.iter() {
            let a = row[enter];
            if a > EPS {
                let bound = (row[rhs_col].max(0.0) + RATIO_TOL) / a;
                if bound < t_limit {
                    t_limit = bound;
                }
            }
        }
        if t_limit.is_infinite() {
            return Err(LpError::Unbounded);
        }
        // Among candidates: largest pivot element for numerical stability
        // (Dantzig phase) or lowest basis index (Bland anti-cycling phase).
        let mut leave = usize::MAX;
        let mut best_a = 0.0;
        for ri in 0..m {
            let a = tableau[ri][enter];
            if a > EPS && tableau[ri][rhs_col] / a <= t_limit {
                let better = if use_bland {
                    leave == usize::MAX || basis[ri] < basis[leave]
                } else {
                    a > best_a
                };
                if better {
                    best_a = a;
                    leave = ri;
                }
            }
        }
        // The bound-setting row itself always qualifies (rhs/a ≤
        // (rhs.max(0)+tol)/a), so a candidate is guaranteed to exist.
        debug_assert!(leave != usize::MAX, "ratio test found no leaving row");
        pivot_with_cost(tableau, basis, cost, leave, enter, rhs_col, pivots);
    }
    Err(LpError::IterationLimit)
}

fn pivot_with_cost(
    tableau: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &mut [f64],
    leave: usize,
    enter: usize,
    rhs_col: usize,
    pivots: &mut usize,
) {
    pivot(tableau, basis, leave, enter, rhs_col, pivots);
    let factor = cost[enter];
    if factor.abs() > 0.0 {
        for j in 0..=rhs_col {
            cost[j] -= factor * tableau[leave][j];
        }
        cost[enter] = 0.0;
    }
}

fn pivot(
    tableau: &mut [Vec<f64>],
    basis: &mut [usize],
    leave: usize,
    enter: usize,
    rhs_col: usize,
    pivots: &mut usize,
) {
    *pivots += 1;
    let p = tableau[leave][enter];
    debug_assert!(p.abs() > EPS, "pivot on near-zero element");
    let inv = 1.0 / p;
    for j in 0..=rhs_col {
        tableau[leave][j] *= inv;
    }
    tableau[leave][enter] = 1.0;
    for ri in 0..tableau.len() {
        if ri == leave {
            continue;
        }
        let f = tableau[ri][enter];
        if f.abs() > 0.0 {
            for j in 0..=rhs_col {
                tableau[ri][j] -= f * tableau[leave][j];
            }
            tableau[ri][enter] = 0.0;
        }
    }
    basis[leave] = enter;
}

#[cfg(test)]
mod tests {
    //! Differential tests: the compacted solver against the dense oracle.

    use super::solve as dense_solve;
    use crate::simplex::solve_counted;
    use crate::{ConstraintOp, Direction, LinearProgram, LpError, Variable};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Per-outcome tallies of one start, so a generator that drifts into
    /// producing only trivial programs, or only programs of one start,
    /// fails loudly instead of passing vacuously.
    #[derive(Debug, Default)]
    struct Outcomes {
        solved: usize,
        infeasible: usize,
        other_err: usize,
        pivots: usize,
        oracle_pivots: usize,
    }

    impl Outcomes {
        fn programs(&self) -> usize {
            self.solved + self.infeasible + self.other_err
        }
    }

    /// Tallies split by start: programs whose origin (every variable at its
    /// lower bound) is infeasible run phase 1, the others start feasible.
    #[derive(Debug, Default)]
    struct Tally {
        phase1: Outcomes,
        origin: Outcomes,
    }

    /// Whether the origin of `lp`'s shifted space, every variable at its
    /// lower bound, satisfies every row. It does exactly when every row
    /// that needs an artificial has rhs 0 in standard form, so the solver
    /// skips phase 1.
    fn origin_feasible(lp: &LinearProgram) -> bool {
        lp.is_feasible(&lp.lower, 0.0)
    }

    /// Solves `lp` both ways and compares the results.
    ///
    /// A program with an infeasible origin runs phase 1 exactly as the
    /// dense oracle does: identical result variants, `==` objective and
    /// values (±0.0 compare equal), and identical pivot counts. A program
    /// with a feasible origin skips phase 1 and may end on another optimal
    /// vertex of a degenerate program: it needs the same result variant, an
    /// objective within 1e-9 relative (absolute below 1), and a feasible
    /// point.
    fn assert_same(lp: &LinearProgram, direction: Direction, label: &str, tally: &mut Tally) {
        let (want, want_pivots) = dense_solve(lp, direction);
        let (got, got_pivots) = solve_counted(lp, direction);
        let exact = !origin_feasible(lp);
        let outcomes = if exact {
            assert_eq!(got_pivots, want_pivots, "{label}: pivot count");
            &mut tally.phase1
        } else {
            &mut tally.origin
        };
        outcomes.pivots += got_pivots;
        outcomes.oracle_pivots += want_pivots;
        match (&want, &got) {
            (Ok(w), Ok(g)) if exact => {
                assert!(
                    w.objective == g.objective,
                    "{label}: objective {} vs {}",
                    g.objective,
                    w.objective
                );
                assert_eq!(w.values.len(), g.values.len(), "{label}");
                for (i, (a, b)) in w.values.iter().zip(&g.values).enumerate() {
                    assert!(a == b, "{label}: value {i} is {b}, dense oracle {a}");
                }
                outcomes.solved += 1;
            }
            (Ok(w), Ok(g)) => {
                assert!(
                    (g.objective - w.objective).abs() <= 1e-9 * w.objective.abs().max(1.0),
                    "{label}: objective {} vs {}",
                    g.objective,
                    w.objective
                );
                assert!(lp.is_feasible(&g.values, 1e-7), "{label}: infeasible point");
                outcomes.solved += 1;
            }
            (Err(w), Err(g)) => {
                assert_eq!(w, g, "{label}: error variant");
                if *g == LpError::Infeasible {
                    outcomes.infeasible += 1;
                } else {
                    outcomes.other_err += 1;
                }
            }
            _ => panic!("{label}: compacted solver {got:?}, dense oracle {want:?}"),
        }
    }

    /// A multi-commodity flow program shaped like the routing formulation:
    /// a random connected graph of users and relays, per-request directed
    /// edge flows whose forbidden edges are pinned to zero width, `Eq`
    /// conservation rows, a `Le`/`Ge` noise pair, capacity rows, and a few
    /// rows with negative rhs and variables with nonzero lower bounds.
    fn routing_lp(seed: u64) -> LinearProgram {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes = rng.gen_range(5usize..15);
        let users = 2 + rng.gen_range(0usize..3);
        let is_server = |v: usize| v >= users && v.is_multiple_of(3);
        let mut fibers: Vec<(usize, usize)> =
            (1..nodes).map(|v| (rng.gen_range(0..v), v)).collect();
        for a in 0..nodes {
            for b in a + 1..nodes {
                if rng.gen_bool(0.2) && !fibers.contains(&(a, b)) {
                    fibers.push((a, b));
                }
            }
        }
        let noise: Vec<f64> = fibers.iter().map(|_| rng.gen_range(0.01..0.2)).collect();
        // Directed edge 2f runs a→b, 2f + 1 runs b→a.
        let tail = |de: usize| {
            if de.is_multiple_of(2) {
                fibers[de / 2].0
            } else {
                fibers[de / 2].1
            }
        };
        let head = |de: usize| {
            if de.is_multiple_of(2) {
                fibers[de / 2].1
            } else {
                fibers[de / 2].0
            }
        };
        let num_de = 2 * fibers.len();
        let dual = rng.gen_bool(0.6);
        let (n_core, m_support) = (rng.gen_range(1..5) as f64, rng.gen_range(2..9) as f64);
        let objective_jitter = rng.gen_bool(0.3);

        let mut lp = LinearProgram::new();
        let mut all_a: Vec<Vec<Variable>> = Vec::new();
        let mut all_b: Vec<Vec<Variable>> = Vec::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let src = rng.gen_range(0..users);
            let dst = (src + rng.gen_range(1..users)) % users;
            let codes = rng.gen_range(1..4) as f64;
            let obj = if objective_jitter {
                rng.gen_range(0.5..1.5)
            } else {
                1.0
            };
            let y_lower = if rng.gen_bool(0.15) { 0.25 } else { 0.0 };
            let y = lp.add_var(obj, y_lower, codes);
            let usable = |de: usize| {
                (tail(de) == src || tail(de) >= users) && (head(de) == dst || head(de) >= users)
            };
            let flow_vars = |lp: &mut LinearProgram, rng: &mut SmallRng| -> Vec<Variable> {
                (0..num_de)
                    .map(|de| {
                        let open = usable(de) && !rng.gen_bool(0.1);
                        let ub = if open { f64::INFINITY } else { 0.0 };
                        lp.add_var(0.0, 0.0, ub)
                    })
                    .collect()
            };
            let a = if dual {
                flow_vars(&mut lp, &mut rng)
            } else {
                Vec::new()
            };
            let b = flow_vars(&mut lp, &mut rng);
            let servers: Vec<usize> = (users..nodes).filter(|&v| is_server(v)).collect();
            let x: Vec<Variable> = servers
                .iter()
                .map(|_| lp.add_var(0.0, 0.0, codes))
                .collect();

            let mut channels = vec![(&b, m_support)];
            if dual {
                channels.push((&a, n_core));
            }
            for &(flows, per_code) in &channels {
                let into = |v: usize| (0..num_de).filter(move |&de| head(de) == v);
                let out_of = |v: usize| (0..num_de).filter(move |&de| tail(de) == v);
                let mut terms: Vec<_> = into(dst).map(|de| (flows[de], 1.0)).collect();
                terms.push((y, -per_code));
                lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
                let mut terms: Vec<_> = out_of(src).map(|de| (flows[de], 1.0)).collect();
                terms.push((y, -per_code));
                lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
                for r in users..nodes {
                    let mut terms: Vec<_> = into(r).map(|de| (flows[de], 1.0)).collect();
                    terms.extend(out_of(r).map(|de| (flows[de], -1.0)));
                    lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
                }
                for (si, &r) in servers.iter().enumerate() {
                    let mut terms: Vec<_> = into(r).map(|de| (flows[de], 1.0)).collect();
                    terms.push((x[si], -per_code));
                    lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
                }
            }
            // Noise pair: 0 ≤ Σ μ·flow − ω Σ x ≤ W·Y.
            let mut terms: Vec<(Variable, f64)> = (0..num_de)
                .map(|de| (b[de], noise[de / 2] / m_support))
                .collect();
            terms.extend(x.iter().map(|&xv| (xv, -0.05)));
            let mut upper = terms.clone();
            upper.push((y, -rng.gen_range(0.05..0.5)));
            lp.add_constraint(&upper, ConstraintOp::Le, 0.0);
            lp.add_constraint(&terms, ConstraintOp::Ge, 0.0);
            // Negative rhs: `−Σ out(src) ≥ −cap` caps the source's flow.
            if rng.gen_bool(0.4) {
                let terms: Vec<_> = (0..num_de)
                    .filter(|&de| tail(de) == src)
                    .map(|de| (b[de], -1.0))
                    .collect();
                lp.add_constraint(&terms, ConstraintOp::Ge, -rng.gen_range(1.0..20.0));
            }
            // Negative rhs the other way: `−Y ≤ −0.1` demands some service.
            if rng.gen_bool(0.2) {
                lp.add_constraint(&[(y, -1.0)], ConstraintOp::Le, -0.1);
            }
            // A vacuous infinite-rhs row now and then.
            if rng.gen_bool(0.1) {
                lp.add_constraint(&[(y, 1.0)], ConstraintOp::Le, f64::INFINITY);
            }
            all_a.push(a);
            all_b.push(b);
        }
        // Capacities couple the requests.
        for r in users..nodes {
            let mut terms: Vec<(Variable, f64)> = Vec::new();
            for (a, b) in all_a.iter().zip(&all_b) {
                for de in (0..num_de).filter(|&de| head(de) == r) {
                    if dual {
                        terms.push((a[de], 1.0));
                    }
                    terms.push((b[de], 1.0));
                }
            }
            lp.add_constraint(&terms, ConstraintOp::Le, rng.gen_range(2..30) as f64);
        }
        if dual {
            for f in 0..fibers.len() {
                let terms: Vec<_> = all_a
                    .iter()
                    .flat_map(|a| [(a[2 * f], 1.0), (a[2 * f + 1], 1.0)])
                    .collect();
                lp.add_constraint(&terms, ConstraintOp::Le, rng.gen_range(1..8) as f64);
            }
        }
        lp
    }

    /// An unstructured sparse program: fixed, lower-shifted and free-above
    /// variables; `Le`/`Ge`/`Eq` rows with rhs of either sign. Many are
    /// infeasible or unbounded, which exercises the error paths.
    fn general_lp(seed: u64) -> LinearProgram {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new();
        let n = rng.gen_range(1usize..9);
        for _ in 0..n {
            let obj = rng.gen_range(-5.0..5.0);
            let lower = if rng.gen_bool(0.3) {
                rng.gen_range(-3.0..3.0)
            } else {
                0.0
            };
            let upper = match rng.gen_range(0..4) {
                0 => lower,
                1 => f64::INFINITY,
                _ => lower + rng.gen_range(0.5..10.0),
            };
            lp.add_var(obj, lower, upper);
        }
        let vars: Vec<Variable> = (0..n).map(Variable).collect();
        for _ in 0..rng.gen_range(0usize..7) {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.6) {
                    terms.push((v, rng.gen_range(-4.0..4.0)));
                }
            }
            let op = match rng.gen_range(0..3) {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            lp.add_constraint(&terms, op, rng.gen_range(-8.0..8.0));
        }
        lp
    }

    #[test]
    fn compacted_solver_matches_dense_oracle_on_routing_programs() {
        let mut tally = Tally::default();
        for seed in 0..300 {
            let lp = routing_lp(seed);
            assert_same(
                &lp,
                Direction::Maximize,
                &format!("routing seed {seed}"),
                &mut tally,
            );
            if seed % 4 == 0 {
                let label = format!("routing seed {seed} (min)");
                assert_same(&lp, Direction::Minimize, &label, &mut tally);
            }
        }
        let (phase1, origin) = (&tally.phase1, &tally.origin);
        assert!(
            phase1.programs() >= 150 && origin.programs() >= 150,
            "{tally:?}"
        );
        assert!(phase1.solved >= 100 && phase1.infeasible >= 5, "{tally:?}");
        assert!(origin.solved >= 150, "{tally:?}");
        assert!(phase1.pivots + origin.pivots >= 300 * 30, "{tally:?}");
        // Skipping phase 1 is the point of the feasible-origin start.
        assert!(2 * origin.pivots < origin.oracle_pivots, "{tally:?}");
    }

    #[test]
    fn compacted_solver_matches_dense_oracle_on_general_programs() {
        let mut tally = Tally::default();
        for seed in 0..600 {
            let lp = general_lp(seed);
            for direction in [Direction::Maximize, Direction::Minimize] {
                let label = format!("general seed {seed} {direction:?}");
                assert_same(&lp, direction, &label, &mut tally);
            }
        }
        let (phase1, origin) = (&tally.phase1, &tally.origin);
        assert!(
            phase1.programs() >= 150 && origin.programs() >= 150,
            "{tally:?}"
        );
        assert!(phase1.solved >= 170, "{tally:?}");
        assert!(
            phase1.infeasible >= 50 && phase1.other_err >= 50,
            "{tally:?}"
        );
        assert!(origin.solved >= 130 && origin.other_err >= 50, "{tally:?}");
    }

    #[test]
    fn fixed_columns_cost_no_pivots() {
        // The same program with and without a block of pinned variables in
        // every row pivots identically: pinned columns never enter.
        let build = |pinned: usize| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0, 0.0, 4.0);
            let y = lp.add_var(2.0, 0.0, f64::INFINITY);
            let fixed: Vec<_> = (0..pinned)
                .map(|k| lp.add_var(3.0, k as f64, k as f64))
                .collect();
            let with_fixed = |mut terms: Vec<(Variable, f64)>| {
                terms.extend(fixed.iter().map(|&f| (f, 1.0)));
                terms
            };
            let shift: f64 = (0..pinned).map(|k| k as f64).sum();
            lp.add_constraint(
                &with_fixed(vec![(x, 1.0), (y, 1.0)]),
                ConstraintOp::Le,
                5.0 + shift,
            );
            lp.add_constraint(
                &with_fixed(vec![(x, 1.0), (y, -1.0)]),
                ConstraintOp::Ge,
                -1.0 + shift,
            );
            lp
        };
        let (plain, plain_pivots) = solve_counted(&build(0), Direction::Maximize);
        let (pinned, pinned_pivots) = solve_counted(&build(6), Direction::Maximize);
        let (plain, pinned) = (plain.unwrap(), pinned.unwrap());
        assert_eq!(plain_pivots, pinned_pivots);
        assert!(plain_pivots > 0);
        assert_eq!(plain.values[..2], pinned.values[..2]);
        assert_eq!(pinned.values[2..], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut tally = Tally::default();
        assert_same(&build(6), Direction::Maximize, "pinned", &mut tally);
    }
}
