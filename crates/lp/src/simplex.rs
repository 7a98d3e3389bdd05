//! Dense-tableau simplex with a feasible start, compacted columns and
//! support-only pivots.
//!
//! The solver converts the bounded-variable program to standard form
//! (shifted variables `y = x - l`, slack/surplus columns, upper bounds as
//! extra rows, every row's rhs made non-negative) and gives each `=` and
//! `≥` row an artificial basic variable. Pivoting uses Dantzig's rule with
//! a Bland fallback after a configurable number of iterations so
//! degenerate routing programs cannot cycle.
//!
//! **Where the solve starts.** When every artificial row has rhs exactly
//! 0, the origin `y = 0` is feasible; every routing LP is such a program
//! (all its `=` and `≥` rows have rhs 0, all its `≤` rows rhs ≥ 0). Then
//! phase 1 is skipped: the artificials stay basic at level 0, *pinned* to
//! `[0, 0]`, and their columns are retired at once. Phase 2 starts on the
//! true objective, and its ratio test treats any basic artificial whose
//! entering-column entry is nonzero (|a| > EPS, either sign) as a step-0
//! leaving row that goes before every ordinary row: largest |a| first, or
//! the lowest basis index once Bland's rule is on. A retired artificial
//! never re-enters, so these pivots cannot take part in a cycle. This is
//! the bounded-artificial start; on fig7 it removes about a third of all
//! pivots. Programs whose origin is infeasible run phase 1 (minimize the
//! sum of artificials), drive zero-level artificials out of the basis, and
//! then run phase 2, pivot for pivot as the dense oracle in the tests.
//!
//! Three things keep a pivot cheap without changing a single pivot choice:
//!
//! * **Fixed columns are compacted away.** A variable with `upper == lower`
//!   (routing formulations pin the flows of forbidden edges this way) has an
//!   all-zero column and zero cost, so it can never enter the basis. It gets
//!   no tableau column at all; a monotone column map keeps the remaining
//!   columns in their original order, so Dantzig ties and Bland's
//!   lowest-index choices resolve exactly as on the full tableau.
//! * **The tableau is one row-major `Vec<f64>`**, rhs in the last column,
//!   recycled across solves.
//! * **A pivot touches only the pivot row's and entering column's
//!   support.** The entering column's nonzero rows are gathered once per
//!   iteration (the ratio test reads only them), and the normalized pivot
//!   row's nonzero columns once per pivot; each of those rows, and the cost
//!   row, is updated on those columns only. Rows whose entering-column
//!   entry is zero are left alone, as the dense update leaves them. Tableau
//!   entries are finite (the builder rejects NaN and infinite coefficients,
//!   and infinite-rhs rows never enter the tableau), so the skipped updates
//!   `x - f·0.0` would have left `x` unchanged: the arithmetic matches the
//!   dense update cell for cell, up to the sign of zeros.
//!
//! Once retired (after phase 1, or from the start when pinned) the
//! artificial columns are never scanned or updated again: phase 2 works
//! only on the structural and slack columns in front of them.

use crate::problem::{ConstraintOp, Direction, LinearProgram};
use crate::{LpError, Solution};
use std::sync::{Mutex, MutexGuard, PoisonError};

const EPS: f64 = 1e-9;
/// Feasibility slack granted per ratio-test candidate: a leaving-row choice
/// may push another basic value below zero by at most this much per pivot.
const RATIO_TOL: f64 = 1e-10;

/// Solves `lp` in the given direction.
///
/// # Errors
///
/// [`LpError::Infeasible`], [`LpError::Unbounded`], or
/// [`LpError::IterationLimit`] if the pivot budget is exhausted.
pub fn solve(lp: &LinearProgram, direction: Direction) -> Result<Solution, LpError> {
    let _span = surfnet_telemetry::span!("lp.solve");
    let _stage = surfnet_telemetry::stage::scope(surfnet_telemetry::stage::Stage::Lp);
    surfnet_telemetry::count!("lp.solves");
    solve_counted(lp, direction).0
}

/// [`solve`] without the telemetry scopes, also returning the number of
/// pivots performed (the per-solve share of the `lp.pivots` counter).
pub(crate) fn solve_counted(
    lp: &LinearProgram,
    direction: Direction,
) -> (Result<Solution, LpError>, usize) {
    let n = lp.num_vars();
    if n == 0 {
        let empty = Solution {
            objective: 0.0,
            values: Vec::new(),
        };
        return (Ok(empty), 0);
    }
    let mut t = match Tableau::build(lp) {
        Ok(t) => t,
        Err(e) => return (Err(e), 0),
    };
    let result = t.optimize(lp, direction);
    (result, t.pivots)
}

/// The standard-form tableau of one solve.
///
/// Columns: `[structural (non-fixed variables)] [slack/surplus]
/// [artificials] [rhs]`. Rows: every original constraint with a finite
/// rhs, then one `y_i ≤ u_i - l_i` row per non-fixed variable with a finite
/// upper bound.
struct Tableau {
    /// `rows × width` cells, row-major.
    cells: Vec<f64>,
    /// Columns per row, rhs included.
    width: usize,
    rows: usize,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Tableau column of each variable; `None` for fixed variables.
    col_of: Vec<Option<usize>>,
    /// First artificial column; artificials occupy `art_start..rhs`.
    art_start: usize,
    /// Columns `active..rhs` are never scanned or updated (the artificials
    /// once they are retired: after phase 1, or from the start when they
    /// are pinned).
    active: usize,
    /// Whether the basic artificials are pinned to `[0, 0]`: the origin was
    /// feasible, so phase 1 was skipped and any artificial the entering
    /// column touches leaves the basis at step 0.
    pinned: bool,
    /// Pivot budget and Bland switch point, sized from the *uncompacted*
    /// column count so compaction cannot change when either triggers.
    max_iters: usize,
    bland_after: usize,
    /// Nonzero `(column, value)` entries of the normalized pivot row,
    /// reused across pivots.
    support: Vec<(usize, f64)>,
    /// The entering column chosen by [`Tableau::load_entering`] and its
    /// nonzero `(row, value)` entries in row order, reused across pivots.
    entering: usize,
    column: Vec<(usize, f64)>,
    pivots: usize,
}

/// Cell buffers of finished solves, reused by the next ones.
///
/// A routing tableau is one allocation of about a megabyte. Allocating and
/// freeing one per solve lets glibc's malloc raise its mmap threshold and
/// then strand freed tableaus in fragmented arena heaps: fig7's peak RSS
/// swung between 9 and 12 MB from run to run. Recycled buffers hold it at
/// 6–7 MB. The pool keeps at most one buffer per concurrently solving
/// thread, each as large as the largest tableau that thread has built.
fn spare_cells() -> MutexGuard<'static, Vec<Vec<f64>>> {
    static SPARE: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    // A poisoned pool still holds valid (if stale) buffers.
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Drop for Tableau {
    fn drop(&mut self) {
        spare_cells().push(std::mem::take(&mut self.cells));
    }
}

/// Where a tableau row comes from.
enum RowSource<'a> {
    /// An original constraint's terms.
    Terms(&'a [(usize, f64)]),
    /// A `y_i ≤ u_i - l_i` bound row, by the bounded variable's column.
    Bound(usize),
}

impl Tableau {
    /// Lays out the standard-form tableau of `lp`.
    ///
    /// A constraint whose shifted rhs is infinite never enters the tableau:
    /// one that reads `… ≤ +∞` after normalization can never bind (its slack
    /// stays basic and its row is never chosen by the ratio test), and any
    /// other (`≥ +∞`, `= ±∞`) is unsatisfiable.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] for an unsatisfiable infinite-rhs constraint.
    fn build(lp: &LinearProgram) -> Result<Tableau, LpError> {
        let n = lp.num_vars();
        // Shifted variables y = x - l ≥ 0. Variables with a zero-width
        // range are fixed and get no column.
        let mut col_of = Vec::with_capacity(n);
        let mut structural = 0usize;
        for i in 0..n {
            if lp.upper[i] - lp.lower[i] <= 0.0 {
                col_of.push(None);
            } else {
                col_of.push(Some(structural));
                structural += 1;
            }
        }

        // Every row with its shifted rhs and operator, normalized to a
        // non-negative rhs (negating the row flips `≤` and `≥`).
        let mut specs: Vec<(RowSource<'_>, f64, ConstraintOp)> =
            Vec::with_capacity(lp.num_constraints());
        let mut vacuous = 0usize;
        for c in &lp.constraints {
            let mut shift = 0.0;
            for &(i, co) in &c.terms {
                shift += co * lp.lower[i];
            }
            let rhs = c.rhs - shift;
            let op = match (c.op, rhs < 0.0) {
                (ConstraintOp::Le, true) => ConstraintOp::Ge,
                (ConstraintOp::Ge, true) => ConstraintOp::Le,
                (op, _) => op,
            };
            if rhs.is_infinite() {
                if op != ConstraintOp::Le {
                    return Err(LpError::Infeasible);
                }
                vacuous += 1;
                continue;
            }
            specs.push((RowSource::Terms(&c.terms), rhs, op));
        }
        for i in 0..n {
            if let (Some(j), true) = (col_of[i], lp.upper[i].is_finite()) {
                let range = lp.upper[i] - lp.lower[i];
                specs.push((RowSource::Bound(j), range, ConstraintOp::Le));
            }
        }

        let rows = specs.len();
        let num_slack = specs.iter().filter(|s| s.2 != ConstraintOp::Eq).count();
        let num_art = specs.iter().filter(|s| s.2 != ConstraintOp::Le).count();
        let art_start = structural + num_slack;
        let rhs_col = art_start + num_art;
        let width = rhs_col + 1;

        let mut cells = spare_cells().pop().unwrap_or_default();
        cells.clear();
        cells.resize(rows * width, 0.0);
        let mut basis = vec![0usize; rows];
        let mut next_slack = structural;
        let mut next_art = art_start;
        for ((source, rhs, op), (row, b)) in specs
            .iter()
            .zip(cells.chunks_exact_mut(width).zip(basis.iter_mut()))
        {
            match *source {
                RowSource::Terms(terms) => {
                    for &(i, co) in terms {
                        if let Some(j) = col_of[i] {
                            row[j] += co;
                        }
                    }
                }
                RowSource::Bound(j) => row[j] = 1.0,
            }
            if *rhs < 0.0 {
                for c in &mut row[..structural] {
                    *c = -*c;
                }
                row[rhs_col] = -*rhs;
            } else {
                row[rhs_col] = *rhs;
            }
            match op {
                ConstraintOp::Le => {
                    row[next_slack] = 1.0;
                    *b = next_slack;
                    next_slack += 1;
                }
                ConstraintOp::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    *b = next_art;
                    next_art += 1;
                }
                ConstraintOp::Eq => {
                    row[next_art] = 1.0;
                    *b = next_art;
                    next_art += 1;
                }
            }
        }

        // Budgets count every column and row of the uncompacted tableau:
        // fixed columns, and the vacuous rows with their slacks.
        let full = (rows + vacuous) + (n + num_slack + vacuous + num_art);
        Ok(Tableau {
            cells,
            width,
            rows,
            basis,
            col_of,
            art_start,
            active: rhs_col,
            pinned: false,
            max_iters: 200 * full + 1000,
            bland_after: 20 * full + 200,
            support: Vec::new(),
            entering: 0,
            column: Vec::new(),
            pivots: 0,
        })
    }

    fn rhs_col(&self) -> usize {
        self.width - 1
    }

    fn row(&self, ri: usize) -> &[f64] {
        &self.cells[ri * self.width..(ri + 1) * self.width]
    }

    fn is_art(&self, col: usize) -> bool {
        col >= self.art_start && col < self.rhs_col()
    }

    /// `SURFNET_CHECK`: every basic value (the rhs column) is feasible.
    fn check_feasible(&self, stage: &str) {
        if crate::check::enabled() {
            let rhs_col = self.rhs_col();
            let values = self.cells.chunks_exact(self.width).map(|r| r[rhs_col]);
            crate::check::assert_ok(crate::check::check_primal_feasible(values), stage);
        }
    }

    /// `SURFNET_CHECK`: every pinned artificial still in the basis sits at
    /// exactly 0. It leaves the basis whenever the entering column touches
    /// it, so no pivot may move its value.
    fn check_pinned(&self) {
        if self.pinned && crate::check::enabled() {
            let rhs_col = self.rhs_col();
            let values = (0..self.rows)
                .filter(|&ri| self.is_art(self.basis[ri]))
                .map(|ri| (ri, self.row(ri)[rhs_col]));
            crate::check::assert_ok(
                crate::check::check_pinned_at_zero(values),
                "pinned artificial",
            );
        }
    }

    /// Subtracts `factor ×` row `ri` from `cost` over the active columns
    /// and the rhs.
    fn price_out(&self, cost: &mut [f64], ri: usize, factor: f64) {
        let rhs_col = self.rhs_col();
        let row = self.row(ri);
        for (c, &t) in cost[..self.active].iter_mut().zip(&row[..self.active]) {
            *c -= factor * t;
        }
        cost[rhs_col] -= factor * row[rhs_col];
    }

    fn optimize(&mut self, lp: &LinearProgram, direction: Direction) -> Result<Solution, LpError> {
        let rhs_col = self.rhs_col();
        // An artificial row with rhs 0 holds at the origin. When every
        // artificial row does, the origin is a basic feasible point: the
        // artificials stay basic at level 0, pinned to [0, 0], and phase 2
        // starts at once.
        if (0..self.rows).all(|ri| !self.is_art(self.basis[ri]) || self.row(ri)[rhs_col] == 0.0) {
            self.pinned = true;
            self.active = self.art_start;
        } else {
            // Phase 1: minimize the sum of artificials.
            surfnet_telemetry::count!("lp.phase1_solves");
            let mut cost = vec![0.0; self.width];
            for c in &mut cost[self.art_start..rhs_col] {
                *c = 1.0;
            }
            // Price out the basic artificials.
            for ri in 0..self.rows {
                if self.is_art(self.basis[ri]) {
                    self.price_out(&mut cost, ri, 1.0);
                }
            }
            self.run_simplex(&mut cost)?;
            let phase1_obj = -cost[rhs_col];
            if phase1_obj > 1e-6 {
                return Err(LpError::Infeasible);
            }
            // Pivot remaining artificials out of the basis (degenerate rows).
            for ri in 0..self.rows {
                if self.is_art(self.basis[ri]) {
                    let row = self.row(ri);
                    match (0..self.art_start).find(|&j| row[j].abs() > EPS) {
                        Some(j) => {
                            self.load_entering(j);
                            self.pivot(ri);
                        }
                        None => {
                            // Redundant row: zero it (keeps indices stable).
                            let w = self.width;
                            self.cells[ri * w..(ri + 1) * w].fill(0.0);
                        }
                    }
                }
            }
            // Retire the artificials: phase 2 never looks at their columns.
            self.active = self.art_start;

            // SURFNET_CHECK: driving artificials out of a degenerate basis
            // pivots on ~zero rhs rows and must not lose feasibility.
            self.check_feasible("phase-1 artificial cleanup");
        }

        // Phase 2: the true objective. Internally minimize; maximization
        // negates the cost vector.
        let sign = match direction {
            Direction::Maximize => -1.0,
            Direction::Minimize => 1.0,
        };
        let mut cost = vec![0.0; self.width];
        for (i, col) in self.col_of.iter().enumerate() {
            if let Some(j) = *col {
                cost[j] = sign * lp.objective[i];
            }
        }
        for ri in 0..self.rows {
            let c = cost[self.basis[ri]];
            if c.abs() > 0.0 {
                self.price_out(&mut cost, ri, c);
            }
        }
        self.run_simplex(&mut cost)?;

        // Extract the solution.
        let mut y = vec![0.0; rhs_col];
        for ri in 0..self.rows {
            y[self.basis[ri]] = self.row(ri)[rhs_col];
        }
        let values: Vec<f64> = self
            .col_of
            .iter()
            .enumerate()
            .map(|(i, col)| lp.lower[i] + col.map_or(0.0, |j| y[j]))
            .collect();
        Ok(Solution {
            objective: lp.objective_value(&values),
            values,
        })
    }

    /// Runs simplex iterations until optimality.
    ///
    /// `cost` is the current reduced-cost row for a *minimization*; entry
    /// `cost[rhs]` tracks the negated objective value.
    fn run_simplex(&mut self, cost: &mut [f64]) -> Result<(), LpError> {
        let rhs_col = self.rhs_col();
        let w = self.width;
        for iter in 0..self.max_iters {
            surfnet_telemetry::count!("lp.iterations");
            let use_bland = iter >= self.bland_after;
            // Entering column: most negative reduced cost (Dantzig) or first
            // negative (Bland).
            let mut enter = usize::MAX;
            let mut best = -EPS;
            for (j, &c) in cost[..self.active].iter().enumerate() {
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
            self.load_entering(enter);
            // Among leaving-row candidates: largest pivot element for
            // numerical stability (Dantzig phase) or lowest basis index
            // (Bland anti-cycling phase).
            let basis = &self.basis;
            let pick = |leave: &mut usize, best_a: &mut f64, ri: usize, a: f64| {
                let better = if use_bland {
                    *leave == usize::MAX || basis[ri] < basis[*leave]
                } else {
                    a > *best_a
                };
                if better {
                    *best_a = a;
                    *leave = ri;
                }
            };
            let mut leave = usize::MAX;
            let mut best_a = 0.0;
            // A pinned artificial the entering column touches, with either
            // sign, would leave [0, 0] on any step: it leaves the basis at
            // step 0, before any ordinary row. Retired, it never re-enters,
            // so these pivots cannot take part in a cycle.
            if self.pinned {
                for &(ri, a) in &self.column {
                    if a.abs() > EPS && basis[ri] >= self.art_start {
                        pick(&mut leave, &mut best_a, ri, a.abs());
                    }
                }
            }
            // Otherwise the ratio test, Harris-style two-pass. Comparing raw
            // ratios with an absolute tolerance is scale-blind: when the
            // entering column holds entries of ~1e15, two ratios 1e-14 apart
            // look "tied" yet pivoting on the looser one moves other rows' rhs
            // by tens. Pass 1 finds the tightest step bound with a small
            // *feasibility* tolerance on the rhs; pass 2 picks among the rows
            // whose ratio fits inside that bound, so any choice degrades
            // feasibility by at most RATIO_TOL.
            if leave == usize::MAX {
                let mut t_limit = f64::INFINITY;
                for &(ri, a) in &self.column {
                    if a > EPS {
                        let bound = (self.cells[ri * w + rhs_col].max(0.0) + RATIO_TOL) / a;
                        if bound < t_limit {
                            t_limit = bound;
                        }
                    }
                }
                if t_limit.is_infinite() {
                    return Err(LpError::Unbounded);
                }
                for &(ri, a) in &self.column {
                    if a > EPS && self.cells[ri * w + rhs_col] / a <= t_limit {
                        pick(&mut leave, &mut best_a, ri, a);
                    }
                }
            }
            // The bound-setting row itself always qualifies (rhs/a ≤
            // (rhs.max(0)+tol)/a), so a candidate is guaranteed to exist.
            debug_assert!(leave != usize::MAX, "ratio test found no leaving row");
            self.pivot(leave);
            let factor = cost[enter];
            if factor.abs() > 0.0 {
                for &(j, v) in &self.support {
                    cost[j] -= factor * v;
                }
                cost[enter] = 0.0;
            }

            // SURFNET_CHECK: the ratio test exists to keep the basis primal-
            // feasible — verify after every pivot.
            self.check_feasible("simplex pivot");
            self.check_pinned();
        }
        Err(LpError::IterationLimit)
    }

    /// Chooses column `enter` to enter the basis next and gathers its
    /// nonzero entries: the ratio test reads only those rows, and the pivot
    /// updates only those rows.
    fn load_entering(&mut self, enter: usize) {
        self.entering = enter;
        self.column.clear();
        for (ri, row) in self.cells.chunks_exact(self.width).enumerate() {
            if row[enter] != 0.0 {
                self.column.push((ri, row[enter]));
            }
        }
    }

    /// Pivots the column chosen by [`Tableau::load_entering`] into the
    /// basis at row `leave`, leaving the normalized pivot row's support
    /// (entering column excluded) in `self.support` for the caller's
    /// cost-row update.
    fn pivot(&mut self, leave: usize) {
        surfnet_telemetry::count!("lp.pivots");
        self.pivots += 1;
        let enter = self.entering;
        let w = self.width;
        let rhs_col = self.rhs_col();
        let active = self.active;
        let pivot_row = &mut self.cells[leave * w..(leave + 1) * w];
        let p = pivot_row[enter];
        debug_assert!(p.abs() > EPS, "pivot on near-zero element");
        let inv = 1.0 / p;
        self.support.clear();
        pivot_row[enter] = 0.0;
        for (j, v) in pivot_row[..active].iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                self.support.push((j, *v));
            }
        }
        if pivot_row[rhs_col] != 0.0 {
            pivot_row[rhs_col] *= inv;
            self.support.push((rhs_col, pivot_row[rhs_col]));
        }
        pivot_row[enter] = 1.0;
        for &(ri, f) in &self.column {
            if ri != leave && f.abs() > 0.0 {
                // A pinned artificial whose entry the ratio test reads as
                // zero (|f| ≤ EPS) did not leave; its value stays at its
                // bound instead of drifting by round-off.
                let hold = self.pinned && f.abs() <= EPS && self.basis[ri] >= self.art_start;
                let row = &mut self.cells[ri * w..(ri + 1) * w];
                let rhs = row[rhs_col];
                for &(j, v) in &self.support {
                    row[j] -= f * v;
                }
                row[enter] = 0.0;
                if hold {
                    row[rhs_col] = rhs;
                }
            }
        }
        self.basis[leave] = enter;
    }
}

#[cfg(test)]
mod tests {
    use crate::{ConstraintOp, LinearProgram, LpError};

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(3.0, 0.0, f64::INFINITY);
        let y = lp.add_var(5.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let s = lp.maximize().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-7);
        assert!((s.values[0] - 2.0).abs() < 1e-7);
        assert!((s.values[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + 2y = 4, x ≥ 1 → (1, 1.5), z = 2.5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        let y = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        let s = lp.minimize().unwrap();
        assert!(
            (s.objective - 2.5).abs() < 1e-7,
            "objective {}",
            s.objective
        );
        assert!((s.values[0] - 1.0).abs() < 1e-7);
        assert!((s.values[1] - 1.5).abs() < 1e-7);
    }

    #[test]
    fn variable_bounds_respected() {
        // max x + y with x ∈ [0, 2], y ∈ [1, 3], x + y ≤ 4 → (2, 2) or
        // (1, 3): objective 4 either way... x+y ≤ 4 binds: z = 4.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 2.0);
        let y = lp.add_var(1.0, 1.0, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let s = lp.maximize().unwrap();
        assert!((s.objective - 4.0).abs() < 1e-7);
        assert!(lp.is_feasible(&s.values, 1e-7));
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x with x ≥ 2 via bounds only.
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(1.0, 2.0, f64::INFINITY);
        let s = lp.minimize().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y with x ∈ [-5, 5], y ∈ [-1, ∞), x + y ≥ -3 → (-5, 2)?
        // x+y ≥ -3 with both minimized: x = -5 forces y ≥ 2... wait
        // y ≥ -1 and x + y ≥ -3 → y ≥ -3 - x. At x=-5, y ≥ 2: cost -3.
        // At x=-2, y=-1: cost -3. Optimum is -3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, -5.0, 5.0);
        let y = lp.add_var(1.0, -1.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, -3.0);
        let s = lp.minimize().unwrap();
        assert!(
            (s.objective + 3.0).abs() < 1e-7,
            "objective {}",
            s.objective
        );
        assert!(lp.is_feasible(&s.values, 1e-7));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(lp.maximize().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(1.0, 0.0, f64::INFINITY);
        assert_eq!(lp.maximize().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bounded_by_variable_bounds_not_unbounded() {
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(1.0, 0.0, 7.5);
        let s = lp.maximize().unwrap();
        assert!((s.objective - 7.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_program_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        let y = lp.add_var(1.0, 0.0, f64::INFINITY);
        for _ in 0..5 {
            lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
        }
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(y, 1.0)], ConstraintOp::Le, 1.0);
        let s = lp.maximize().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y = 2 stated twice plus x - y = 0 → x = y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        let y = lp.add_var(2.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0);
        let s = lp.maximize().unwrap();
        assert!((s.values[0] - 1.0).abs() < 1e-7);
        assert!((s.values[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn empty_program_is_trivial() {
        let lp = LinearProgram::new();
        let s = lp.maximize().unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // -x ≤ -2  ⟺  x ≥ 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0);
        lp.add_constraint(&[(x, -1.0)], ConstraintOp::Le, -2.0);
        let s = lp.minimize().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn infinite_rhs_rows_never_bind() {
        // x ≤ +∞ and x + y ≥ −∞ are vacuous; the bounds decide.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0, 1.0, 5.0);
        let y = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Ge, f64::NEG_INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        let s = lp.maximize().unwrap();
        assert_eq!(s.values, vec![5.0, 2.0]);
        assert_eq!(s.objective, 12.0);
        // Without the finite row, only the infinite upper bound on y is left.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, f64::INFINITY);
        assert_eq!(lp.maximize().unwrap_err(), LpError::Unbounded);
        assert_eq!(lp.minimize().unwrap().values, vec![0.0]);
    }

    #[test]
    fn unsatisfiable_infinite_rhs_rows_are_infeasible() {
        let cases = [
            (ConstraintOp::Ge, f64::INFINITY),
            (ConstraintOp::Le, f64::NEG_INFINITY),
            (ConstraintOp::Eq, f64::INFINITY),
            (ConstraintOp::Eq, f64::NEG_INFINITY),
        ];
        for (op, rhs) in cases {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(1.0, 0.0, f64::INFINITY);
            lp.add_constraint(&[(x, 1.0)], op, rhs);
            assert_eq!(
                lp.maximize().unwrap_err(),
                LpError::Infeasible,
                "{op:?} {rhs}"
            );
            assert_eq!(
                lp.minimize().unwrap_err(),
                LpError::Infeasible,
                "{op:?} {rhs}"
            );
        }
    }

    #[test]
    fn infinite_upper_bounds_add_no_rows() {
        // Only the finite upper bound of x gets a bound row; y is capped
        // by the constraint alone.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 3.0);
        let y = lp.add_var(1.0, -2.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 10.0);
        let s = lp.maximize().unwrap();
        assert!(
            (s.objective - 6.5).abs() < 1e-9,
            "objective {}",
            s.objective
        );
        assert!(lp.is_feasible(&s.values, 1e-9));
    }

    #[test]
    fn fixed_variables_keep_their_value_and_shift_rows() {
        // f is pinned at 2: x + f ≤ 5 leaves x ≤ 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        let f = lp.add_var(10.0, 2.0, 2.0);
        lp.add_constraint(&[(x, 1.0), (f, 1.0)], ConstraintOp::Le, 5.0);
        let s = lp.maximize().unwrap();
        assert_eq!(s.values, vec![3.0, 2.0]);
        assert_eq!(s.objective, 23.0);
    }

    #[test]
    fn small_network_flow() {
        // Max flow 0→2 on: cap(0→1)=3, cap(1→2)=2, cap(0→2)=2 → 4.
        let mut lp = LinearProgram::new();
        let f01 = lp.add_var(0.0, 0.0, 3.0);
        let f12 = lp.add_var(0.0, 0.0, 2.0);
        let f02 = lp.add_var(1.0, 0.0, 2.0); // objective counts arrivals
        let _ = f02;
        // Conservation at node 1: f01 = f12.
        lp.add_constraint(&[(f01, 1.0), (f12, -1.0)], ConstraintOp::Eq, 0.0);
        // Objective: maximize f12 + f02; encode by giving both weight 1.
        let mut lp2 = LinearProgram::new();
        let f01 = lp2.add_var(0.0, 0.0, 3.0);
        let f12 = lp2.add_var(1.0, 0.0, 2.0);
        let f02 = lp2.add_var(1.0, 0.0, 2.0);
        lp2.add_constraint(&[(f01, 1.0), (f12, -1.0)], ConstraintOp::Eq, 0.0);
        let s = lp2.maximize().unwrap();
        assert!((s.objective - 4.0).abs() < 1e-7);
        let _ = f02;
    }
}
