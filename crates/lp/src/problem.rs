//! Linear program construction.
//!
//! The SurfNet routing protocol (paper Sec. V-A, Eqs. 1–6) is an integer
//! program that the evaluation relaxes to a linear program with rounding.
//! [`LinearProgram`] is the builder: bounded variables, a linear objective,
//! and `≤ / ≥ / =` constraints. Solving happens in [`crate::simplex`].

use serde::{Deserialize, Serialize};

/// Handle to a variable of a [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Variable(pub(crate) usize);

impl Variable {
    /// The dense index of this variable in solutions.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `terms ≤ rhs`
    Le,
    /// `terms ≥ rhs`
    Ge,
    /// `terms = rhs`
    Eq,
}

/// One linear constraint: `Σ coeff·var  op  rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) rhs: f64,
}

/// The optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Maximize the objective (the routing protocol maximizes throughput).
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// A linear program over bounded continuous variables.
///
/// # Examples
///
/// ```
/// use surfnet_lp::{ConstraintOp, LinearProgram};
///
/// // maximize x + 2y  s.t.  x + y ≤ 4,  y ≤ 3,  x,y ≥ 0
/// let mut lp = LinearProgram::new();
/// let x = lp.add_var(1.0, 0.0, f64::INFINITY);
/// let y = lp.add_var(2.0, 0.0, 3.0);
/// lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
/// let sol = lp.maximize()?;
/// assert!((sol.objective - 7.0).abs() < 1e-9); // x=1, y=3
/// # Ok::<(), surfnet_lp::LpError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// An empty program.
    pub fn new() -> LinearProgram {
        LinearProgram::default()
    }

    /// Adds a variable with objective coefficient `obj` and bounds
    /// `[lower, upper]` (`upper` may be `f64::INFINITY`).
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not finite, `lower > upper`, or `obj` is NaN or
    /// infinite.
    pub fn add_var(&mut self, obj: f64, lower: f64, upper: f64) -> Variable {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(
            !upper.is_nan() && upper >= lower,
            "invalid bounds [{lower}, {upper}]"
        );
        assert!(!obj.is_nan(), "objective coefficient is NaN");
        assert!(obj.is_finite(), "objective coefficient is infinite");
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        Variable(self.objective.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint `Σ coeff·var  op  rhs`. Duplicate variables in
    /// `terms` are summed. The rhs may be infinite: `≤ +∞` and `≥ −∞` never
    /// bind, while `≥ +∞`, `≤ −∞` and `= ±∞` make the program infeasible.
    ///
    /// # Panics
    ///
    /// Panics if a variable handle does not belong to this program, the rhs
    /// is NaN, or a coefficient is NaN or infinite (the solver's exactness
    /// argument for skipping zero entries needs finite coefficients).
    pub fn add_constraint(&mut self, terms: &[(Variable, f64)], op: ConstraintOp, rhs: f64) {
        assert!(!rhs.is_nan(), "constraint rhs is NaN");
        for &(v, c) in terms {
            assert!(v.0 < self.num_vars(), "variable out of range");
            assert!(!c.is_nan(), "constraint coefficient is NaN");
            assert!(c.is_finite(), "constraint coefficient is infinite");
        }
        let mut sorted: Vec<usize> = terms.iter().map(|&(v, _)| v.0).collect();
        sorted.sort_unstable();
        let terms = if sorted.windows(2).any(|w| w[0] == w[1]) {
            merge_duplicates(terms)
        } else {
            terms.iter().map(|&(v, c)| (v.0, c)).collect()
        };
        self.constraints.push(Constraint { terms, op, rhs });
    }

    /// Evaluates the objective at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have one value per variable.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x` satisfies every bound and constraint within
    /// tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for i in 0..self.num_vars() {
            if x[i] < self.lower[i] - tol || x[i] > self.upper[i] + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, co)| co * x[i]).sum();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solves the program, maximizing the objective.
    ///
    /// # Errors
    ///
    /// [`crate::LpError::Infeasible`] when no point satisfies the
    /// constraints, [`crate::LpError::Unbounded`] when the objective can
    /// grow without limit.
    pub fn maximize(&self) -> Result<crate::Solution, crate::LpError> {
        crate::simplex::solve(self, Direction::Maximize)
    }

    /// Solves the program, minimizing the objective.
    ///
    /// # Errors
    ///
    /// Same as [`LinearProgram::maximize`].
    pub fn minimize(&self) -> Result<crate::Solution, crate::LpError> {
        crate::simplex::solve(self, Direction::Minimize)
    }
}

/// Sums the coefficients of repeated variables into the variable's first
/// occurrence, left to right. Linear in the term count per term, so
/// [`LinearProgram::add_constraint`] calls it only for rows that do repeat
/// a variable.
fn merge_duplicates(terms: &[(Variable, f64)]) -> Vec<(usize, f64)> {
    let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
    for &(v, c) in terms {
        if let Some(slot) = merged.iter_mut().find(|(i, _)| *i == v.0) {
            slot.1 += c;
        } else {
            merged.push((v.0, c));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 5.0);
        let y = lp.add_var(-1.0, -2.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        let y = lp.add_var(1.0, 0.0, f64::INFINITY);
        let z = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (x, 2.0)], ConstraintOp::Le, 3.0);
        assert_eq!(lp.constraints[0].terms, vec![(0, 3.0)]);
        // Non-adjacent and three-way duplicates land on the variable's first
        // occurrence, and the other terms keep their order.
        lp.add_constraint(
            &[(z, 1.0), (x, 2.0), (y, 4.0), (z, 8.0), (x, 16.0), (z, 32.0)],
            ConstraintOp::Le,
            0.0,
        );
        assert_eq!(
            lp.constraints[1].terms,
            vec![(2, 41.0), (0, 18.0), (1, 4.0)]
        );
        // Sums run left to right: (1 + 1e16) + -1e16 is 0, while the other
        // association would give 1.
        lp.add_constraint(
            &[(y, 1.0), (x, 5.0), (y, 1e16), (y, -1e16)],
            ConstraintOp::Ge,
            0.0,
        );
        assert_eq!(lp.constraints[2].terms, vec![(1, 0.0), (0, 5.0)]);
        // Rows without duplicates keep their terms as given.
        lp.add_constraint(&[(z, 3.0), (x, -1.0), (y, 2.0)], ConstraintOp::Eq, 1.0);
        assert_eq!(lp.constraints[3].terms, vec![(2, 3.0), (0, -1.0), (1, 2.0)]);
    }

    #[test]
    fn feasibility_checks_bounds_and_constraints() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 2.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        assert!(lp.is_feasible(&[1.5], 1e-9));
        assert!(!lp.is_feasible(&[0.5], 1e-9));
        assert!(!lp.is_feasible(&[2.5], 1e-9));
        assert!(!lp.is_feasible(&[], 1e-9));
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn rejects_crossed_bounds() {
        LinearProgram::new().add_var(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "constraint coefficient is infinite")]
    fn rejects_infinite_constraint_coefficient() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, f64::INFINITY)], ConstraintOp::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "objective coefficient is infinite")]
    fn rejects_infinite_objective_coefficient() {
        LinearProgram::new().add_var(f64::NEG_INFINITY, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "constraint coefficient is NaN")]
    fn rejects_nan_constraint_coefficient() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 1.0);
        lp.add_constraint(&[(x, f64::NAN)], ConstraintOp::Le, 1.0);
    }
}
