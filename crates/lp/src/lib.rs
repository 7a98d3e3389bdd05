//! A simplex linear-programming solver.
//!
//! The SurfNet routing protocol (paper Sec. V-A) is an integer program
//! maximizing network throughput under capacity, entanglement and noise
//! constraints; the paper's evaluation solves its LP relaxation with
//! rounding. No LP solver crate is available offline, so this crate
//! provides one from scratch: a bounded-variable builder
//! ([`LinearProgram`]) and a tableau simplex ([`simplex`]) with a
//! Bland-rule fallback against cycling.
//!
//! A program whose origin is feasible (every routing LP) starts phase 2 at
//! once, with its artificial variables pinned at 0; only programs with an
//! infeasible origin run phase 1. The tableau drops fixed
//! (`lower == upper`) columns — the forbidden edge flows that make up most
//! of a routing formulation — and is stored as one flat row-major buffer.
//! Each pivot updates only the pivot row's nonzero columns, in rows whose
//! entering-column entry is nonzero. The crate's tests keep the plain
//! dense two-phase tableau as a differential oracle: two-phase solves
//! match it bit for bit, pivot count included, and feasible-origin solves
//! match its objective.
//!
//! # Examples
//!
//! ```
//! use surfnet_lp::{ConstraintOp, LinearProgram};
//!
//! // maximize 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
//! let mut lp = LinearProgram::new();
//! let x = lp.add_var(3.0, 0.0, f64::INFINITY);
//! let y = lp.add_var(5.0, 0.0, f64::INFINITY);
//! lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
//! lp.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
//! let solution = lp.maximize()?;
//! assert!((solution.objective - 36.0).abs() < 1e-7);
//! # Ok::<(), surfnet_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
#[cfg(test)]
mod dense;
pub mod problem;
pub mod simplex;

pub use problem::{ConstraintOp, Direction, LinearProgram, Variable};

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// An optimal solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Objective value at the optimum.
    pub objective: f64,
    /// One value per variable, in creation order.
    pub values: Vec<f64>,
}

impl Solution {
    /// The value of `var` in this solution.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to the solved program.
    pub fn value(&self, var: Variable) -> f64 {
        self.values[var.index()]
    }
}

/// Errors from LP solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LpError {
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The pivot budget was exhausted (numerically degenerate input).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl Error for LpError {}
