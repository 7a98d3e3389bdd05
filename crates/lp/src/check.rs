//! `SURFNET_CHECK=1` runtime invariant checkers for the simplex solver.
//!
//! Once the solve holds a basic feasible point (the feasible origin, or the
//! end of phase 1), every subsequent pivot must preserve primal
//! feasibility: the ratio test picks the leaving row precisely so the rhs
//! column stays non-negative, and a pinned artificial leaves the basis
//! before a pivot could move it off 0. A negative rhs after a
//! pivot means the ratio test or the pivot arithmetic is broken — a bug
//! that otherwise surfaces only as a silently infeasible "optimal" routing
//! plan. See `surfnet_decoder::check` for the decoder-side counterpart.
//!
//! Debug-only and opt-in: in release builds [`enabled`] is a `const fn`
//! returning `false`, so the guarded calls fold away.

use std::fmt;

/// A broken simplex invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// What held wrong, where.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violation: {}", self.message)
    }
}

/// Whether runtime invariant checking is on (`SURFNET_CHECK` set to
/// anything but `0`/empty, debug builds only).
#[cfg(debug_assertions)]
pub fn enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("SURFNET_CHECK").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Release builds: checking compiles to `false`, and the guarded blocks
/// fold away.
#[cfg(not(debug_assertions))]
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// Panics with the violation if `result` is an error. Call sites guard with
/// [`enabled`], so this never runs in release builds.
pub fn assert_ok(result: Result<(), InvariantViolation>, stage: &str) {
    if let Err(v) = result {
        // analyzer:allow(panic-site): the entire point of SURFNET_CHECK is to abort loudly on corruption
        panic!("SURFNET_CHECK [{stage}]: {v}");
    }
}

/// Tolerance for feasibility: pivoting accumulates rounding, so a tiny
/// negative rhs is numerical noise, not corruption.
pub const FEAS_EPS: f64 = 1e-6;

/// The tableau is primal-feasible: every basic variable's value (the rhs
/// column, one entry per tableau row) is non-negative up to [`FEAS_EPS`].
pub fn check_primal_feasible(
    basic_values: impl IntoIterator<Item = f64>,
) -> Result<(), InvariantViolation> {
    for (ri, rhs) in basic_values.into_iter().enumerate() {
        if rhs < -FEAS_EPS {
            return Err(InvariantViolation {
                message: format!("tableau row {ri} has negative basic value {rhs:.3e}"),
            });
        }
        if !rhs.is_finite() {
            return Err(InvariantViolation {
                message: format!("tableau row {ri} has non-finite basic value {rhs}"),
            });
        }
    }
    Ok(())
}

/// Every pinned artificial variable (`(tableau row, basic value)` pairs)
/// sits at exactly 0: its bounds are `[0, 0]`, and the ratio test moves it
/// out of the basis before any pivot could change its value.
pub fn check_pinned_at_zero(
    basic_values: impl IntoIterator<Item = (usize, f64)>,
) -> Result<(), InvariantViolation> {
    for (ri, value) in basic_values {
        if value != 0.0 {
            return Err(InvariantViolation {
                message: format!("pinned artificial in tableau row {ri} has value {value:.3e}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_tableau_passes() {
        assert_eq!(check_primal_feasible([4.0, 0.0]), Ok(()));
    }

    #[test]
    fn tiny_negative_rhs_is_tolerated() {
        assert_eq!(check_primal_feasible([-1e-9]), Ok(()));
    }

    #[test]
    fn corrupted_negative_rhs_fires() {
        let err = check_primal_feasible([4.0, -0.5]).unwrap_err();
        assert!(err.message.contains("row 1"), "{err}");
    }

    #[test]
    fn non_finite_rhs_fires() {
        assert!(check_primal_feasible([f64::NAN]).is_err());
    }

    #[test]
    fn pinned_artificials_must_be_exactly_zero() {
        assert_eq!(check_pinned_at_zero([(0, 0.0), (3, -0.0)]), Ok(()));
        let err = check_pinned_at_zero([(0, 0.0), (2, 1e-18)]).unwrap_err();
        assert!(err.message.contains("row 2"), "{err}");
    }
}
