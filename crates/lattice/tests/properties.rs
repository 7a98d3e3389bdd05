//! Property-based tests of the surface-code substrate's invariants.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_lattice::{ErrorModel, Pauli, PauliString, SurfaceCode};

fn pauli_strategy() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z),
    ]
}

fn string_strategy(len: usize) -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(pauli_strategy(), len).prop_map(PauliString::from_ops)
}

proptest! {
    #[test]
    fn pauli_product_is_associative(a in pauli_strategy(), b in pauli_strategy(), c in pauli_strategy()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn pauli_anticommutation_is_symmetric(a in pauli_strategy(), b in pauli_strategy()) {
        prop_assert_eq!(a.anticommutes_with(b), b.anticommutes_with(a));
    }

    #[test]
    fn syndrome_is_linear_under_composition(
        a in string_strategy(13),
        b in string_strategy(13),
    ) {
        // Syndromes add mod 2: syndrome(a*b) = syndrome(a) XOR syndrome(b).
        let code = SurfaceCode::new(3).unwrap();
        let sa = code.extract_syndrome(&a);
        let sb = code.extract_syndrome(&b);
        let sab = code.extract_syndrome(&(&a * &b));
        for i in 0..sab.z_flips.len() {
            prop_assert_eq!(sab.z_flips[i], sa.z_flips[i] ^ sb.z_flips[i]);
        }
        for i in 0..sab.x_flips.len() {
            prop_assert_eq!(sab.x_flips[i], sa.x_flips[i] ^ sb.x_flips[i]);
        }
    }

    #[test]
    fn logical_failure_is_linear(
        a in string_strategy(13),
        b in string_strategy(13),
    ) {
        let code = SurfaceCode::new(3).unwrap();
        let fa = code.logical_failure(&a);
        let fb = code.logical_failure(&b);
        let fab = code.logical_failure(&(&a * &b));
        prop_assert_eq!(fab.x, fa.x ^ fb.x);
        prop_assert_eq!(fab.z, fa.z ^ fb.z);
    }

    #[test]
    fn multiplying_by_stabilizers_preserves_syndrome_and_logical_class(
        err in string_strategy(13),
        picks in proptest::collection::vec(0usize..12, 0..6),
    ) {
        let code = SurfaceCode::new(3).unwrap();
        let n = code.num_data_qubits();
        let mut deformed = err.clone();
        for pick in picks {
            let stab = if pick < 6 {
                PauliString::from_support(n, code.z_stabilizer(pick), Pauli::Z)
            } else {
                PauliString::from_support(n, code.x_stabilizer(pick - 6), Pauli::X)
            };
            deformed.compose_assign(&stab);
        }
        prop_assert_eq!(
            code.extract_syndrome(&err),
            code.extract_syndrome(&deformed)
        );
        prop_assert_eq!(code.logical_failure(&err), code.logical_failure(&deformed));
    }

    #[test]
    fn exact_correction_always_succeeds(err in string_strategy(41)) {
        let code = SurfaceCode::new(5).unwrap();
        let outcome = code.score_correction(&err, &err);
        prop_assert!(outcome.is_success());
    }

    #[test]
    fn sampled_errors_have_consistent_erasure_flags(seed in any::<u64>()) {
        let code = SurfaceCode::new(5).unwrap();
        let model = ErrorModel::uniform(&code, 0.1, 0.3);
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = model.sample(&mut rng);
        prop_assert_eq!(s.pauli.len(), code.num_data_qubits());
        prop_assert_eq!(s.erased.len(), code.num_data_qubits());
        // A non-erased qubit with p=0.1 may carry X/Y/Z; an erased one may
        // carry anything; but the sample sizes must line up and every
        // non-identity Pauli on a zero-pauli-rate model must come from an
        // erasure.
        let clean_model = ErrorModel::uniform(&code, 0.0, 0.3);
        let s2 = clean_model.sample(&mut rng);
        for (q, op) in s2.pauli.support() {
            prop_assert!(s2.erased[q], "qubit {} has {} without erasure", q, op);
        }
    }

}
