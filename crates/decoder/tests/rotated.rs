//! Decoder integration tests on the rotated surface code family, through
//! the graph-level `correction_for_with` (the [`Decoder`] trait takes the
//! unrotated `SurfaceCode`).
//!
//! [`Decoder`]: surfnet_decoder::Decoder

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{DecodeWorkspace, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::rotated::RotatedSurfaceCode;
use surfnet_lattice::{ErrorModel, Pauli, PauliString};

#[test]
fn rotated_single_errors_corrected_by_all_decoders() {
    let code = RotatedSurfaceCode::new(5).unwrap();
    let model = ErrorModel::uniform_len(code.num_data_qubits(), 0.05, 0.05);
    let mwpm = MwpmDecoder::from_rotated(&code, &model);
    let uf = UnionFindDecoder::from_rotated(&code, &model);
    let sn = SurfNetDecoder::from_rotated(&code, &model);
    let erased = vec![false; code.num_data_qubits()];
    let mut ws = DecodeWorkspace::new();
    for q in 0..code.num_data_qubits() {
        for op in [Pauli::X, Pauli::Z, Pauli::Y] {
            let mut err = PauliString::identity(code.num_data_qubits());
            err.set(q, op);
            let syndrome = code.extract_syndrome(&err);
            for name in ["mwpm", "uf", "sn"] {
                let correction = match name {
                    "mwpm" => mwpm.correction_for_with(&syndrome, &erased, &mut ws),
                    "uf" => uf.correction_for_with(&syndrome, &erased, &mut ws),
                    _ => sn.correction_for_with(&syndrome, &erased, &mut ws),
                }
                .unwrap();
                let outcome = code.score_correction(&err, correction);
                assert!(outcome.is_success(), "{name} failed on {op} at qubit {q}");
            }
        }
    }
}

#[test]
fn rotated_random_samples_always_clear_syndrome() {
    let code = RotatedSurfaceCode::new(7).unwrap();
    let partition = code.paper_partition();
    let model = ErrorModel::dual_channel_partition(&partition, 0.08, 0.15);
    let sn = SurfNetDecoder::from_rotated(&code, &model);
    let uf = UnionFindDecoder::from_rotated(&code, &model);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut ws = DecodeWorkspace::new();
    for _ in 0..200 {
        let sample = model.sample(&mut rng);
        let syndrome = code.extract_syndrome(&sample.pauli);
        let correction = sn
            .correction_for_with(&syndrome, &sample.erased, &mut ws)
            .unwrap();
        assert!(
            code.score_correction(&sample.pauli, correction)
                .syndrome_cleared
        );
        let correction = uf
            .correction_for_with(&syndrome, &sample.erased, &mut ws)
            .unwrap();
        assert!(
            code.score_correction(&sample.pauli, correction)
                .syndrome_cleared
        );
    }
}

#[test]
fn rotated_logical_error_rate_below_threshold_is_low() {
    let code = RotatedSurfaceCode::new(7).unwrap();
    let model = ErrorModel::uniform_len(code.num_data_qubits(), 0.02, 0.02);
    let sn = SurfNetDecoder::from_rotated(&code, &model);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut ws = DecodeWorkspace::new();
    let trials = 500;
    let failures = (0..trials)
        .filter(|_| {
            let sample = model.sample(&mut rng);
            let syndrome = code.extract_syndrome(&sample.pauli);
            let correction = sn
                .correction_for_with(&syndrome, &sample.erased, &mut ws)
                .unwrap();
            !code
                .score_correction(&sample.pauli, correction)
                .is_success()
        })
        .count();
    let rate = failures as f64 / trials as f64;
    assert!(rate < 0.08, "logical rate {rate} too high at p=2%");
}

#[test]
fn rotated_larger_distance_better_below_threshold() {
    let mut rates = Vec::new();
    for d in [3usize, 7] {
        let code = RotatedSurfaceCode::new(d).unwrap();
        let model = ErrorModel::uniform_len(code.num_data_qubits(), 0.03, 0.03);
        let uf = UnionFindDecoder::from_rotated(&code, &model);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut ws = DecodeWorkspace::new();
        let trials = 500;
        let failures = (0..trials)
            .filter(|_| {
                let sample = model.sample(&mut rng);
                let syndrome = code.extract_syndrome(&sample.pauli);
                let correction = uf
                    .correction_for_with(&syndrome, &sample.erased, &mut ws)
                    .unwrap();
                !code
                    .score_correction(&sample.pauli, correction)
                    .is_success()
            })
            .count();
        rates.push(failures as f64 / trials as f64);
    }
    assert!(
        rates[1] <= rates[0] + 0.02,
        "d=7 rate {} vs d=3 rate {}",
        rates[1],
        rates[0]
    );
}
