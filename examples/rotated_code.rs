//! The rotated surface code — the paper's Sec. V-A sizing example (a
//! 25-data-qubit code with a 7-qubit Core) — decoded with all three
//! decoders through the graph-level API, one reused workspace for every
//! decode.
//!
//! ```sh
//! cargo run --example rotated_code
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet::decoder::{DecodeWorkspace, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet::lattice::rotated::RotatedSurfaceCode;
use surfnet::lattice::ErrorModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let code = RotatedSurfaceCode::new(5)?;
    let partition = code.paper_partition();
    println!(
        "rotated distance-5 code: {} data qubits, Core {} + Support {} (the paper's 25/7 example)",
        code.num_data_qubits(),
        partition.num_core(),
        partition.num_support()
    );

    // Dual-channel rates: Support at 6% Pauli / 15% erasure, Core halved.
    let model = ErrorModel::dual_channel_partition(&partition, 0.06, 0.15);
    let mwpm = MwpmDecoder::from_rotated(&code, &model);
    let uf = UnionFindDecoder::from_rotated(&code, &model);
    let sn = SurfNetDecoder::from_rotated(&code, &model);

    let mut rng = SmallRng::seed_from_u64(25);
    let trials = 2000;
    let mut failures = [0usize; 3];
    let mut ws = DecodeWorkspace::new();
    for _ in 0..trials {
        let sample = model.sample(&mut rng);
        let syndrome = code.extract_syndrome(&sample.pauli);
        for (i, failed) in failures.iter_mut().enumerate() {
            let correction = match i {
                0 => mwpm.correction_for_with(&syndrome, &sample.erased, &mut ws)?,
                1 => uf.correction_for_with(&syndrome, &sample.erased, &mut ws)?,
                _ => sn.correction_for_with(&syndrome, &sample.erased, &mut ws)?,
            };
            let outcome = code.score_correction(&sample.pauli, correction);
            assert!(outcome.syndrome_cleared, "decoder left residual syndrome");
            if !outcome.is_success() {
                *failed += 1;
            }
        }
    }
    for (name, f) in ["mwpm", "union-find", "surfnet"].iter().zip(failures) {
        println!(
            "{name:<11} logical error rate {:.4} over {trials} transmissions",
            f as f64 / trials as f64
        );
    }
    Ok(())
}
