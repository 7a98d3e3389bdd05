//! Golden fingerprints of the three decoding kernels.
//!
//! Every shot of a fixed seeded grid — d ∈ {3, 5, 9, 15} × p ∈ {5%, 7%,
//! 8.5%} at 15% erasure, dual-channel Cross partition, 200 shots per
//! point — is decoded through [`Decoder::decode`], and its correction
//! (one byte per data qubit) and outcome flags are folded into one
//! FNV-1a hash per decoder. The constants were recorded before the
//! growth kernel moved to construction-time speeds and a CSR graph; any
//! change to growth, peeling, matching, sampling or scoring that alters
//! a single correction fails here.
//!
//! `workspace_equivalence.rs` compares two paths that share one kernel,
//! so it cannot see a kernel drift; this test can.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, Pauli, SurfaceCode};

const DISTANCES: [usize; 4] = [3, 5, 9, 15];
const PAULI_RATES: [f64; 3] = [0.05, 0.07, 0.085];
const ERASURE_RATE: f64 = 0.15;
const SHOTS: usize = 200;

const MWPM_FINGERPRINT: u64 = 0xca86_5db1_3742_70f9;
const UNION_FIND_FINGERPRINT: u64 = 0x9a37_b002_7d34_8cd5;
const SURFNET_FINGERPRINT: u64 = 0x46e8_b177_cb98_d03e;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn pauli_byte(p: Pauli) -> u8 {
    match p {
        Pauli::I => 0,
        Pauli::X => 1,
        Pauli::Y => 2,
        Pauli::Z => 3,
    }
}

fn fingerprint(build: impl Fn(&SurfaceCode, &ErrorModel) -> Box<dyn Decoder>) -> u64 {
    let mut hash = Fnv1a::new();
    for &d in &DISTANCES {
        let code = SurfaceCode::new(d).unwrap();
        let partition = code.core_partition(CoreTopology::Cross);
        for (pi, &p) in PAULI_RATES.iter().enumerate() {
            let model = ErrorModel::dual_channel(&code, &partition, p, ERASURE_RATE);
            let decoder = build(&code, &model);
            let mut rng = SmallRng::seed_from_u64(0x5EED_0000 + (d as u64) * 16 + pi as u64);
            for _ in 0..SHOTS {
                let sample = model.sample(&mut rng);
                let syndrome = code.extract_syndrome(&sample.pauli);
                let correction = decoder.decode(&code, &syndrome, &sample.erased).unwrap();
                for op in correction.iter() {
                    hash.byte(pauli_byte(op));
                }
                let outcome = code.score_correction(&sample.pauli, &correction);
                hash.byte(u8::from(outcome.syndrome_cleared));
                hash.byte(u8::from(outcome.logical_failure.x));
                hash.byte(u8::from(outcome.logical_failure.z));
            }
        }
    }
    hash.0
}

#[test]
fn mwpm_kernel_fingerprint_is_unchanged() {
    let got = fingerprint(|c, m| Box::new(MwpmDecoder::from_model(c, m)));
    assert_eq!(got, MWPM_FINGERPRINT, "mwpm fingerprint {got:#018x}");
}

#[test]
fn union_find_kernel_fingerprint_is_unchanged() {
    let got = fingerprint(|c, m| Box::new(UnionFindDecoder::from_model(c, m)));
    assert_eq!(
        got, UNION_FIND_FINGERPRINT,
        "union-find fingerprint {got:#018x}"
    );
}

#[test]
fn surfnet_kernel_fingerprint_is_unchanged() {
    let got = fingerprint(|c, m| Box::new(SurfNetDecoder::from_model(c, m)));
    assert_eq!(got, SURFNET_FINGERPRINT, "surfnet fingerprint {got:#018x}");
}
