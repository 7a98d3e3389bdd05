//! The growth decoders' workspace shot loop — `ErrorModel::sample_into`
//! plus `decode_sample_with`, as the Fig. 8 sweep runs it — stops touching
//! the heap once its buffers reach their high-water mark.
//!
//! Each case runs a seeded shot sequence through one workspace and one
//! sample, then replays the identical sequence: every buffer is already
//! large enough for those shots, so the replay must make zero heap
//! allocations. The count is kept per thread, so the test harness's own
//! threads do not leak into it. Under `SURFNET_CHECK=1` (debug builds)
//! the invariant checkers build their own scratch every shot, so only
//! the replay's outcomes are compared there.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use surfnet_decoder::{DecodeWorkspace, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, DecodeOutcome, ErrorModel, ErrorSample, SurfaceCode};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // A const-initialised `Cell` has no destructor, so this never
    // allocates or fails, even during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SHOTS: usize = 200;
const ERASURE_RATE: f64 = 0.15;

/// Runs `SHOTS` seeded shots through `ws` and `sample`; returns the
/// failure count and the number of heap allocations the loop made.
fn shot_loop(
    model: &ErrorModel,
    seed: u64,
    ws: &mut DecodeWorkspace,
    sample: &mut ErrorSample,
    decode: &dyn Fn(&ErrorSample, &mut DecodeWorkspace) -> DecodeOutcome,
) -> (usize, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let before = allocations();
    let failures = (0..SHOTS)
        .filter(|_| {
            model.sample_into(&mut rng, sample);
            !decode(sample, ws).is_success()
        })
        .count();
    (failures, allocations() - before)
}

/// Warms one workspace on a seeded shot sequence, then replays it and
/// asserts the replay decodes the same and never allocates.
fn assert_replay_allocation_free(
    name: &str,
    model: &ErrorModel,
    seed: u64,
    decode: &dyn Fn(&ErrorSample, &mut DecodeWorkspace) -> DecodeOutcome,
) {
    let mut ws = DecodeWorkspace::new();
    let mut sample = ErrorSample::clean(0);
    let (warm, _) = shot_loop(model, seed, &mut ws, &mut sample, decode);
    let (replay, allocated) = shot_loop(model, seed, &mut ws, &mut sample, decode);
    assert_eq!(warm, replay, "{name}: replay decoded differently");
    if surfnet_decoder::check::enabled() {
        return;
    }
    assert_eq!(
        allocated, 0,
        "{name}: warmed shot loop made {allocated} heap allocations"
    );
}

#[test]
fn warmed_growth_shot_loop_does_not_allocate() {
    for d in [9, 15] {
        let code = SurfaceCode::new(d).unwrap();
        let partition = code.core_partition(CoreTopology::Cross);
        for p in [0.05, 0.085] {
            let model = ErrorModel::dual_channel(&code, &partition, p, ERASURE_RATE);
            let seed = 1_000 * d as u64 + (p * 1_000.0) as u64;
            let uf = UnionFindDecoder::from_model(&code, &model);
            assert_replay_allocation_free(
                &format!("union-find d={d} p={p}"),
                &model,
                seed,
                &|s, ws| uf.decode_sample_with(&code, s, ws),
            );
            let surfnet = SurfNetDecoder::from_model(&code, &model);
            assert_replay_allocation_free(
                &format!("surfnet d={d} p={p}"),
                &model,
                seed,
                &|s, ws| surfnet.decode_sample_with(&code, s, ws),
            );
        }
    }
}
