//! Heap-allocation count of steady-state cube construction.
//!
//! A counting global allocator sees every allocation this thread makes,
//! including the ones the scratch pools' miss counters cannot (a clone of
//! a filter, a `Vec` grown outside a pool, a task boxed for the thread
//! pool). Once the pools are warm, one frame must allocate exactly once:
//! the cube it returns. The frame's stages run inline, so this holds on a
//! multi-thread pool too, and the test runs on one.

use mmhand_core::{CubeBuilder, CubeConfig};
use mmhand_math::rng::stream_rng;
use mmhand_math::Vec3;
use mmhand_radar::scene::PointTarget;
use mmhand_radar::synth::synthesize_frame;
use mmhand_radar::{Scene, VirtualArray};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting the allocations made by a
/// thread while its `COUNTING` flag is set.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's layout and pointer contracts are exactly the ones `System`
// requires; the counter is a relaxed atomic and a const-initialised
// thread-local flag, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller must pass a valid non-zero-size layout,
        // forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller must pass a valid non-zero-size layout,
        // forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller must pass a pointer this allocator returned
        // with `layout`, forwarded unchanged to the same `System` allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller must pass a pointer this allocator returned
        // with `layout`, forwarded unchanged to the same `System` allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn steady_state_frame_allocates_only_its_output() {
    let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
    let chirp = builder.config().chirp;
    let mut scene = Scene::new(0.01);
    scene.add_targets(vec![PointTarget::fixed(Vec3::new(0.05, 0.3, 0.02), 1.0)]);
    let mut rng = stream_rng(17, "cube-alloc");
    let frame = synthesize_frame(&chirp, &VirtualArray::new(&chirp), &scene, &mut rng);

    // A pool wider than one lane, whatever the machine: a frame that
    // spawned pool tasks would box each one on this thread.
    let _ = mmhand_parallel::configure_threads(4);
    assert!(!mmhand_parallel::is_sequential(), "the pool must be wider than one lane");

    // Warm-up: fills the scratch pools and resolves every cached handle
    // (kernel backend, telemetry, plans).
    let reference = builder.try_process_frame(&frame).expect("valid frame");
    for _ in 0..3 {
        builder.try_process_frame(&frame).expect("valid frame");
    }
    let (cube, allocations) = allocations_in(|| builder.try_process_frame(&frame));
    let cube = cube.expect("valid frame");
    assert_eq!(allocations, 1, "steady-state frame made {allocations} heap allocations");
    assert_eq!(cube.data, reference.data, "warm frame differs from the first");
}
