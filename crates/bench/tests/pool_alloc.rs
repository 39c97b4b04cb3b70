//! Steady-state allocation ceiling for the recycling pools
//! ([`manet_sim::pool`]): once the free lists are primed, the hot
//! event loop takes its protocol action lists and receiver batches
//! from them, so a fixed deterministic run stays under a pinned number
//! of heap allocations — one that a kernel allocating those buffers
//! per event exceeds.
//!
//! The counter is a thin wrapper around the system allocator, so this
//! file holds exactly one `#[test]`: integration tests in other files
//! run in their own binaries and are unaffected, but a second test in
//! *this* binary would race the window counters.
//!
//! Measurement excludes start-up: the world is built and run through a
//! warm-up prefix first (filling the free lists and amortising event
//! queue growth), then allocations are counted over the steady-state
//! suffix only.

use ldr_bench::runner::build_world;
use ldr_bench::scenario::{Protocol, Scenario};
use manet_sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state allocations the window below may perform. With the
/// pools in place it performs 5458 (debug and release alike); with
/// `VecPool::put` dropping every buffer instead of keeping it, 7995.
const CEILING: u64 = 6700;

#[test]
fn pooled_steady_state_stays_under_the_allocation_ceiling() {
    let mut scenario = Scenario::n50(10, 0);
    scenario.duration_secs = 12;
    let mut world = build_world(Protocol::Ldr, &scenario, 9201, None);
    // Warm-up: traffic is flowing and the free lists are primed.
    world.run_until(SimTime::from_secs(4));
    let before = ALLOCS.load(Ordering::Relaxed);
    world.run_until(SimTime::from_secs(12));
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(world.metrics().data_delivered > 0, "silent run");
    assert!(during > 0, "allocator counter not engaged");
    assert!(
        during <= CEILING,
        "the hot loop allocated {during} times in the steady-state window (ceiling {CEILING}): \
         are action lists and receiver batches still recycled?"
    );
}
