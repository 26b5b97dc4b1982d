//! A counting global allocator for the traced run's allocation pass.
//!
//! Every call forwards to the system allocator. Counting is off unless
//! [`enable`] was called, and then costs three relaxed atomic adds per
//! call; the end-to-end runs never enable it, so all they pay is one
//! relaxed load and a predictable branch per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: nothing is published through these, so `Relaxed` is
// enough everywhere.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

fn note(allocated: usize, freed: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(allocated as u64, Ordering::Relaxed);
        FREED.fetch_add(freed as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// atomics and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    // Forwarded explicitly: the default would call `alloc` and then
    // touch every byte, which turns the lazily zeroed 16 MiB log regions
    // into resident memory and changes both clocks.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are exactly
        // `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes since counting was enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    pub allocated_bytes: u64,
    pub freed_bytes: u64,
}

impl Snapshot {
    /// Bytes allocated and not yet freed. Blocks that predate [`enable`]
    /// and are freed after it count against this, hence the floor.
    pub fn live_bytes(&self) -> u64 {
        self.allocated_bytes.saturating_sub(self.freed_bytes)
    }
}

/// Pins glibc's mmap threshold at its 128 KiB default.
///
/// Left alone, glibc raises the threshold every time a larger mmapped
/// block is freed. Once it passes 16 MiB, the members' zeroed log
/// regions stop being fresh lazily-zeroed mappings and become recycled
/// heap that `calloc` has to clear by hand — a whole cluster's logs
/// resident instead of the pages in use (221 MB against 43 MB on
/// `sharded_kv`), and whether that happens depends on the allocation
/// history, i.e. on the seed. Setting the threshold switches the
/// adjustment off, so resident set and set-up time mean the same thing
/// on every run.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` is glibc's own tuning call; it takes two
        // plain integers, touches only the allocator's parameters and is
        // documented safe to call at any time. It is called once, first
        // thing in `main`, before any other thread exists.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        debug_assert_eq!(ok, 1, "glibc refused the mmap threshold");
    }
}

pub fn enable() {
    CALLS.store(0, Ordering::Relaxed);
    ALLOCATED.store(0, Ordering::Relaxed);
    FREED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED.load(Ordering::Relaxed),
        freed_bytes: FREED.load(Ordering::Relaxed),
    }
}
