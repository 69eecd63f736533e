//! Memory measurement: the benchmark's global allocator and the process's
//! resident-memory high-water mark.
//!
//! [`PeakAllocator`] wraps the program's counting allocator (so
//! `insight_streams::alloc::allocation_count` keeps working for the
//! per-window allocation counts) and also tracks the bytes currently live
//! on the heap and their peak. The peak of live heap bytes is what the
//! program asks of memory; resident memory (`VmHWM`) adds what the C
//! allocator keeps around, which on a multi-threaded run depends on how
//! threads happen to meet in its arenas (the RTEC stratum pool makes even
//! the single-caller workloads multi-threaded), so runs of the same input
//! read it several MB apart.

use insight_streams::alloc::CountingAllocator;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Net bytes a thread may allocate or free before it publishes them to
/// [`LIVE`]. Updating a shared counter on every allocation made the
/// allocation-heavy RTEC queries about 30% slower (the stratum pool's
/// threads fight over its cache line); batching bounds the error of the
/// peak to this much per thread.
const PUBLISH_BYTES: isize = 64 * 1024;

thread_local! {
    /// This thread's heap growth not yet published to [`LIVE`]. A thread
    /// that ends takes what is pending with it, at most [`PUBLISH_BYTES`].
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

/// Counting allocator that also tracks live and peak heap bytes.
pub struct PeakAllocator;

fn account(bytes: isize) {
    let publish = PENDING.with(|p| {
        let pending = p.get() + bytes;
        if pending.abs() < PUBLISH_BYTES {
            p.set(pending);
            0
        } else {
            p.set(0);
            pending
        }
    });
    if publish != 0 {
        let live = LIVE.fetch_add(publish, Ordering::Relaxed) + publish;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn grew(bytes: usize) {
    account(bytes as isize);
}

fn shrank(bytes: usize) {
    account(-(bytes as isize));
}

// SAFETY: delegates verbatim to `CountingAllocator` (itself a thin wrapper
// of `System`), adding only relaxed counter updates.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { CountingAllocator.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { CountingAllocator.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { CountingAllocator.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { CountingAllocator.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Peak live heap bytes since the process started, in MB (2^20 bytes),
/// within [`PUBLISH_BYTES`] per thread.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
