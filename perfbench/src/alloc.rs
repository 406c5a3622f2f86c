//! A counting global allocator: live bytes, their peak, and allocation
//! counts, so memory is attributed by live heap and not only by `VmHWM`
//! (the allocator keeps freed pages resident, which contaminates RSS).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::Relaxed};

// All counters are statistics that publish no other data, so `Relaxed`
// suffices.  Live bytes are signed: a thread may free what another
// allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A thread folds its counts into the shared counters once its live-byte
/// change exceeds this many bytes or it has made [`FLUSH_ALLOCS`] calls.
/// Updating shared atomics on every call made allocation-heavy stages
/// (10^8 calls in one HAI outcome) twice as slow; batching bounds the peak's
/// error to this much per thread.
const FLUSH_BYTES: isize = 256 * 1024;
const FLUSH_ALLOCS: u64 = 4096;

/// One thread's counts not yet folded into the shared counters.
#[derive(Clone, Copy)]
struct Pending {
    live: isize,
    allocs: u64,
    bytes: u64,
}

const NONE: Pending = Pending {
    live: 0,
    allocs: 0,
    bytes: 0,
};

thread_local! {
    static PENDING: Cell<Pending> = const { Cell::new(NONE) };
}

fn flush(pending: Pending) {
    let live = LIVE.fetch_add(pending.live, Relaxed) + pending.live;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(pending.allocs, Relaxed);
    ALLOC_BYTES.fetch_add(pending.bytes, Relaxed);
}

/// Count a change of `live` bytes, by a call that requested `requested`
/// bytes (0 for a free).
fn count(live: isize, requested: usize) {
    let calls = u64::from(requested > 0);
    let delta = Pending {
        live,
        allocs: calls,
        bytes: requested as u64,
    };
    // A thread whose locals are gone (it is exiting) counts directly.
    let batched = PENDING.try_with(|cell| {
        let mut p = cell.get();
        p.live += delta.live;
        p.allocs += delta.allocs;
        p.bytes += delta.bytes;
        if p.live.abs() > FLUSH_BYTES || p.allocs >= FLUSH_ALLOCS {
            flush(p);
            p = NONE;
        }
        cell.set(p);
    });
    if batched.is_err() {
        flush(delta);
    }
}

/// Fold the calling thread's pending counts into the shared counters.
fn flush_local() {
    let _ = PENDING.try_with(|cell| {
        flush(cell.get());
        cell.set(NONE);
    });
}

/// [`System`] plus the counters above.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds counter updates, which never allocate, so
// `System`'s guarantees hold.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize, layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize, layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block this allocator returned, with
        // its layout, and a valid new size.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(new_size as isize - layout.size() as isize, new_size.max(1));
        }
        new
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Allocation calls so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Start a new phase: the peak restarts from the bytes live now.
pub fn start_phase() -> Reading {
    flush_local();
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    read()
}

/// The counters now.
pub fn read() -> Reading {
    flush_local();
    Reading {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// Peak live heap since the last [`start_phase`], in MiB.
pub fn peak_live_mib() -> f64 {
    flush_local();
    PEAK.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

/// The resident-set high-water mark (`VmHWM`) in MiB, or 0 where procfs
/// is missing.
pub fn rss_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
