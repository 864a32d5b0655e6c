//! Counting global allocator: live bytes, their high-water mark, and the
//! bytes and calls allocated. Installed in every mode so its cost is the
//! same in timed, warm-up and traced passes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed everywhere: these are statistics read by the one benchmark
// thread between passes; they publish no other data.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The allocator; forwards to [`System`].
pub struct Counting;

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
    BYTES.fetch_add(by, Relaxed);
    CALLS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence which
// pointer is returned or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Most bytes allocated at once since the last [`reset_peak`].
    pub peak: u64,
    /// Bytes allocated since process start (reallocs count their new size).
    pub bytes: u64,
    /// Allocation calls since process start.
    pub calls: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot { peak: PEAK.load(Relaxed), bytes: BYTES.load(Relaxed), calls: CALLS.load(Relaxed) }
}

/// Restarts the high-water mark from the current live size (once per pass).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are global and the other unit tests run in parallel, so
    // every bound leaves megabytes of slack for their kilobytes.
    #[test]
    fn high_water_mark_resets_per_pass() {
        let big = vec![1u8; 64 << 20];
        let during = snapshot();
        assert!(during.peak >= 64 << 20);
        drop(big);
        reset_peak();
        let after = snapshot();
        assert!(after.peak + (32 << 20) < during.peak, "reset forgets the dropped 64 MiB block");
        let small = vec![1u8; 1 << 20];
        let s = snapshot();
        assert!(s.peak >= after.peak + (1 << 19), "the mark follows live bytes up");
        assert!(s.calls > after.calls && s.bytes >= after.bytes + (1 << 20));
        drop(small);
    }
}
