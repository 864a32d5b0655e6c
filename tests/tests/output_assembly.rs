//! A job's result is assembled without a second copy (DESIGN.md §20): a
//! task output is its keys and a column of its values, and `finish_job`
//! appends the outputs one at a time, dropping each once appended. So a
//! job's high-water mark stays below the bound that a full-size copy of
//! the result beside every task output would exceed. Likewise the ML
//! runtime holds its data set once: each input record owns the caller's
//! point, so loading the points adds records, not a second copy. The
//! binary holds this one test, so its counting allocator sees no other
//! test's bytes.

use mapreduce::runtime::MrRuntime;
use mapreduce::types::Record;
use mlkit::mlrt::MlRuntime;
use simcore::rng::RootSeed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use vcluster::spec::{ClusterSpec, Placement};
use workloads::tpcxhs::{hsgen_job, hssort_job, register_hsgen, HsPlan, RECORD_BYTES};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`], counting live bytes and their high-water mark
/// by requested size; a `realloc` counts as its new size replacing the
/// old, as the block is resized rather than copied beside itself.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence which
// pointer is returned or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // vouched for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the most bytes live at once while it ran, above those
/// live when it started.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

const RECORDS: usize = 40_000;
const REDUCES: u32 = 6;
const POINTS: usize = 20_000;
const DIMS: usize = 60;

/// HSGen (map-only, 10 maps) and HSSort (6 reduces) over 100-byte records
/// of 10-byte keys and shared 82-byte payloads. A result vector is
/// `size_of::<Record>()` bytes a record; the task outputs it is built
/// from hold their keys (a `K` and its 10 heap bytes) and a column of
/// 16-byte payload handles. Kept beside all of them, a full-size copy
/// would put at least two record vectors' worth live at once; appended
/// one output at a time, the job stays under 1.75 of one.
///
/// Then `MlRuntime::new` over `POINTS` x `DIMS` points: beyond the
/// caller's points it keeps a 64-byte record per point and a booted
/// runtime, under a quarter of the points' bytes; a second copy of the
/// points would add all of them again.
#[test]
fn a_job_result_is_assembled_without_a_second_copy() {
    let plan = HsPlan::new(RECORDS as u64 * RECORD_BYTES, REDUCES, RootSeed(2012))
        .with_block_size(RECORDS as u64 * RECORD_BYTES / 10);
    let spec = ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build();
    let mut rt = MrRuntime::new(spec, plan.hdfs_config(2), plan.seed);
    let bound = size_of::<Record>() * RECORDS * 7 / 4;

    let (spec, app, input) = hsgen_job(&plan);
    let (generated, peak) = high_water(|| rt.run_job(spec, app, input));
    assert_eq!((generated.outputs.len(), generated.partition_sizes.len()), (RECORDS, 10));
    drop(generated);
    assert!(peak < bound, "map-only job peaked at {peak} bytes, bound {bound}");

    register_hsgen(&mut rt, &plan);
    let (spec, app, input) = hssort_job(&plan);
    let (sorted, peak) = high_water(|| rt.run_job(spec, app, input));
    assert_eq!(sorted.outputs.len(), RECORDS);
    assert_eq!(sorted.partition_sizes.len(), REDUCES as usize);
    assert!(sorted.outputs.is_sorted_by(|a, b| a.0 <= b.0), "a total order across partitions");
    assert!(peak < bound, "sort job peaked at {peak} bytes, bound {bound}");
    drop(sorted);

    let base = LIVE.load(Relaxed);
    let points: Vec<Vec<f64>> = (0..POINTS).map(|i| vec![i as f64; DIMS]).collect();
    let points_bytes = LIVE.load(Relaxed) - base;
    let spec = ClusterSpec::builder().hosts(2).vms(16).placement(Placement::CrossDomain).build();
    let ml = MlRuntime::new(spec, points, RootSeed(2012));
    let added = (LIVE.load(Relaxed) - base).saturating_sub(points_bytes);
    assert_eq!(ml.points().len(), POINTS);
    assert!(
        added < points_bytes / 4,
        "loading {points_bytes} bytes of points kept {added} bytes more live"
    );
}
