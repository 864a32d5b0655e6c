//! What user code allocates per record (DESIGN.md §20): a text key of up
//! to `INLINE_TEXT` bytes lives in the key, and a byte payload is one
//! shared buffer. The binary counts this thread's allocation calls, so the
//! other test threads of the binary do not disturb a count.

use mapreduce::prelude::*;
use mapreduce::types::INLINE_TEXT;
use simcore::rng::RootSeed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use workloads::loadgen::SyntheticLoadApp;
use workloads::textgen::TextCorpus;
use workloads::tpcxhs::hsgen_split;
use workloads::wordcount::WordCountApp;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting the calling thread's allocations
/// (`alloc`, `alloc_zeroed`, `realloc`).
struct PerThread;

fn counted() {
    // A thread being torn down has no counter left; its calls go uncounted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never influences which
// pointer is returned or freed.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

/// `f`'s result and the allocation calls this thread made running it.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

#[test]
fn wordcount_map_allocates_only_for_long_words() {
    let corpus = TextCorpus::english_like(RootSeed(2012));
    let lines = corpus.split_records(0, 256 << 10);
    let (mut short, mut long) = (0u64, 0u64);
    for (k, v) in &lines {
        let ((), calls) = allocs(|| {
            WordCountApp.map(k, v, &mut |key, _| match key.as_text().len() {
                n if n <= INLINE_TEXT => short += 1,
                _ => long += 1,
            })
        });
        assert_eq!(calls, 0, "a line of words of at most {INLINE_TEXT} bytes: {v:?}");
    }
    assert!(short > 10_000, "{short} words");
    assert_eq!(long, 0, "every word of the corpus fits in place");
    // A longer word is one heap object.
    let line = V::Text(format!("short {} short", "long".repeat(6)));
    let ((), calls) = allocs(|| WordCountApp.map(&K::Int(0), &line, &mut |_, _| ()));
    assert_eq!(calls, 1);
}

#[test]
fn hsgen_records_share_one_payload() {
    let seed = RootSeed(7).derive("hsgen");
    let (small, small_calls) = allocs(|| hsgen_split(seed, 0, 100));
    let (large, large_calls) = allocs(|| hsgen_split(seed, 0, 1_000));
    for recs in [&small, &large] {
        let V::Bytes(first) = &recs[0].1 else { panic!("payloads are bytes") };
        for (_, v) in recs.iter() {
            let V::Bytes(b) = v else { panic!("payloads are bytes") };
            assert!(Arc::ptr_eq(b, first), "one buffer per split");
        }
    }
    // A record more is its key's bytes and nothing for its payload.
    assert_eq!(large_calls - small_calls, 900);
}

#[test]
fn synthetic_load_reuses_its_blob() {
    let app = SyntheticLoadApp { cpu_per_record: 1.0, bytes_per_record: 16 << 10 };
    let emit = || {
        let mut blob = None;
        app.map(&K::Int(3), &V::Null, &mut |_, v| blob = Some(v));
        match blob {
            Some(V::Bytes(b)) => b,
            other => panic!("one blob, got {other:?}"),
        }
    };
    let first = emit();
    let (second, calls) = allocs(emit);
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(calls, 0);
    assert_eq!(second.len(), 16 << 10);
    assert!(second.iter().all(|&b| b == b'x'));
}
