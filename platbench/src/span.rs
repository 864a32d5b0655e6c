//! In-memory span recorder for the probed pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into the
//! crates' public functions: `name, start, end, parent`. A span's self time
//! is its busy time minus the busy time of its children.
//!
//! Per-record user code (one `map` call per input line) would make millions
//! of spans, so a childless span that closes right after a childless sibling
//! of the same name is folded into it: `calls` counts the folded spans,
//! `busy_ns` sums their durations and `end_ns` moves to the last one. The
//! tree arithmetic is unchanged — a parent subtracts `busy_ns`, not
//! `end_ns - start_ns`.
//!
//! The recorder is thread-local: the benchmark is single-threaded and the
//! `InputFormat: Send` bound keeps handles out of the probe wrappers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of the parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded (possibly folded) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Spans folded into this record (1 for an ordinary span).
    pub calls: u64,
    /// Summed duration of the folded spans.
    pub busy_ns: u64,
    has_child: bool,
}

#[derive(Debug)]
struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

impl Recorder {
    fn open_span(&mut self, name: &'static str, now_ns: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent != NO_PARENT {
            self.spans[parent as usize].has_child = true;
        }
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now_ns,
            end_ns: now_ns,
            parent,
            calls: 1,
            busy_ns: 0,
            has_child: false,
        });
    }

    fn close_span(&mut self, now_ns: u64) {
        let idx = self.open.pop().expect("close without open") as usize;
        let s = &mut self.spans[idx];
        s.end_ns = now_ns;
        s.busy_ns = now_ns - s.start_ns;
        // Childless, so it is the last record; fold it into the record
        // before it when that is a closed childless sibling of the same name.
        if !s.has_child && idx > 0 {
            let (name, parent, busy) = (s.name, s.parent, s.busy_ns);
            // (An open record there would be this span's parent, which
            // `has_child` already rules out.)
            let prev = &mut self.spans[idx - 1];
            if !prev.has_child && prev.parent == parent && prev.name == name {
                prev.calls += 1;
                prev.busy_ns += busy;
                prev.end_ns = now_ns;
                self.spans.pop();
            }
        }
    }
}

/// Closes its span when dropped.
pub struct Guard {
    live: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.live {
            REC.with_borrow_mut(|r| {
                let now = r.epoch.elapsed().as_nanos() as u64;
                r.close_span(now);
            });
        }
    }
}

/// Opens a span named `name` under the innermost open span. A no-op while
/// the recorder is disabled, which is every pass but the probed one.
pub fn enter(name: &'static str) -> Guard {
    REC.with_borrow_mut(|r| {
        if r.enabled {
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.open_span(name, now);
        }
        Guard { live: r.enabled }
    })
}

/// Runs `f` inside a span named `name`.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Clears the recorder and turns it on.
pub fn start_recording() {
    REC.with_borrow_mut(|r| {
        assert!(r.open.is_empty(), "recording restarted inside an open span");
        r.spans.clear();
        r.enabled = true;
    });
}

/// Turns the recorder off and hands over what it recorded.
pub fn stop_recording() -> Vec<Span> {
    REC.with_borrow_mut(|r| {
        assert!(r.open.is_empty(), "recording stopped inside an open span");
        r.enabled = false;
        std::mem::take(&mut r.spans)
    })
}

/// Busy and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Self time per span: `busy - Σ children.busy`.
///
/// # Panics
/// If the children of a span are busier than the span itself — the
/// recorder cannot produce that, so it would be a bug here.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_busy[s.parent as usize] += s.busy_ns;
        }
    }
    spans
        .iter()
        .zip(&child_busy)
        .map(|(s, &c)| {
            s.busy_ns.checked_sub(c).unwrap_or_else(|| {
                panic!("children of span {} busy {c} ns > its own {} ns", s.name, s.busy_ns)
            })
        })
        .collect()
}

/// Totals per span name, and the summed busy time of the root spans.
pub fn totals(spans: &[Span]) -> (BTreeMap<&'static str, NameTotals>, u64) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut root_ns = 0;
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let t = by_name.entry(s.name).or_default();
        t.calls += s.calls;
        t.busy_ns += s.busy_ns;
        t.self_ns += self_ns;
        if s.parent == NO_PARENT {
            root_ns += s.busy_ns;
        }
    }
    (by_name, root_ns)
}

/// `index,name,start_ns,end_ns,parent,calls,busy_ns` rows; `parent` is an
/// index into the same file, empty for a root.
pub fn to_csv(spans: &[Span]) -> String {
    let mut out = String::from("index,name,start_ns,end_ns,parent,calls,busy_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
        let _ = writeln!(
            out,
            "{i},{},{},{},{parent},{},{}",
            s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _ = stop_recording();
        within("a", || spin(10));
        start_recording();
        assert!(stop_recording().is_empty());
    }

    #[test]
    fn children_never_exceed_parent_and_self_times_sum_to_root() {
        start_recording();
        within("root", || {
            spin(200);
            within("layer", || {
                for _ in 0..50 {
                    within("leaf", || spin(5));
                }
                within("other", || spin(50));
                within("leaf", || spin(5));
            });
            within("layer", || spin(100));
        });
        let spans = stop_recording();
        // 50 leaves fold into one record; the leaf after `other` does not
        // fold across it, and the childless second `layer` does not fold
        // into the first, which has children.
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.calls)).collect();
        assert_eq!(
            names,
            [("root", 1), ("layer", 1), ("leaf", 50), ("other", 1), ("leaf", 1), ("layer", 1)]
        );
        let selfs = self_times(&spans); // panics if children exceed a parent
        let (by_name, root_ns) = totals(&spans);
        assert_eq!(root_ns, spans[0].busy_ns);
        assert_eq!(selfs.iter().sum::<u64>(), root_ns, "self times partition the root exactly");
        assert_eq!(by_name["leaf"].calls, 51);
        assert!(by_name["root"].self_ns >= 200_000);
        assert!(by_name["leaf"].busy_ns >= 51 * 5_000);
        // A folded record's wall extent also covers the gaps between calls.
        assert!(spans[2].end_ns - spans[2].start_ns >= spans[2].busy_ns);
        let csv = to_csv(&spans);
        assert_eq!(csv.lines().count(), 1 + spans.len());
        assert!(csv.lines().nth(1).unwrap().starts_with("0,root,"));
    }

    #[test]
    #[should_panic(expected = "children of span")]
    fn inconsistent_tree_is_rejected() {
        let s = |name, parent, busy_ns| Span {
            name,
            start_ns: 0,
            end_ns: busy_ns,
            parent,
            calls: 1,
            busy_ns,
            has_child: false,
        };
        self_times(&[s("p", NO_PARENT, 10), s("c", 0, 11)]);
    }
}
