//! Structured tracing: spans and counters recorded against [`SimTime`].
//!
//! The [`Tracer`] is the platform's observability core. Subsystems record
//! **complete spans** retroactively — at the completion event they already
//! know the start instant from their own bookkeeping, so no span handle is
//! ever threaded through the simulation and instrumentation can never
//! perturb event order or timing. Names (categories, span names, arg keys)
//! are interned once into a small table; the hot recording path is a
//! branch (disabled → return) plus an amortized `Vec` push — no per-event
//! heap allocation and no formatting until export.
//!
//! Because every recorded instant comes from the deterministic simulation
//! clock, two runs with identical config + seed produce **byte-identical**
//! exports; trace files are usable as golden regression artifacts.
//!
//! Exporters:
//! * [`Tracer::to_chrome_json`] — Chrome `trace_event` JSON (load in
//!   `chrome://tracing` or <https://ui.perfetto.dev>): spans as `"X"`
//!   complete events (µs timestamps), counters as `"C"` events;
//! * [`Tracer::to_csv`] — flat CSV for ad-hoc analysis.

use crate::emit::{self, csv_row};
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::fmt::{Display, Write as _};

/// Maximum number of numeric args attached to one span.
pub const MAX_SPAN_ARGS: usize = 4;

/// Handle to an interned name. Obtained from [`Tracer::intern`] /
/// [`Tracer::intern_owned`]; resolved back with [`Tracer::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(u32);

crate::persist_struct!(Name(0));

/// A completed span: a named interval on a `track` (by convention the VM
/// id the work ran on), with up to [`MAX_SPAN_ARGS`] numeric arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Category (`map`, `shuffle`, `reduce`, `hdfs`, `migration`, ...).
    pub cat: Name,
    /// Event name within the category.
    pub name: Name,
    /// Track the span is drawn on (Chrome `tid`); VM id by convention.
    pub track: u32,
    /// Start instant.
    pub start: SimTime,
    /// End instant (the recording instant).
    pub end: SimTime,
    args: [(Name, f64); MAX_SPAN_ARGS],
    n_args: u8,
}

crate::persist_struct!(Span { cat, name, track, start, end, n_args, args });

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// The span's `(key, value)` arguments.
    pub fn args(&self) -> &[(Name, f64)] {
        &self.args[..usize::from(self.n_args)]
    }
}

/// One counter sample (a monitor column re-emitted into the trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Counter name (e.g. `vm3.vcpu`).
    pub name: Name,
    /// Sample instant.
    pub t: SimTime,
    /// Sampled value.
    pub value: f64,
}

crate::persist_struct!(CounterSample { name, t, value });

/// Aggregate statistics of one span category.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryStats {
    /// Category name.
    pub name: String,
    /// Number of spans.
    pub count: usize,
    /// Sum of span durations.
    pub total: SimDuration,
    /// Largest single span duration.
    pub max: SimDuration,
}

/// The span + counter registry. Disabled by default: every recording call
/// is then a single branch, so an untraced run pays nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    names: Vec<Cow<'static, str>>,
    spans: Vec<Span>,
    counters: Vec<CounterSample>,
}

// The full tracer state — name table, spans, counters — so a restored run
// keeps the prefix of events recorded before the checkpoint and its exports
// stay byte-identical to an uninterrupted run. Interned names decode as
// owned strings; later `intern` calls match them by string equality, so
// handles keep their indices.
crate::persist_struct!(Tracer { enabled, names, spans, counters });

impl Tracer {
    /// A disabled tracer (recording calls are no-ops until
    /// [`Tracer::set_enabled`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Already-recorded events are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Interns a static name, returning its handle. Idempotent: the same
    /// string always yields the same handle (pointer-free linear scan — the
    /// table holds a few dozen entries at most).
    pub fn intern(&mut self, name: &'static str) -> Name {
        self.intern_cow(Cow::Borrowed(name))
    }

    /// Interns a runtime-built name (e.g. a monitor column). Allocates at
    /// most once per distinct string — call at setup time, cache the
    /// handle, and the hot path stays allocation-free.
    pub fn intern_owned(&mut self, name: String) -> Name {
        self.intern_cow(Cow::Owned(name))
    }

    fn intern_cow(&mut self, name: Cow<'static, str>) -> Name {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return Name(i as u32);
        }
        self.names.push(name);
        Name((self.names.len() - 1) as u32)
    }

    /// Resolves a handle back to its string.
    pub fn name(&self, n: Name) -> &str {
        &self.names[n.0 as usize]
    }

    /// Records a complete span. No-op while disabled. Args beyond
    /// [`MAX_SPAN_ARGS`] are dropped.
    pub fn span(
        &mut self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        let cat = self.intern(cat);
        let name = self.intern(name);
        let mut stored = [(Name(0), 0.0); MAX_SPAN_ARGS];
        let n_args = args.len().min(MAX_SPAN_ARGS);
        for (slot, &(k, v)) in stored.iter_mut().zip(args.iter().take(MAX_SPAN_ARGS)) {
            *slot = (self.intern(k), v);
        }
        self.spans.push(Span { cat, name, track, start, end, args: stored, n_args: n_args as u8 });
    }

    /// Records a counter sample under a pre-interned name. No-op while
    /// disabled.
    pub fn counter(&mut self, name: Name, t: SimTime, value: f64) {
        if !self.enabled {
            return;
        }
        self.counters.push(CounterSample { name, t, value });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded counter samples, in recording order.
    pub fn counters(&self) -> &[CounterSample] {
        &self.counters
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Drops all recorded events (the name table is kept).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
    }

    /// Value of span argument `key`, if present.
    pub fn span_arg(&self, span: &Span, key: &str) -> Option<f64> {
        span.args().iter().find(|(k, _)| self.name(*k) == key).map(|&(_, v)| v)
    }

    /// Per-category aggregates over spans passing `filter`, sorted by
    /// category name.
    pub fn category_stats(&self, mut filter: impl FnMut(&Span) -> bool) -> Vec<CategoryStats> {
        let mut out: Vec<CategoryStats> = Vec::new();
        for s in self.spans.iter().filter(|s| filter(s)) {
            let cat = self.name(s.cat);
            let d = s.duration();
            match out.iter_mut().find(|c| c.name == cat) {
                Some(c) => {
                    c.count += 1;
                    c.total += d;
                    c.max = c.max.max(d);
                }
                None => {
                    out.push(CategoryStats { name: cat.to_string(), count: 1, total: d, max: d })
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Distinct span categories, sorted.
    pub fn categories(&self) -> Vec<&str> {
        let mut cats: Vec<&str> = Vec::new();
        for s in &self.spans {
            let c = self.name(s.cat);
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        cats.sort_unstable();
        cats
    }

    /// Chrome `trace_event` JSON. Timestamps are microseconds with
    /// nanosecond precision (`ns / 1000` + three decimals), formatted from
    /// integers — no floating-point rounding, so identical runs export
    /// byte-identical files. Streams straight into the output (a platform
    /// run holds tens of thousands of spans); names and values go through
    /// [`emit::escape`] and [`emit::number`].
    pub fn to_chrome_json(&self) -> String {
        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"name\":\"");
            emit::escape(&mut out, self.name(s.name));
            out.push_str("\",\"cat\":\"");
            emit::escape(&mut out, self.name(s.cat));
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{",
                us(s.start.as_nanos()),
                us(s.duration().as_nanos()),
                s.track,
            );
            for (i, &(k, v)) in s.args().iter().enumerate() {
                out.push_str(if i > 0 { ",\"" } else { "\"" });
                emit::escape(&mut out, self.name(k));
                out.push_str("\":");
                emit::number(&mut out, v);
            }
            out.push_str("}}");
        }
        for c in &self.counters {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"name\":\"");
            emit::escape(&mut out, self.name(c.name));
            let _ = write!(
                out,
                "\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"value\":",
                us(c.t.as_nanos()),
            );
            emit::number(&mut out, c.value);
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Flat CSV: one row per span and per counter sample.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,cat,name,track,start_ns,end_ns,dur_ns,value,args\n");
        let mut args = String::new();
        for s in &self.spans {
            args.clear();
            for (i, &(k, v)) in s.args().iter().enumerate() {
                let sep = if i > 0 { ";" } else { "" };
                let _ = write!(args, "{sep}{}={v}", self.name(k));
            }
            let (start, end, dur) = (s.start.as_nanos(), s.end.as_nanos(), s.duration().as_nanos());
            let (cat, name) = (self.name(s.cat), self.name(s.name));
            let row: [&dyn Display; 9] =
                [&"span", &cat, &name, &s.track, &start, &end, &dur, &"", &args];
            csv_row(&mut out, row);
        }
        for c in &self.counters {
            let (name, t) = (self.name(c.name), c.t.as_nanos());
            let row: [&dyn Display; 9] = [&"counter", &"", &name, &"", &t, &"", &"", &c.value, &""];
            csv_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{Decoder, Encoder, Persist};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.span("map", "map", 1, t(0), t(1), &[("job", 0.0)]);
        let n = tr.intern("x");
        tr.counter(n, t(1), 0.5);
        assert!(tr.is_empty());
    }

    #[test]
    fn interning_is_idempotent() {
        let mut tr = Tracer::new();
        let a = tr.intern("map");
        let b = tr.intern("map");
        let c = tr.intern("reduce");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(tr.name(a), "map");
        assert_eq!(tr.intern_owned("map".to_string()), a);
    }

    #[test]
    fn spans_and_stats() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.span("map", "map", 1, t(0), t(2), &[("job", 0.0), ("task", 3.0)]);
        tr.span("map", "map", 2, t(1), t(2), &[]);
        tr.span("reduce", "reduce", 1, t(2), t(5), &[]);
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.span_arg(&tr.spans()[0], "task"), Some(3.0));
        assert_eq!(tr.categories(), vec!["map", "reduce"]);
        let stats = tr.category_stats(|_| true);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "map");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].total, SimDuration::from_secs(3));
        assert_eq!(stats[1].max, SimDuration::from_secs(3));
    }

    #[test]
    fn chrome_export_is_wellformed_and_deterministic() {
        let run = || {
            let mut tr = Tracer::new();
            tr.set_enabled(true);
            tr.span("map", "map", 1, SimTime::ZERO, t(1), &[("job", 0.0)]);
            let n = tr.intern("vm1.vcpu");
            tr.counter(n, t(1), 0.25);
            tr.to_chrome_json()
        };
        let json = run();
        assert_eq!(json, run(), "export is deterministic");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"cat\":\"map\""));
        // 1 s = 1_000_000.000 µs.
        assert!(json.contains("\"dur\":1000000.000"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }

    /// Names come back from snapshot bytes as owned strings — outside
    /// input — so the exporters must escape them, and a non-finite value
    /// must not reach the JSON as `NaN`.
    #[test]
    fn restored_hostile_names_and_nan_export_escaped() {
        let hostile = "a\"b\\c\n\t\u{1}";
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let n = tr.intern_owned(hostile.to_string());
        tr.spans.push(Span {
            cat: n,
            name: n,
            track: 2,
            start: SimTime::ZERO,
            end: t(1),
            args: [(n, f64::INFINITY); MAX_SPAN_ARGS],
            n_args: 1,
        });
        tr.counter(n, t(1), f64::NAN);
        let mut e = Encoder::new();
        tr.encode(&mut e);
        let bytes = e.finish();
        let restored = Tracer::decode(&mut Decoder::new(&bytes));
        assert_eq!(restored.name(n), hostile);

        let esc = r#"a\"b\\c\n\t\u0001"#;
        let want = format!(
            "{{\"traceEvents\":[\n\
             {{\"name\":\"{esc}\",\"cat\":\"{esc}\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1000000.000,\
             \"pid\":0,\"tid\":2,\"args\":{{\"{esc}\":null}}}},\n\
             {{\"name\":\"{esc}\",\"ph\":\"C\",\"ts\":1000000.000,\"pid\":0,\"tid\":0,\
             \"args\":{{\"value\":null}}}}\n\
             ],\"displayTimeUnit\":\"ms\"}}\n"
        );
        assert_eq!(restored.to_chrome_json(), want);

        // The CSV quotes the same names (they hold a quote and a newline).
        let q = "\"a\"\"b\\c\n\t\u{1}\"";
        let want_csv = format!(
            "kind,cat,name,track,start_ns,end_ns,dur_ns,value,args\n\
             span,{q},{q},2,0,1000000000,1000000000,,\"a\"\"b\\c\n\t\u{1}=inf\"\n\
             counter,,{q},,1000000000,,,NaN,\n"
        );
        assert_eq!(restored.to_csv(), want_csv);
    }

    #[test]
    fn csv_export_has_rows() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.span("hdfs", "write", 4, t(0), t(3), &[("bytes", 1024.0)]);
        let csv = tr.to_csv();
        assert!(csv.starts_with("kind,cat,name,track,start_ns"));
        assert!(csv.contains("span,hdfs,write,4,0,3000000000,3000000000,,bytes=1024"));
    }
}
