//! # simcore — deterministic discrete-event kernel with a fluid resource model
//!
//! This crate is the timing substrate of **vHadoop-rs**. It provides:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — integer-nanosecond clock;
//! * [`fluid::FluidNet`] — resources (CPU cycles/s, disk & link bytes/s)
//!   shared by *flows* under progressive-filling max-min fairness, the same
//!   fluid abstraction SimGrid uses to model contention;
//! * [`engine::Engine`] — event queue, timers, and *activities*: chains of
//!   flow/delay steps, optionally AND-joined into batches, whose completions
//!   surface as tagged [`engine::Wakeup`]s;
//! * [`rng::RootSeed`] — labelled deterministic random streams;
//! * [`faults`] — a scriptable fault taxonomy ([`faults::FaultKind`]) and
//!   deterministic, seed-drivable schedules ([`faults::FaultPlan`]);
//! * [`stats`] — summary statistics used by monitors and benches;
//! * [`emit`] — the JSON value tree and CSV row writer every result file
//!   is rendered through;
//! * [`trace::Tracer`] — span + counter registry recorded against the
//!   simulation clock, with Chrome `trace_event` and CSV exporters.
//!
//! Higher layers (virtual cluster, HDFS, MapReduce) express every timed
//! action as an activity and react to wakeups; no component ever reads a
//! wall clock, so a whole platform run is a pure function of its
//! configuration and root seed.
//!
//! ## Example
//!
//! ```
//! use simcore::prelude::*;
//!
//! let mut e = Engine::new();
//! let link = e.add_resource("link", ResourceKind::Net, 125_000_000.0); // 1 Gb/s
//! // Two 125 MB transfers share the link: each runs at 62.5 MB/s.
//! e.start_flow(vec![link], 125e6, Tag::new(1, 0, 0));
//! e.start_flow(vec![link], 125e6, Tag::new(1, 1, 0));
//! let (t, _) = e.next_wakeup().unwrap();
//! assert_eq!(t.as_secs_f64().round() as u64, 2);
//! ```

#![warn(missing_docs)]

pub mod emit;
pub mod engine;
pub mod faults;
pub mod fluid;
pub mod ids;
pub mod owners;
pub mod persist;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

/// One-stop imports for kernel clients.
pub mod prelude {
    pub use crate::engine::{ChainSpec, Engine, KernelStats, Step, Wakeup};
    pub use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultProfile};
    pub use crate::fluid::{FluidNet, FluidStats, ResourceKind};
    pub use crate::ids::{ActivityId, BatchId, FlowId, ResourceId, Tag};
    pub use crate::persist::{
        validate_header, Decoder, Encoder, Persist, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
    };
    pub use crate::rng::RootSeed;
    pub use crate::stats::{OnlineStats, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{CategoryStats, CounterSample, Name, Span, Tracer};
}
