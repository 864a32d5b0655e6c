//! Probe wrappers for the public user-code traits. Each forwards to the
//! wrapped value inside a span, so the probed pass runs the same simulation
//! as the plain one and only adds clock reads.

use crate::span;
use vhadoop::mapreduce::prelude::*;

/// Span names of one [`ProbedApp`]; the layer owning the user code (the
/// `workloads` or the `mlkit` crate) picks them.
#[derive(Debug, Clone, Copy)]
pub struct AppSpans {
    pub map: &'static str,
    pub combine: &'static str,
    pub reduce: &'static str,
}

pub const WORKLOADS: AppSpans =
    AppSpans { map: "workloads.map", combine: "workloads.combine", reduce: "workloads.reduce" };
pub const MLKIT: AppSpans =
    AppSpans { map: "mlkit.map", combine: "mlkit.combine", reduce: "mlkit.reduce" };

/// A [`MapReduceApp`] that times `map`, `combine` and `reduce`. The emit
/// callback (a `Vec` push inside `mapreduce`) is part of the user span.
pub struct ProbedApp {
    pub inner: Box<dyn MapReduceApp>,
    pub spans: AppSpans,
}

impl MapReduceApp for ProbedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn map(&self, key: &K, value: &V, out: &mut dyn FnMut(K, V)) {
        let _g = span::enter(self.spans.map);
        self.inner.map(key, value, out);
    }
    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        let _g = span::enter(self.spans.reduce);
        self.inner.reduce(key, values, out);
    }
    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        let _g = span::enter(self.spans.combine);
        self.inner.combine(key, values, out)
    }
    fn partitioner(&self) -> Box<dyn Partitioner> {
        self.inner.partitioner()
    }
    fn cost(&self) -> CostProfile {
        self.inner.cost()
    }
}

/// An [`InputFormat`] that times `read_split`.
pub struct ProbedInput(pub Box<dyn InputFormat>);

impl InputFormat for ProbedInput {
    fn split_count(&self) -> usize {
        self.0.split_count()
    }
    fn read_split(&self, idx: usize) -> Vec<Record> {
        let _g = span::enter("workloads.read_split");
        self.0.read_split(idx)
    }
    fn split_bytes(&self, idx: usize) -> u64 {
        self.0.split_bytes(idx)
    }
}

/// Wraps a job's user code in both probes.
pub fn wrap(
    spans: AppSpans,
    app: Box<dyn MapReduceApp>,
    input: Box<dyn InputFormat>,
) -> (Box<dyn MapReduceApp>, Box<dyn InputFormat>) {
    (Box::new(ProbedApp { inner: app, spans }), Box::new(ProbedInput(input)))
}
