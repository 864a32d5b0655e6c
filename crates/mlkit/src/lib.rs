//! # mlkit — Mahout-style MapReduce-based parallel machine learning
//!
//! The paper's Machine Learning Algorithm Library: the six clustering
//! algorithms it evaluates (Canopy, Dirichlet, Fuzzy k-means, k-means,
//! MeanShift, MinHash), each implemented twice —
//!
//! * an **in-memory reference** (plain Rust, used for correctness
//!   testing and as the sequential baseline), and
//! * a **MapReduce formulation** faithful to Mahout's drivers, running on
//!   the simulated vHadoop platform via [`mlrt::MlRuntime`] with real
//!   data and simulated time;
//!
//! plus the paper's two data sets ([`datasets`]), quality metrics
//! ([`quality`]), and the DisplayClustering-style visualizer
//! ([`display`]). [`suite`] wraps everything behind one driver for the
//! Fig. 6/7 cluster-scale sweeps.

#![warn(missing_docs)]

pub mod canopy;
pub mod datasets;
pub mod dirichlet;
pub mod display;
pub mod fuzzy;
pub mod kmeans;
pub mod meanshift;
pub mod minhash;
pub mod mlrt;
pub mod quality;
pub mod suite;
pub mod vector;

/// Convenience imports.
pub mod prelude {
    pub use crate::canopy::{build_canopies, CanopyParams};
    pub use crate::datasets::{
        control_chart, control_chart_600, gaussian_mixture, gaussian_mixture_1000, Dataset,
    };
    pub use crate::dirichlet::{DirichletModel, DirichletParams};
    pub use crate::display::{render_ascii, render_svg, IterationTrail};
    pub use crate::fuzzy::FuzzyKMeansParams;
    pub use crate::kmeans::KMeansParams;
    pub use crate::meanshift::MeanShiftParams;
    pub use crate::minhash::MinHashParams;
    pub use crate::mlrt::{Clustering, MlRunStats, MlRuntime};
    pub use crate::quality::{purity, wcss};
    pub use crate::suite::{run_algorithm, scaled_cluster, Algorithm, DatasetKind, SuiteRun};
    pub use crate::vector::Distance;
}
