//! # workloads — the paper's MapReduce benchmark suite (Table I)
//!
//! | Name        | Category           | Module |
//! |-------------|--------------------|--------|
//! | Wordcount   | MapReduce          | [`wordcount`] |
//! | MRBench     | MapReduce          | [`mrbench`] |
//! | TeraSort    | MapReduce & HDFS   | [`tpcxhs`] ([`HsPlan::terasort`](tpcxhs::HsPlan::terasort)) |
//! | TestDFSIO   | HDFS               | [`dfsio`] |
//! | TPCx-HS     | MapReduce & HDFS   | [`tpcxhs`] |
//!
//! Plus [`textgen`], the TOEFL-reading-material stand-in (Zipf-distributed
//! English-like corpus). Every driver builds a fresh simulated cluster per
//! measurement so runs are independent, as in the paper's methodology of
//! averaging three fresh runs.

#![warn(missing_docs)]

pub mod dfsio;
pub mod loadgen;
pub mod mrbench;
pub mod textgen;
pub mod tpcxhs;
pub mod wordcount;

/// Convenience imports.
pub mod prelude {
    pub use crate::dfsio::{run_dfsio, DfsioReport};
    pub use crate::loadgen::{
        load_job, submit_load_job, ArrivalProcess, JobArrival, JobMix, SyntheticLoadApp,
    };
    pub use crate::mrbench::{run_mrbench, MrBenchApp, MrBenchReport};
    pub use crate::textgen::TextCorpus;
    pub use crate::tpcxhs::{
        hsgen_job, hssort_job, hsvalidate_job, hsvalidate_verdict, integrity_prescan,
        record_sort_checksums, register_hsgen, run_tpcxhs, HsCorruption, HsPlan, HsReport,
        HsValidateReport, HsViolation,
    };
    pub use crate::wordcount::{run_wordcount, WordCountApp, WordcountReport};
}
