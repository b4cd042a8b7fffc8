//! `certbench`: the end-to-end and per-layer benchmark of the certnn
//! verification stack. See `README.md` in this directory for the metric
//! map and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod check;
pub mod inproc;
pub mod ledger;
pub mod pool;
pub mod probe;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
