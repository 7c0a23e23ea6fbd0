//! # detector-ingest
//!
//! The report fold: every pinger report's per-path `(sent, lost)`
//! counters are added into a dense per-window vector, one slot per
//! probe-matrix row ([`ProbeMatrix::row_of`]), the moment the report
//! arrives. Sealing a window yields its sorted observation set — exactly
//! what aggregating the raw reports path by path gives, including ids
//! the matrix does not resolve, which an exact side list keeps.
//!
//! The runtime seam is `detector-system`'s `Diagnoser`, which owns one
//! [`WindowFold`] and feeds every driver — sequential `step()`,
//! `run_pipelined` and `run_distributed` — through it.
//!
//! [`ProbeMatrix::row_of`]: detector_core::pmc::ProbeMatrix::row_of

mod fold;

pub use fold::{SealedWindow, WindowFold};
