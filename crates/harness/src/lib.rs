#![warn(missing_docs)]

//! # ompvar-harness — the paper's experiments
//!
//! One module per table/figure of the evaluation, each producing an
//! [`common::ExpReport`] with paper-style tables and shape checks.

pub mod common;
pub mod sweep;
pub mod table2;

pub use common::{Check, ExpOptions, ExpReport, Platform};
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig67;
pub mod ablation;
pub mod taskbench_exp;
pub mod chunks;
pub mod faults_exp;
pub mod fuzz_exp;
pub mod analyze_exp;
pub mod trace_exp;
pub mod campaign_exp;
pub mod chaos_exp;
pub mod variability;
