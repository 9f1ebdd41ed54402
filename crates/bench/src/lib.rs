//! # labflow-bench
//!
//! The `labflow-harness` binary for the LabFlow-1 benchmark: it runs
//! the paper-shaped experiments (all intervals, all versions) and
//! prints their tables (see DESIGN.md's experiment index). End-to-end
//! timing with a per-layer breakdown is `labflow1`'s job
//! (`benchmark/`).
