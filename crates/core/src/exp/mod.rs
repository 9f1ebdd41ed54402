//! One module per experiment family: each owns its point struct, its
//! runner and its renderer, built from the shared kit in
//! [`crate::runner`] and [`crate::report::Table`]. The registry in
//! [`crate::experiments`] maps the DESIGN.md ids onto them.

pub mod build;
pub mod clustering;
pub mod concurrency;
pub mod crash;
pub mod evolution;
pub mod queries;
pub mod replication;
pub mod server;
pub mod writers;
