//! xqd — the eXrQuy serving daemon.
//!
//! A long-lived process multiplexing many client connections over a
//! bounded worker pool that shares one immutable catalog snapshot
//! ([`exrquy::Executor`]). The protocol is line-delimited JSON over
//! TCP (see [`proto`]); the robustness story — bounded admission,
//! deadline shedding, per-client fairness, graceful drain, hot reload,
//! and panic containment — lives in [`server`].
//!
//! Std-only by the repo's dependency policy: no async runtime, no
//! serde. The [`json`] module is the shared JSON codec, also used by
//! the bench report writers and the `xqc` client.

mod chaos;
pub mod json;
pub mod proto;
pub mod server;

pub use server::{spawn, ServerConfig, ServerHandle, StatsSnapshot};
