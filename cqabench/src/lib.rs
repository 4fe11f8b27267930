//! # cqabench — the CQA/CDB benchmark
//!
//! One seeded, single-process, closed-loop load generator with one
//! client. It drives the system through the front door its users drive —
//! CQA script text through [`cqa::lang::ScriptRunner`], and
//! [`cqa::lang::db::open_catalog`] / [`cqa::lang::db::save_catalog`] —
//! at `ExecOptions::with_threads(n)` for the machine's `n` hardware
//! threads, and checks every answer against an oracle of its own.
//!
//! * [`gen`] makes every input from the seed, as text;
//! * [`workload`] defines the four workloads: set-up, op stream, oracles;
//! * [`run`] runs the untraced closed loop (end-to-end metrics) and the
//!   traced pass (per-layer metrics);
//! * [`layers`] times each layer's public entry points from the
//!   benchmark's own code;
//! * [`stats`] holds order statistics and the process's peak memory.

pub mod gen;
pub mod layers;
pub mod run;
pub mod stats;
pub mod workload;
