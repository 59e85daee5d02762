//! The repo benchmark: four real-TCP workloads against the live server,
//! client-observed end-to-end metrics, and a per-layer budget measured
//! only from outside the program. See `README.md` for the glossary.

pub mod alloc_count;
pub mod client;
pub mod compare;
pub mod harness;
pub mod layers;
pub mod reference;
pub mod run;
pub mod script;
pub mod stats;
pub mod suite;
pub mod verify;
