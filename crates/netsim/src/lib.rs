//! Virtual-time network model and traffic accounting for the `adsm` DSM.
//!
//! The paper evaluates on 8 SPARC-20 model 61 workstations connected by a
//! 155 Mbps ATM network, communicating over UDP. We cannot use that
//! hardware, so this crate substitutes a **cost model** calibrated to the
//! paper's own Section 4 micro-measurements:
//!
//! * minimum round-trip time, smallest message: **1 ms**;
//! * remote access miss fetching a 4096-byte page: **1921 µs**;
//! * twin creation: **104 µs**; full-page diff creation: **179 µs**;
//! * single-writer ownership quantum: **1 ms**;
//! * diff garbage-collection threshold: **1 MB** per processor (Fig. 3);
//! * write-granularity threshold (WFS+WG): **3 KB**.
//!
//! Protocol executions charge these costs to per-processor virtual
//! clocks; speedups, traffic tables and the Fig. 3 time series are all
//! derived from virtual time, which makes every run deterministic.

#![forbid(unsafe_code)]

mod cost;
mod delivery;
mod replay;
pub mod scenario;
mod stats;
mod time;
mod trace;

pub use cost::CostModel;
pub use delivery::{Delivery, DeliveryOutcome};
pub use replay::{DeliveryJournal, JournalEvent};
pub use scenario::{
    crash_windows, CrashWindow, Fault, FaultKind, LinkProfile, RetryPolicy, Scenario,
    ScenarioParseError,
};
pub use stats::{MsgKind, NetStats, MSG_HEADER_BYTES};
pub use time::SimTime;
pub use trace::{Trace, TraceKind, TracePoint};
