//! # adsm-core: adaptive single-/multiple-writer software DSM
//!
//! A Rust implementation of the lazy-release-consistency (LRC) software
//! distributed shared memory protocols of
//!
//! > C. Amza, A. L. Cox, S. Dwarkadas, W. Zwaenepoel, *"Software DSM
//! > Protocols that Adapt between Single Writer and Multiple Writer"*,
//! > HPCA 1997.
//!
//! Four protocols are provided (selected with [`ProtocolKind`]):
//!
//! * **MW** — TreadMarks-style multiple writer: concurrent writable
//!   copies, write detection by (software) page protection, twinning and
//!   diffing, diff garbage collection at barriers.
//! * **SW** — CVM-style single writer: one writable copy per page,
//!   version numbers, home-based ownership location, whole-page
//!   transfers, a 1 ms ownership quantum against ping-ponging.
//! * **WFS** — adapts per page between SW and MW based on *write-write
//!   false sharing*, detected with the paper's ownership refusal
//!   protocol; switches back on three cessation-detection mechanisms.
//! * **WFS+WG** — additionally adapts to *write granularity*: pages with
//!   small diffs stay in MW mode, pages with large diffs move to SW.
//!
//! Two related-work comparators round out §7's positioning (not part of
//! the paper's Figure 2 matrix):
//!
//! * **SC** — a sequentially-consistent write-invalidate protocol
//!   (IVY-style), the baseline behind Keleher's LRC-vs-SC observation.
//! * **HLRC** — home-based LRC (Zhou et al.): diffs flushed to a fixed
//!   home at interval close, whole-page misses served by the home; the
//!   home placement policy ([`HomePolicy`]) is configurable.
//!
//! The cluster itself is simulated: a deterministic engine
//! (`adsm-engine`) runs one task per processor in virtual-time order,
//! and a cost model (`adsm-netsim`) calibrated to the paper's testbed
//! charges every message, twin, diff and fault. Runs are therefore
//! reproducible bit-for-bit, and reports contain the paper's entire
//! evaluation surface: speedups, traffic, memory, adaptation events.
//!
//! A run is a protocol, a processor count and one [`RunOptions`] value
//! ([`Dsm::builder`]`(protocol).nprocs(n).options(opts)`): its six
//! fields are the cost model, HLRC home policy, execution backend, chaos
//! scenario, schedule fuzzing and the host-cost measurement switch, each
//! defaulting to the paper's testbed. SC's invariant checks are no
//! setting: they run after every SC fault in a debug build.
//!
//! # Quick start
//!
//! ```
//! use adsm_core::{Dsm, ProtocolKind};
//! use adsm_netsim::SimTime;
//!
//! // Two processors increment disjoint halves of a shared array under
//! // the adaptive WFS protocol.
//! let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(2).build();
//! let data = dsm.alloc_page_aligned::<u64>(2048);
//! let outcome = dsm
//!     .run(move |p| {
//!         let half = data.len() / 2;
//!         let base = p.index() * half;
//!         for i in 0..half {
//!             data.set(p, base + i, (base + i) as u64);
//!         }
//!         p.compute(SimTime::from_us(500));
//!         p.barrier();
//!     })
//!     .unwrap();
//! let vals = outcome.read_vec(&data);
//! assert!(vals.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod memio;
mod metrics;
mod notice;
mod proc;
pub mod profile;
mod protocol;
mod system;
mod world;

pub use config::{ExecBackend, HomePolicy, ProtocolKind, RunOptions};
pub use memio::{SharedMatrix, SharedVec, SharedView, SharedViewMut};
pub use metrics::{NsHistogram, ProtocolStats, RunReport, SwitchCause};
pub use proc::Proc;
pub use profile::{GrainClass, ProfileSummary};
pub use system::{Dsm, DsmBuilder, RunError, RunOutcome};

// Re-export the substrate types that appear in this crate's public API.
pub use adsm_mempage::{PageId, Pod, PAGE_SIZE};
pub use adsm_netsim::{
    CostModel, Delivery, DeliveryJournal, Fault, FaultKind, JournalEvent, LinkProfile, MsgKind,
    NetStats, Scenario, SimTime,
};
pub use adsm_vclock::ProcId;
