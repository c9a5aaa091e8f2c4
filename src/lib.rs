//! # adsm — adaptive single-/multiple-writer software DSM
//!
//! A Rust reproduction of *Amza, Cox, Dwarkadas, Zwaenepoel: "Software
//! DSM Protocols that Adapt between Single Writer and Multiple Writer"*
//! (HPCA 1997): lazy-release-consistency DSM protocols (MW, SW, and the
//! adaptive WFS / WFS+WG), a deterministic cluster simulator calibrated
//! to the paper's SPARC-20 + 155 Mbps ATM testbed, the paper's eight
//! evaluation applications, and a harness regenerating every table and
//! figure of the evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`adsm_core`] (as `core`) — the protocols and the DSM run driver.
//! * [`adsm_apps`] (as `apps`) — SOR, IS, 3D-FFT, TSP, Water, Shallow,
//!   Barnes-Hut, ILINK, plus the Figure-1 microkernels.
//! * [`adsm_vclock`], [`adsm_mempage`], [`adsm_netsim`],
//!   [`adsm_engine`] — the substrates.
//!
//! # Quick start
//!
//! ```
//! use adsm::{Dsm, ProtocolKind, SimTime};
//!
//! let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(4).build();
//! let data = dsm.alloc_page_aligned::<u64>(1024);
//! let outcome = dsm
//!     .run(move |p| {
//!         let chunk = data.len() / p.nprocs();
//!         let base = p.index() * chunk;
//!         for i in 0..chunk {
//!             data.set(p, base + i, (base + i) as u64);
//!         }
//!         p.compute(SimTime::from_us(200));
//!         p.barrier();
//!     })
//!     .unwrap();
//! assert!(outcome.report.time > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]

pub use adsm_apps as apps;
pub use adsm_core::*;
pub use adsm_engine as engine;
pub use adsm_mempage as mempage;
pub use adsm_netsim as netsim;
pub use adsm_vclock as vclock;

pub use adsm_apps::{run_app, run_app_tuned, sequential_time, App, AppRun, Scale};
