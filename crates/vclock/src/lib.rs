//! Vector timestamps, intervals, and the *happened-before-1* partial order.
//!
//! Lazy release consistency (LRC) orders shared-memory modifications with
//! the happened-before-1 partial order of Adve and Hill: the union of the
//! per-processor program order and the order induced by release/acquire
//! pairs. Following Keleher et al., the execution of each processor is
//! split into **intervals**, delimited by that processor's synchronisation
//! operations, and the partial order over intervals is represented with
//! **vector timestamps**.
//!
//! This crate is the bottom layer of the `adsm` workspace: it knows nothing
//! about pages, networks, or protocols — only logical time.
//!
//! # Examples
//!
//! ```
//! use adsm_vclock::{CausalOrder, ProcId, VectorClock};
//!
//! let p0 = ProcId::new(0);
//! let p1 = ProcId::new(1);
//!
//! let mut a = VectorClock::new(2);
//! let mut b = VectorClock::new(2);
//! a.tick(p0); // a = [1, 0]
//! b.tick(p1); // b = [0, 1]
//! assert_eq!(a.causal_cmp(&b), CausalOrder::Concurrent);
//!
//! b.merge(&a); // b = [1, 1]: p1 acquired from p0
//! assert_eq!(a.causal_cmp(&b), CausalOrder::Before);
//! ```

#![forbid(unsafe_code)]

mod clock;
mod interval;
mod proc_id;

pub use clock::{CausalOrder, VectorClock};
pub use interval::{Interval, IntervalId};
pub use proc_id::ProcId;
