//! The per-processor application handle.
//!
//! Application code runs one closure per simulated processor and talks
//! to the DSM exclusively through [`Proc`]: typed shared-memory access
//! (via [`SharedVec`](crate::SharedVec)), locks, barriers, and explicit
//! compute-time charges. Every access checks the software page
//! protection; denied accesses invoke the coherence protocol exactly as
//! a SIGSEGV handler would in TreadMarks.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use adsm_engine::Task;
use adsm_mempage::{FaultKind, PagedMemory};
use adsm_netsim::SimTime;
use adsm_vclock::ProcId;
use parking_lot::{Mutex, MutexGuard};

use crate::protocol::{self, sync, Ctx, Protocol};
use crate::world::World;
use crate::ProtocolKind;

/// Handle through which an application closure drives one simulated
/// processor.
pub struct Proc {
    pub(crate) task: Task,
    pub(crate) id: ProcId,
    pub(crate) nprocs: usize,
    pub(crate) world: Arc<Mutex<World>>,
    pub(crate) mems: Arc<Vec<Mutex<PagedMemory>>>,
    /// The run's protocol object (dispatch layer), selected once when
    /// the cluster is built. Raw included: its no-op synchronisation
    /// lives in `RawProtocol`, not in per-call-site checks here.
    pub(crate) proto: &'static dyn Protocol,
    /// Per-access fast path only ([`SpanGuard::finish`] skips the turn
    /// point under the single-processor Raw baseline).
    pub(crate) raw: bool,
    pub(crate) access_cost: SimTime,
    pub(crate) mem_per_byte_ns: u64,
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("id", &self.id)
            .field("nprocs", &self.nprocs)
            .finish()
    }
}

impl Proc {
    /// This processor's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Convenience: the id as a dense index.
    pub fn index(&self) -> usize {
        self.id.index()
    }

    /// Number of processors in the cluster.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charges `dt` of application compute time to this processor's
    /// virtual clock (the model of real CPU work between shared
    /// accesses).
    pub fn compute(&mut self, dt: SimTime) {
        self.task.advance(dt);
    }

    /// Current virtual time of this processor.
    pub fn clock(&self) -> SimTime {
        self.task.clock()
    }

    /// Acquires lock `lock_id` (locks are created on first use; the
    /// manager is statically `lock_id % nprocs`). Blocks until granted;
    /// the grant carries write notices per LRC.
    pub fn lock(&mut self, lock_id: u64) {
        self.task.yield_turn();
        let must_block = {
            let mut w = self.world.lock();
            let mut ctx = Ctx {
                w: &mut w,
                mems: &self.mems,
                task: &mut self.task,
            };
            self.proto.acquire(&mut ctx, self.id, lock_id) == sync::AcquireOutcome::MustBlock
        };
        if must_block {
            // The releaser completes the handshake (notices,
            // invalidations, wake-up time).
            self.task.block_on(adsm_engine::ParkHint::Lock(lock_id));
        }
    }

    /// Releases lock `lock_id`.
    ///
    /// # Panics
    ///
    /// Panics if this processor does not hold the lock.
    pub fn unlock(&mut self, lock_id: u64) {
        self.task.yield_turn();
        let mut w = self.world.lock();
        let mut ctx = Ctx {
            w: &mut w,
            mems: &self.mems,
            task: &mut self.task,
        };
        self.proto.release(&mut ctx, self.id, lock_id);
    }

    /// Waits until every processor reaches the barrier. Barrier
    /// completion exchanges write notices globally, runs the adaptive
    /// protocols' barrier-time detection, and performs diff garbage
    /// collection when requested.
    pub fn barrier(&mut self) {
        self.task.yield_turn();
        let must_block = {
            let mut w = self.world.lock();
            let mut ctx = Ctx {
                w: &mut w,
                mems: &self.mems,
                task: &mut self.task,
            };
            self.proto.barrier(&mut ctx, self.id) == sync::BarrierOutcome::MustBlock
        };
        if must_block {
            self.task.block_on(adsm_engine::ParkHint::Barrier);
        }
    }

    /// Faults the byte span `[addr, addr+len)` in for `kind` accesses
    /// and pins its rights: resolves page faults one at a time, then
    /// returns with the processor's memory mutex **held** — the backbone
    /// of the span-guard views ([`SharedView`](crate::SharedView) /
    /// [`SharedViewMut`](crate::SharedViewMut)).
    ///
    /// The rights check and the span's accesses share one hold of that
    /// mutex, and every protocol action that changes this processor's
    /// rights or reads its frames takes the same mutex: one rights
    /// check, one acquisition and (at [`SpanGuard::finish`]) one access
    /// tick cover the whole span. That pins the rights *during* a span
    /// and nothing more. On the threads backend a span needs no world
    /// lock, so it can run between any two steps of another processor's
    /// protocol action: an action that hands out a copy of this
    /// processor's frame must revoke the write right **before** it
    /// reads the bytes, inside one hold (`sc::revoke_then_copy`), or a
    /// span that opens in between writes bytes no copy will ever carry.
    pub(crate) fn span_guard(&mut self, addr: usize, len: usize, kind: FaultKind) -> SpanGuard<'_> {
        let id = self.id;
        let proto = self.proto;
        let access_cost = self.access_cost;
        let mem_per_byte_ns = self.mem_per_byte_ns;
        let raw = self.raw;
        // Disjoint field borrows of `self`: the engine task (mutable) and
        // the shared memory/world handles, so the returned guard can hold
        // the memory lock *and* the task handle it ticks on drop.
        let Proc {
            task, world, mems, ..
        } = self;
        let world: &Mutex<World> = world;
        let mems: &[Mutex<PagedMemory>] = mems;
        let mem_mutex = &mems[id.index()];
        let mut mem = mem_mutex.lock();
        loop {
            let Some(fault) = mem.first_fault(addr, len, kind) else {
                return SpanGuard {
                    mem: Some(mem),
                    task,
                    access_cost,
                    mem_per_byte_ns,
                    raw,
                };
            };
            drop(mem);
            // Faults are protocol interactions, so a turn point comes
            // first, then the protocol resolves the fault and the span
            // check retries.
            task.yield_turn();
            let mut w = world.lock();
            let mut ctx = Ctx {
                w: &mut w,
                mems,
                task: &mut *task,
            };
            match fault.kind {
                FaultKind::Read => protocol::read_fault(&mut ctx, proto, id, fault.page),
                FaultKind::Write => protocol::write_fault(&mut ctx, proto, id, fault.page),
            }
            // The memory lock comes back before the world lock goes
            // (world, then memory: the order every protocol action
            // takes them in), so on threads no other processor's action
            // can take the rights away again between the grant and the
            // re-check.
            mem = mem_mutex.lock();
        }
    }

    /// Runs `body` with lock `lock_id` held: acquires, runs, releases —
    /// the structured form of the [`lock`](Proc::lock) /
    /// [`unlock`](Proc::unlock) pair, with the release guaranteed on
    /// every exit path of `body`.
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, ProtocolKind};
    ///
    /// let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(2).build();
    /// let counter = dsm.alloc::<u64>(1);
    /// let outcome = dsm
    ///     .run(move |p| {
    ///         p.critical(0, |p| counter.update(p, 0, |v| v + 1));
    ///         p.barrier();
    ///     })
    ///     .unwrap();
    /// assert_eq!(outcome.read_vec(&counter)[0], 2);
    /// ```
    pub fn critical<R>(&mut self, lock_id: u64, body: impl FnOnce(&mut Proc) -> R) -> R {
        let mut guard = self.lock_guard(lock_id);
        body(&mut guard)
    }

    /// Acquires lock `lock_id` and returns an RAII guard that releases
    /// it on drop. The guard derefs to the [`Proc`], so shared-memory
    /// accesses inside the critical section go through the guard.
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, ProtocolKind};
    ///
    /// let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(2).build();
    /// let counter = dsm.alloc::<u64>(1);
    /// let outcome = dsm
    ///     .run(move |p| {
    ///         {
    ///             let mut cs = p.lock_guard(7);
    ///             let v = counter.get(&mut cs, 0);
    ///             counter.set(&mut cs, 0, v + 1);
    ///         }
    ///         p.barrier();
    ///     })
    ///     .unwrap();
    /// assert_eq!(outcome.read_vec(&counter)[0], 2);
    /// ```
    pub fn lock_guard(&mut self, lock_id: u64) -> LockGuard<'_> {
        self.lock(lock_id);
        LockGuard {
            proc: self,
            lock_id,
        }
    }

    pub(crate) fn is_raw(cfg: ProtocolKind) -> bool {
        cfg == ProtocolKind::Raw
    }
}

/// The machinery under a span view: the processor's memory lock, held
/// for the span's lifetime, plus the task handle and cost parameters
/// needed to charge the span's single access tick when it ends.
///
/// Invariant: the holder never yields the engine turn while the lock is
/// held (the tick's `yield_turn` happens in [`SpanGuard::finish`],
/// *after* the lock is released), so other processors — which only run
/// at turn points — can neither deadlock on this memory nor revoke the
/// span's page rights mid-span.
///
/// What the lock costs a span: on the simulator the carrier thread
/// holds every processor's memory for the run (`Dsm::run`), so opening
/// and closing a span is a flag set and cleared (≈ 1 ns), and a span
/// left open across a turn point fails the run with the shim's
/// re-entry panic; on the threads backend it is std's futex mutex, two
/// atomic read-modify-writes (≈ 17 ns uncontended). Either way it is
/// the span's only lock, with nothing taken under it.
pub(crate) struct SpanGuard<'a> {
    /// The held memory lock; `None` once finished.
    mem: Option<MutexGuard<'a, PagedMemory>>,
    task: &'a mut Task,
    access_cost: SimTime,
    mem_per_byte_ns: u64,
    raw: bool,
}

impl SpanGuard<'_> {
    /// The guarded memory (read side).
    pub fn mem(&self) -> &PagedMemory {
        self.mem.as_ref().expect("span guard holds the memory lock")
    }

    /// The guarded memory (write side).
    pub fn mem_mut(&mut self) -> &mut PagedMemory {
        self.mem.as_mut().expect("span guard holds the memory lock")
    }

    /// Ends the span: releases the memory lock first, then charges one
    /// access tick for `bytes` and offers the span's single turn point
    /// — the same sequence (and therefore the same virtual-time and
    /// scheduling behaviour) as one bulk byte read or write
    /// call over the span had under the pre-span access layer.
    pub fn finish(&mut self, bytes: usize) {
        self.mem = None;
        self.task.advance(
            self.access_cost
                .max(SimTime::from_ns(self.mem_per_byte_ns * bytes as u64)),
        );
        if !self.raw {
            self.task.yield_turn();
        }
    }
}

/// RAII guard for a DSM lock, returned by [`Proc::lock_guard`]: derefs
/// to the [`Proc`] and releases the lock when dropped — unless a panic
/// is unwinding through it, which fails the run with the lock held.
pub struct LockGuard<'a> {
    proc: &'a mut Proc,
    lock_id: u64,
}

impl LockGuard<'_> {
    /// The id of the held lock.
    pub fn lock_id(&self) -> u64 {
        self.lock_id
    }
}

impl Deref for LockGuard<'_> {
    type Target = Proc;
    fn deref(&self) -> &Proc {
        self.proc
    }
}

impl DerefMut for LockGuard<'_> {
    fn deref_mut(&mut self) -> &mut Proc {
        self.proc
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        // A release is a turn point, and a turn point of a poisoned run
        // panics: while this task is already unwinding that would be a
        // second panic, which aborts the process. The run is over; the
        // lock dies with it.
        if !std::thread::panicking() {
            self.proc.unlock(self.lock_id);
        }
    }
}

impl std::fmt::Debug for LockGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockGuard")
            .field("lock_id", &self.lock_id)
            .field("proc", &self.proc.id)
            .finish()
    }
}
