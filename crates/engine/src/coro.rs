//! Stackful coroutines: what [`Engine::run`](crate::Engine::run) runs
//! the simulator's tasks on.
//!
//! Only one simulator task executes at a time, so the tasks of a run do
//! not need a kernel thread each: they are coroutines on one *carrier*
//! thread, and a turn handoff is [`switch`] — a dozen instructions that
//! swap the callee-saved registers and the stack pointer — instead of an
//! `unpark`, a `park` and the kernel context switch between them.
//!
//! [`run`] gives every coroutine a stack (2 MiB, lazily committed, with a
//! `PROT_NONE` guard below it so an overflow faults instead of
//! scribbling over a neighbour), resumes the first one and returns when
//! a coroutine's `entry` says there is nothing left to resume. Which
//! coroutine runs next is never decided here: `entry` and [`switch`]
//! are told by the engine's one scheduler.
//!
//! A stack is mapped once per process, not once per run: a coroutine
//! that has finished leaves no frame on its stack, and gives it back to
//! a process-wide pool that the next coroutines, of this run's thread
//! or any other, take theirs from. The pool keeps at most as many
//! stacks as the largest set run so far; a stack with live frames — a
//! coroutine abandoned in mid-body — is never pooled, and stays leaked.
//!
//! All `unsafe` of the engine lives in this file. The functions it
//! exports are safe to call with any arguments, from any thread: a
//! misdirected call panics (no set on this thread, `from` not the
//! running coroutine, `to` finished) before it touches a stack pointer.
//!
//! There is one `switch` arm, x86_64 Linux. Every other target reports
//! [`AVAILABLE`]` == false` and the engine keeps each task on a thread
//! of its own there.

/// Whether this target has a `switch` arm.
pub(crate) const AVAILABLE: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

pub(crate) use imp::{run, switch};

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    pub(crate) fn run(_n: usize, _first: usize, _entry: &dyn Fn(usize) -> Option<usize>) {
        unreachable!("coroutines are not available on this target");
    }

    pub(crate) fn switch(_from: usize, _to: usize) {
        unreachable!("coroutines are not available on this target");
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use std::cell::Cell;
    use std::ffi::{c_int, c_void};
    use std::ptr;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Usable bytes of a coroutine's stack: what a Rust thread gets by
    /// default, committed only as far as it is touched.
    const STACK_BYTES: usize = 2 << 20;
    /// The inaccessible range below a stack (a multiple of the page).
    const GUARD_BYTES: usize = 4096;

    // <sys/mman.h>, Linux.
    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_STACK: c_int = 0x2_0000;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// One mapping: `GUARD_BYTES` without access, then `STACK_BYTES`
    /// readable and writable.
    struct Stack {
        base: *mut c_void,
    }

    // SAFETY: a `Stack` is the sole owner of its mapping, which no other
    // value refers to; `Coro::drop` pools only the stacks no frame is
    // live on, so a pooled one may be handed to a set on any thread.
    unsafe impl Send for Stack {}

    /// The stacks of finished coroutines, waiting for the next ones.
    struct Pool {
        stacks: Vec<Stack>,
        /// Coroutines in the largest set run so far: the most stacks
        /// the pool keeps.
        largest: usize,
    }

    static POOL: Mutex<Pool> = Mutex::new(Pool {
        stacks: Vec::new(),
        largest: 0,
    });

    /// The pool; nothing can panic while it is locked, so a poisoned lock
    /// is still a consistent pool.
    fn pool() -> MutexGuard<'static, Pool> {
        POOL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    impl Stack {
        fn map() -> Stack {
            // SAFETY: a new anonymous private mapping at an address the
            // kernel chooses aliases no existing memory.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    GUARD_BYTES + STACK_BYTES,
                    PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            assert!(base != MAP_FAILED, "mmap of a coroutine stack failed");
            let stack = Stack { base };
            // SAFETY: the range lies inside the mapping made above,
            // which nothing else knows of yet.
            let rc = unsafe {
                mprotect(
                    stack.base.byte_add(GUARD_BYTES),
                    STACK_BYTES,
                    PROT_READ | PROT_WRITE,
                )
            };
            assert_eq!(rc, 0, "mprotect of a coroutine stack failed");
            stack
        }

        /// One past the highest byte; page-aligned.
        fn top(&self) -> usize {
            self.base as usize + GUARD_BYTES + STACK_BYTES
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: exactly the range `map` mapped. `Coro::drop`
            // lets this run only for a stack no frame is live on.
            unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
        }
    }

    struct Coro {
        /// `None` only inside `drop`.
        stack: Option<Stack>,
        /// The stack pointer [`switch_context`] left this coroutine
        /// with; meaningful whenever it is not the one running.
        sp: Cell<usize>,
        /// `entry` has returned: never resumed again, no frame left.
        finished: Cell<bool>,
    }

    impl Coro {
        /// A fresh coroutine on a pooled stack, or on a newly mapped one
        /// when the pool is empty.
        fn new() -> Coro {
            let pooled = pool().stacks.pop();
            let stack = pooled.unwrap_or_else(Stack::map);
            // What `switch_context` unwinds when it first resumes this
            // coroutine: six zeroed callee-saved registers, then the
            // address its `ret` jumps to. That address sits on a
            // 16-byte boundary, so `trampoline` starts with the stack
            // pointer 8 past one, exactly as after a `call`; the word
            // above it is where a return address would be, and its zero
            // is where a backtrace stops.
            let frame: [usize; 8] = [0, 0, 0, 0, 0, 0, trampoline as *const () as usize, 0];
            let sp = stack.top() - size_of_val(&frame);
            // SAFETY: the 64 bytes below `top` are inside the writable
            // part of the mapping, aligned for `usize` (`top` is
            // page-aligned), and nothing else refers to them: a pooled
            // stack's last coroutine has finished.
            unsafe { ptr::write(sp as *mut [usize; 8], frame) };
            Coro {
                stack: Some(stack),
                sp: Cell::new(sp),
                finished: Cell::new(false),
            }
        }
    }

    impl Drop for Coro {
        fn drop(&mut self) {
            let Some(stack) = self.stack.take() else {
                return;
            };
            // A coroutine abandoned in mid-body still has live frames:
            // values whose destructors never ran, possibly pointed to
            // from elsewhere. Its stack is leaked, neither unmapped nor
            // reused. (The engine never gets here: it resumes every
            // coroutine until its `entry` has returned.)
            if !self.finished.get() {
                return std::mem::forget(stack);
            }
            // Beyond what the largest set needs, it is unmapped (after
            // the guard is gone: locals drop in reverse order).
            let mut pool = pool();
            if pool.stacks.len() < pool.largest {
                pool.stacks.push(stack);
            }
        }
    }

    /// `current` while the thread's own context — [`run`]'s frame — is
    /// the one running.
    const MAIN: usize = usize::MAX;

    struct Set<'a> {
        coros: Vec<Coro>,
        /// Stack pointer of the thread's own context while a coroutine
        /// runs.
        main_sp: Cell<usize>,
        /// The running coroutine, or [`MAIN`].
        current: Cell<usize>,
        entry: &'a dyn Fn(usize) -> Option<usize>,
    }

    impl Set<'_> {
        /// The stack pointer to resume coroutine `to` with.
        fn resume_sp(&self, to: usize) -> usize {
            let coro = &self.coros[to];
            assert!(
                to != self.current.get() && !coro.finished.get(),
                "coroutine {to} is running or finished and cannot be resumed"
            );
            coro.sp.get()
        }
    }

    thread_local! {
        /// The set [`run`] is running on this thread, if any.
        static ACTIVE: Cell<*const ()> = const { Cell::new(ptr::null()) };
    }

    /// The set running on this thread.
    fn active<'a>() -> &'a Set<'a> {
        let set = ACTIVE.get();
        assert!(!set.is_null(), "not on a coroutine carrier thread");
        // SAFETY: `run` stores the address of a `Set` local to its own
        // frame and clears it before that frame ends, so on this thread
        // non-null means alive; the set is only ever used through
        // shared references (its mutable parts are `Cell`s) and never
        // leaves the thread. The caller either returns before `run`
        // does, or is a coroutine that `run` outlived and that is never
        // resumed to use the reference again.
        unsafe { &*(set as *const Set<'a>) }
    }

    /// Saves the running context — callee-saved registers pushed on its
    /// stack, the resulting stack pointer stored to `*save` — and
    /// resumes the one `load` was saved from, returning from *its* call
    /// of this function (or, for a fresh coroutine, into
    /// [`trampoline`]). MXCSR and the x87 control word are not swapped:
    /// every context of a set runs on one thread and nothing here
    /// changes them.
    ///
    /// # Safety
    ///
    /// `save` must be valid for a write, and `load` must be the stack
    /// pointer of a suspended context of the calling thread — one this
    /// function stored, or an initial frame as [`Coro::new`] lays it
    /// out — whose stack is still mapped and which is resumed at most
    /// once per suspension.
    #[unsafe(naked)]
    unsafe extern "C" fn switch_context(save: *mut usize, load: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Where a fresh coroutine starts. `extern "C"`: a panic that
    /// reached this frame has no caller to unwind into, and the ABI
    /// turns it into an abort instead.
    extern "C" fn trampoline() -> ! {
        let set = active();
        let me = set.current.get();
        let next = (set.entry)(me);
        let sp = match next {
            Some(to) => set.resume_sp(to),
            None => set.main_sp.get(),
        };
        set.coros[me].finished.set(true);
        set.current.set(next.unwrap_or(MAIN));
        // SAFETY: `sp` is the saved stack pointer of a suspended
        // context of this thread: a coroutine `resume_sp` vouched for
        // (`current` is updated in step, so it cannot be resumed twice),
        // or `run`'s frame, suspended since it resumed the first
        // coroutine. The save slot is this coroutine's own and is never
        // loaded again, `finished` being final.
        unsafe { switch_context(set.coros[me].sp.as_ptr(), sp) };
        unreachable!("a finished coroutine was resumed");
    }

    /// Runs `n` coroutines on the calling thread, starting with
    /// `first`. Coroutine `i` executes `entry(i)`, which returns the
    /// coroutine to resume once `i` is over — it is called on `i`'s own
    /// stack, so whatever it created is dropped by the time it returns —
    /// or `None` to come back here. `entry` must not unwind (the
    /// process aborts if it does).
    ///
    /// # Panics
    ///
    /// Panics if a set is already running on this thread.
    pub(crate) fn run(n: usize, first: usize, entry: &dyn Fn(usize) -> Option<usize>) {
        assert!(
            ACTIVE.get().is_null(),
            "coroutine sets do not nest on one thread"
        );
        {
            let mut pool = pool();
            pool.largest = pool.largest.max(n);
        }
        let set = Set {
            coros: (0..n).map(|_| Coro::new()).collect(),
            main_sp: Cell::new(0),
            current: Cell::new(MAIN),
            entry,
        };
        struct Deactivate;
        impl Drop for Deactivate {
            fn drop(&mut self) {
                ACTIVE.set(ptr::null());
            }
        }
        // Declared after `set`, so dropped before it.
        let _deactivate = Deactivate;
        ACTIVE.set(&set as *const Set<'_> as *const ());
        let sp = set.resume_sp(first);
        set.current.set(first);
        // SAFETY: `sp` is the initial frame of a fresh coroutine whose
        // stack `set` keeps mapped; this frame stays suspended, and
        // `set` with it, until a trampoline loads `main_sp`.
        unsafe { switch_context(set.main_sp.as_ptr(), sp) };
    }

    /// Suspends the running coroutine `from` and resumes `to`; returns
    /// when some later switch resumes `from`.
    ///
    /// # Panics
    ///
    /// Panics if no set runs on this thread, if `from` is not the
    /// running coroutine, or if `to` is running, finished or out of
    /// range.
    pub(crate) fn switch(from: usize, to: usize) {
        let set = active();
        assert_eq!(
            set.current.get(),
            from,
            "switch from a coroutine that is not the running one"
        );
        let sp = set.resume_sp(to);
        set.current.set(to);
        // SAFETY: `from` is the running coroutine, so the save slot is
        // its own; `sp` belongs to a suspended coroutine of this
        // thread's set (`resume_sp`), whose stack the set keeps mapped,
        // and `current` now names it, so nothing resumes it again until
        // it has suspended itself.
        unsafe { switch_context(set.coros[from].sp.as_ptr(), sp) };
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::cell::RefCell;

        #[test]
        fn coroutines_interleave_and_return_to_the_caller() {
            let log = RefCell::new(Vec::new());
            run(2, 0, &|me| {
                for step in 0..3 {
                    log.borrow_mut().push((me, step));
                    // 0 starts 1 on its first switch; after that they
                    // ping-pong until 0 is over.
                    if me == 0 || step < 2 {
                        switch(me, 1 - me);
                    }
                }
                (me == 0).then_some(1)
            });
            assert_eq!(
                *log.borrow(),
                [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
            );
        }

        #[test]
        #[should_panic(expected = "not on a coroutine carrier thread")]
        fn switch_outside_a_set_panics() {
            switch(0, 1);
        }
    }
}
