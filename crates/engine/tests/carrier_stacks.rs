//! `Engine::run` maps its coroutine stacks once per process: a run takes
//! the stacks earlier runs have finished with, and maps only what the
//! pool lacks. A test binary of its own: the count below is the whole
//! process's, and other tests running beside it would move it.

use std::sync::atomic::{AtomicUsize, Ordering};

use adsm_engine::Engine;
use adsm_netsim::SimTime;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("Linux exposes the process's mappings")
        .lines()
        .count()
}

/// `n` tasks, a few turn points each; returns the mapping count task 0
/// saw in mid-run.
fn run(n: usize) -> usize {
    let during = AtomicUsize::new(0);
    Engine::new(n)
        .run(|mut t| {
            for turn in 0..3 {
                t.advance(SimTime::from_us(10));
                t.yield_turn();
                if t.id() == 0 && turn == 1 {
                    during.store(mappings(), Ordering::Relaxed);
                }
            }
            t
        })
        .expect("a clean run");
    during.into_inner()
}

#[test]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn runs_after_the_first_reuse_its_stacks_and_map_nothing() {
    let before = mappings();
    let during = run(256);
    assert!(
        during >= before + 256,
        "{during} mappings in mid-run, {before} before: the stacks are not in the count"
    );
    // What stays: the 256 pooled stacks, and the carrier thread's
    // allocator arena. In mid-run there is the carrier's own stack too.
    let settled = mappings();
    let busy = run(256);
    assert_eq!(mappings(), settled, "run 2 left mappings behind");
    for round in 3..=5 {
        assert_eq!(run(256), busy, "run {round} mapped in mid-run");
        assert_eq!(mappings(), settled, "run {round} left mappings behind");
    }
    assert_eq!(run(8), busy, "an 8-task run mapped in mid-run");
    assert_eq!(mappings(), settled, "an 8-task run left mappings behind");
}
