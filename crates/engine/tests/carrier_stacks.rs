//! `Engine::run` gives back what it maps. A test binary of its own: the
//! count below is the whole process's, and other tests running beside it
//! would move it.

use std::sync::atomic::{AtomicUsize, Ordering};

use adsm_engine::Engine;
use adsm_netsim::SimTime;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("Linux exposes the process's mappings")
        .lines()
        .count()
}

/// 256 tasks, a few turn points each; returns the mapping count task 0
/// saw in mid-run.
fn run_256() -> usize {
    let during = AtomicUsize::new(0);
    Engine::new(256)
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
fn a_run_of_256_tasks_unmaps_its_stacks() {
    // The first run also pays for what stays: the carrier thread's
    // allocator arena and its cached thread stack.
    run_256();
    let before = mappings();
    let during = run_256();
    assert!(
        during >= before + 256,
        "{during} mappings in mid-run, {before} before: the stacks are not in the count"
    );
    assert_eq!(mappings(), before, "mappings left behind by a run");
}
