//! Integration: the per-input cache of sequential references
//! (`adsm_apps::support::Oracle`), through each application's public
//! `reference`. The caches are process-wide, so each test keeps to an
//! application of its own.

use std::sync::{Arc, Barrier};

use adsm::apps::{ilink, is, sor};
use adsm::Scale;

#[test]
fn same_input_shares_one_reference_and_another_input_gets_its_own() {
    let params = sor::SorParams::new(Scale::Tiny);
    let first = sor::reference(&params);
    assert!(Arc::ptr_eq(&first, &sor::reference(&params)));

    let longer = sor::SorParams {
        iters: params.iters + 1,
        ..params
    };
    let other = sor::reference(&longer);
    assert_ne!(*other, *first);
    // One more iteration lets more heat in from the boundary: the new
    // input's own reference, not a stale copy of the old one.
    assert!(other[params.cols + 1] > first[params.cols + 1]);
    assert!(Arc::ptr_eq(&first, &sor::reference(&params)));
}

#[test]
fn a_fifth_input_evicts_the_least_recently_used() {
    let input = |iters| ilink::IlinkParams {
        iters,
        ..ilink::IlinkParams::new(Scale::Tiny)
    };
    let one = ilink::reference(&input(1));
    let two = ilink::reference(&input(2));
    for iters in [3, 4, 1] {
        ilink::reference(&input(iters));
    }
    // 2 is now the oldest of the four; 5 takes its slot.
    ilink::reference(&input(5));
    assert!(Arc::ptr_eq(&one, &ilink::reference(&input(1))));
    let again = ilink::reference(&input(2));
    assert!(!Arc::ptr_eq(&two, &again), "recomputed after eviction");
    assert_eq!(*two, *again);
}

#[test]
fn eight_threads_racing_on_a_cold_input_get_equal_contents() {
    let params = is::IsParams {
        seed: 7,
        ..is::IsParams::new(Scale::Tiny)
    };
    let start = Barrier::new(8);
    let got: Vec<Arc<Vec<u64>>> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    is::reference(&params)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let total: u64 = got[0].iter().sum();
    assert_eq!(total, (params.iters as u64) << params.log_keys);
    assert!(got.iter().all(|g| **g == *got[0]));
}
