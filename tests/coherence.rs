//! Coherence property test: randomly generated data-race-free programs
//! must produce exactly the sequential result under every protocol.
//!
//! The generator builds an epoch-structured program: in each epoch every
//! processor writes a randomly assigned, disjoint slice of the shared
//! space (assignments reshuffle every epoch, creating migratory sharing
//! and write-write false sharing at slice boundaries); epochs are
//! separated by barriers; some epochs also increment a shared counter
//! under a lock. Reads of foreign data happen in the epoch after the
//! write, keeping the program data-race-free at word granularity. The
//! expected final memory is computed alongside; all six protocols (the
//! paper's four plus the SC and HLRC comparators) must reproduce it bit
//! for bit — and must keep reproducing it under **schedule fuzzing**,
//! where the engine picks the next processor pseudo-randomly at every
//! turn point instead of by least virtual clock.

use adsm::{Dsm, ExecBackend, ProtocolKind, RunOptions, SimTime};
use proptest::prelude::*;
use std::sync::Arc;

/// One epoch of the generated program.
#[derive(Clone, Debug)]
struct Epoch {
    /// Per-processor assigned slice starts (each proc writes
    /// `[start, start + len)` of the value array).
    starts: Vec<usize>,
    /// Slice length for this epoch.
    len: usize,
    /// Value written: `base + index`.
    base: u64,
    /// Whether this epoch also increments the locked counter.
    counter: bool,
}

const WORDS: usize = 2048; // 4 pages of u64
const NPROCS: usize = 4;

fn epoch_strategy() -> impl Strategy<Value = Epoch> {
    (
        prop::collection::vec(0usize..WORDS, NPROCS),
        1usize..(WORDS / NPROCS),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(mut starts, len, base, counter)| {
            // Make the slices disjoint: spread the starts over disjoint
            // quarters, offset within the quarter by the random start.
            let quarter = WORDS / NPROCS;
            let len = len.min(quarter);
            for (k, s) in starts.iter_mut().enumerate() {
                *s = k * quarter + (*s % (quarter - len + 1).max(1));
            }
            Epoch {
                starts,
                len,
                base,
                counter,
            }
        })
}

/// All protocols under test: the paper's four plus the comparators.
const ALL_PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::Mw,
    ProtocolKind::WfsWg,
    ProtocolKind::Wfs,
    ProtocolKind::Sw,
    ProtocolKind::Sc,
    ProtocolKind::Hlrc,
];

/// Runs the generated program and returns (final array, counter).
fn run_program(protocol: ProtocolKind, epochs: Arc<Vec<Epoch>>) -> (Vec<u64>, u64) {
    run_program_fuzzed(protocol, epochs, None)
}

/// As [`run_program`], optionally under a fuzzed schedule.
fn run_program_fuzzed(
    protocol: ProtocolKind,
    epochs: Arc<Vec<Epoch>>,
    fuzz: Option<u64>,
) -> (Vec<u64>, u64) {
    let mut dsm = Dsm::builder(protocol)
        .nprocs(NPROCS)
        .options(RunOptions {
            schedule_fuzz: fuzz,
            ..RunOptions::default()
        })
        .build();
    let data = dsm.alloc_page_aligned::<u64>(WORDS);
    let counter = dsm.alloc_page_aligned::<u64>(1);
    let eps = epochs.clone();
    let outcome = dsm
        .run(move |p| {
            for (en, e) in eps.iter().enumerate() {
                let start = e.starts[p.index()];
                let vals: Vec<u64> = (0..e.len)
                    .map(|i| e.base.wrapping_add((start + i) as u64))
                    .collect();
                data.write_from(p, start, &vals);
                if e.counter {
                    p.lock(7);
                    counter.update(p, 0, |c| c + 1);
                    p.unlock(7);
                }
                p.compute(SimTime::from_us(100));
                p.barrier();
                // Read-back epoch: every proc samples the previous
                // epoch's foreign writes.
                let other = e.starts[(p.index() + 1) % NPROCS];
                let got = data.get(p, other);
                assert_eq!(
                    got,
                    e.base.wrapping_add(other as u64),
                    "stale read in epoch {en}"
                );
                p.barrier();
            }
        })
        .unwrap_or_else(|err| panic!("{protocol}: {err}"));
    (outcome.read_vec(&data), outcome.read_elem(&counter, 0))
}

/// Sequential expectation.
fn expected(epochs: &[Epoch]) -> (Vec<u64>, u64) {
    let mut mem = vec![0u64; WORDS];
    let mut counter = 0u64;
    for e in epochs {
        for k in 0..NPROCS {
            for i in 0..e.len {
                mem[e.starts[k] + i] = e.base.wrapping_add((e.starts[k] + i) as u64);
            }
        }
        if e.counter {
            counter += NPROCS as u64;
        }
    }
    (mem, counter)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Every protocol reproduces the sequential memory image exactly.
    #[test]
    fn random_drf_programs_are_coherent(
        epochs in prop::collection::vec(epoch_strategy(), 2..6)
    ) {
        let (want_mem, want_counter) = expected(&epochs);
        let epochs = Arc::new(epochs);
        for protocol in ALL_PROTOCOLS {
            let (mem, counter) = run_program(protocol, epochs.clone());
            prop_assert_eq!(&mem, &want_mem, "{} memory image differs", protocol);
            prop_assert_eq!(counter, want_counter, "{} counter differs", protocol);
        }
    }

    /// Schedule independence: under arbitrary (seeded) turn orders, the
    /// result of a data-race-free program must not change for any
    /// protocol.
    #[test]
    fn random_drf_programs_are_schedule_independent(
        epochs in prop::collection::vec(epoch_strategy(), 2..4),
        seed in any::<u64>(),
    ) {
        let (want_mem, want_counter) = expected(&epochs);
        let epochs = Arc::new(epochs);
        for protocol in ALL_PROTOCOLS {
            let (mem, counter) =
                run_program_fuzzed(protocol, epochs.clone(), Some(seed));
            prop_assert_eq!(
                &mem, &want_mem,
                "{} memory image differs under fuzz seed {}", protocol, seed
            );
            prop_assert_eq!(
                counter, want_counter,
                "{} counter differs under fuzz seed {}", protocol, seed
            );
        }
    }
}

#[test]
fn fixed_regression_program() {
    // A deterministic instance exercising all the transitions: false
    // sharing at quarter boundaries, migratory counter page, reshuffled
    // assignments.
    let epochs = Arc::new(vec![
        Epoch {
            starts: vec![0, 512, 1024, 1536],
            len: 512,
            base: 1,
            counter: true,
        },
        Epoch {
            starts: vec![100, 700, 1100, 1900],
            len: 100,
            base: 99,
            counter: false,
        },
        Epoch {
            starts: vec![511, 1023, 1535, 600],
            len: 1,
            base: 7,
            counter: true,
        },
    ]);
    let (want_mem, want_counter) = expected(&epochs);
    for protocol in ALL_PROTOCOLS {
        let (mem, counter) = run_program(protocol, epochs.clone());
        assert_eq!(mem, want_mem, "{protocol} memory image differs");
        assert_eq!(counter, want_counter, "{protocol} counter differs");
    }
}

#[test]
fn fixed_program_is_schedule_independent_across_seeds() {
    // The regression instance under a spread of fuzz seeds, all
    // protocols. (The proptest above samples random seeds; this pins a
    // deterministic set for reproducible CI.)
    let epochs = Arc::new(vec![
        Epoch {
            starts: vec![0, 512, 1024, 1536],
            len: 512,
            base: 1,
            counter: true,
        },
        Epoch {
            starts: vec![511, 1023, 1535, 600],
            len: 1,
            base: 7,
            counter: true,
        },
    ]);
    let (want_mem, want_counter) = expected(&epochs);
    for protocol in ALL_PROTOCOLS {
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
            let (mem, counter) = run_program_fuzzed(protocol, epochs.clone(), Some(seed));
            assert_eq!(mem, want_mem, "{protocol} seed {seed}: memory differs");
            assert_eq!(
                counter, want_counter,
                "{protocol} seed {seed}: counter differs"
            );
        }
    }
}

/// SC on real threads: a copy of a page may leave its owner only after
/// the owner's write right is gone. Two processors each increment
/// their own word of one page, so the page ping-pongs between them and
/// nearly every access faults; an owner that can still write between
/// "copy my frame" and "downgrade me" has that increment overwritten
/// when the stale copy comes back as the next owner's page.
///
/// Measured on a 2-core host, unoptimised: with the copy taken before
/// the revoke (`sc.rs` before PR 16) this failed 20 of 20 runs, each
/// within its first few hundred increments, at the fault ("stale
/// readable copy", from the invariant sweep); with revoke-then-copy,
/// 0 of 200.
#[test]
fn sc_on_threads_loses_no_write_between_copy_and_revoke() {
    const INCREMENTS: u64 = 2_000;
    let mut dsm = Dsm::builder(ProtocolKind::Sc)
        .nprocs(2)
        .options(RunOptions {
            backend: ExecBackend::Threads,
            ..RunOptions::default()
        })
        .build();
    let words = dsm.alloc_page_aligned::<u64>(2);
    let outcome = dsm
        .run(move |p| {
            let mine = p.index();
            for _ in 0..INCREMENTS {
                words.update(p, mine, |v| v + 1);
            }
            p.barrier();
        })
        .unwrap_or_else(|err| panic!("SC/threads: {err}"));
    assert_eq!(
        outcome.read_vec(&words),
        vec![INCREMENTS; 2],
        "an increment was lost to a stale page copy"
    );
}

/// Water's force-deposit pattern with integers, so a lost write is an
/// exact mismatch: 96 records of 85 words, banded over 8 processors
/// (12 records = 8 160 bytes, so every band boundary falls inside a
/// page); each step every processor stores a value in its own slot of
/// other bands' records under the band owner's lock, and after a
/// barrier each owner checks and clears the slots of its records.
/// Returns the number of slots that did not hold what was deposited.
fn deposit_and_reduce(protocol: ProtocolKind, opts: RunOptions) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const RECORD: usize = 85;
    const SLOT: usize = 9;
    const RECORDS: usize = 96;
    const PROCS: usize = 8;
    const STEPS: usize = 2;
    let band = |k: usize| (k * RECORDS / PROCS, (k + 1) * RECORDS / PROCS);
    let deposits = |step: usize, p: usize, i: usize| !(step * 7 + p * 13 + i * 5).is_multiple_of(3);
    let value =
        |step: usize, p: usize, i: usize| ((step as u64 + 1) << 32) | ((p as u64) << 16) | i as u64;

    let mut dsm = Dsm::builder(protocol).nprocs(PROCS).options(opts).build();
    let records = dsm.alloc_page_aligned::<u64>(RECORDS * RECORD);
    let wrong = Arc::new(AtomicUsize::new(0));
    let seen_wrong = wrong.clone();
    dsm.run(move |p| {
        let me = p.index();
        for step in 0..STEPS {
            for owner in 0..PROCS {
                let (lo, hi) = band(owner);
                p.critical(100 + owner as u64, |p| {
                    for i in (lo..hi).filter(|&i| deposits(step, me, i)) {
                        records.write_from(p, i * RECORD + SLOT + 3 * me, &[value(step, me, i); 3]);
                    }
                });
            }
            p.barrier();
            let (lo, hi) = band(me);
            for i in lo..hi {
                let mut rec = records.read_range(p, i * RECORD, i * RECORD + SLOT + 3 * PROCS);
                for c in 0..PROCS {
                    let want = if deposits(step, c, i) {
                        value(step, c, i)
                    } else {
                        0
                    };
                    let slot = &mut rec[SLOT + 3 * c..SLOT + 3 * c + 3];
                    let bad = slot.iter().filter(|&&v| v != want).count();
                    seen_wrong.fetch_add(bad, Ordering::Relaxed);
                    slot.fill(0);
                }
                records.write_from(p, i * RECORD, &rec);
            }
            p.barrier();
        }
    })
    .expect("run completes");
    wrong.load(Ordering::Relaxed)
}

/// WFS: a diff that was merged into a copy must survive the copy's
/// replacement. P merges writer W's diff into its copy of a falsely
/// shared page, then hears an owner notice from an owner that never
/// heard of W's interval and installs that owner's whole page over its
/// copy; W's diff is concurrent with the owner's interval, so the merge
/// has to apply it again, and it can only do that if P still remembers
/// it (`ProcCtl::applied`). This is what failed Water × WFS on the
/// threads backend in 4–16 % of runs (errors up to 2e-4 in the final
/// positions: a lost force contribution); it is a schedule, not a
/// threads race, and the simulator reaches it from these seeds (8 of
/// 80 000 swept did; before PR 16 these two lose 24 and 12 slots).
#[test]
fn wfs_reapplies_merged_diffs_after_a_whole_page_install() {
    for seed in [964u64, 20176] {
        let fuzzed = RunOptions {
            schedule_fuzz: Some(seed),
            ..RunOptions::default()
        };
        let lost = deposit_and_reduce(ProtocolKind::Wfs, fuzzed);
        assert_eq!(lost, 0, "fuzz seed {seed}: deposits lost");
    }
}

/// The same program on real threads, every protocol that merges diffs
/// or moves ownership.
#[test]
fn deposits_survive_on_threads() {
    for protocol in ALL_PROTOCOLS {
        let threads = RunOptions {
            backend: ExecBackend::Threads,
            ..RunOptions::default()
        };
        assert_eq!(
            deposit_and_reduce(protocol, threads),
            0,
            "{protocol}: deposits lost"
        );
    }
}
