//! Property tests for the chaos scenario engine: the same scenario over
//! the same message stream decides the same fates and records the same
//! journal, the journal's sums are the delivery counters, and the epoch
//! fence never delivers into a dead window.

use adsm_netsim::{
    crash_windows, Delivery, DeliveryJournal, DeliveryOutcome, Fault, FaultKind, LinkProfile,
    MsgKind, NetStats, Scenario, SimTime,
};
use proptest::prelude::*;

const NPROCS: u32 = 4;

fn profile_strategy() -> impl Strategy<Value = LinkProfile> {
    (
        0u32..1_000_000,
        0u32..1_000_000,
        0u32..1_000_000,
        0u64..10_000_000,
    )
        .prop_map(|(loss_ppm, dup_ppm, reorder_ppm, jitter_ns)| LinkProfile {
            loss_ppm,
            dup_ppm,
            reorder_ppm,
            jitter_ns,
        })
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    let kind = prop_oneof![
        (1u32..=1_000_000).prop_map(|loss_ppm| FaultKind::LossBurst { loss_ppm }),
        (0u32..NPROCS).prop_map(|proc| FaultKind::ProcCrash { proc }),
        (0u32..NPROCS).prop_map(|proc| FaultKind::ProcRestart { proc }),
        (0u32..NPROCS).prop_map(|home| FaultKind::HomeFailover { home }),
    ];
    (0u64..100_000_000, 1u64..50_000_000, kind).prop_map(|(at, dur, kind)| Fault {
        at: SimTime::from_ns(at),
        duration: SimTime::from_ns(dur),
        kind,
    })
}

/// A fault list made only of crash/restart events: the shapes the epoch
/// fence reacts to, with restarts sometimes paired and sometimes
/// orphaned (an orphan restart is inert; an unmatched crash closes at
/// `at + duration`).
fn crash_faults_strategy() -> impl Strategy<Value = Vec<Fault>> {
    prop::collection::vec(
        (
            0u64..50_000_000,
            1u64..20_000_000,
            0u32..NPROCS,
            any::<bool>(),
        )
            .prop_map(|(at, dur, proc, restart)| Fault {
                at: SimTime::from_ns(at),
                duration: SimTime::from_ns(dur),
                kind: if restart {
                    FaultKind::ProcRestart { proc }
                } else {
                    FaultKind::ProcCrash { proc }
                },
            }),
        0..6,
    )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        profile_strategy(),
        prop::collection::vec(fault_strategy(), 0..4),
    )
        .prop_map(|(seed, link, faults)| Scenario {
            name: "prop".to_string(),
            seed,
            link,
            faults,
        })
}

/// A random message stream: (src, dst, send time in ns, payload bytes).
fn msgs_strategy(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(u32, u32, u64, usize)>> {
    prop::collection::vec(
        (0u32..NPROCS, 0u32..NPROCS, 0u64..200_000_000, 0usize..5000),
        len,
    )
}

/// Sends `msgs` through a fresh delivery engine for `s` (self-sends
/// skipped, as `World::msg` does) and returns every outcome, the
/// counters and the journal.
fn record(
    s: Scenario,
    msgs: &[(u32, u32, u64, usize)],
) -> (Vec<DeliveryOutcome>, NetStats, DeliveryJournal) {
    let kinds = [
        MsgKind::PageRequest,
        MsgKind::PageReply,
        MsgKind::DiffRequest,
        MsgKind::LockGrant,
    ];
    let mut d = Delivery::record(s.into_arc(), NPROCS as usize);
    let mut net = NetStats::new();
    let outs = msgs
        .iter()
        .filter(|&&(src, dst, _, _)| src != dst)
        .map(|&(src, dst, now, payload)| {
            d.transmit(
                kinds[payload % kinds.len()],
                payload,
                src as usize,
                dst as usize,
                SimTime::from_ns(now),
                SimTime::from_us(100),
                &mut net,
            )
        })
        .collect();
    (outs, net, d.into_journal())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scenario is the record: one message stream recorded twice
    /// under the same scenario gives identical outcomes, counters and
    /// journals.
    #[test]
    fn a_scenario_records_the_same_run_twice(
        s in scenario_strategy(),
        msgs in msgs_strategy(1..60),
    ) {
        let (outs, net, journal) = record(s.clone(), &msgs);
        let (outs2, net2, journal2) = record(s, &msgs);
        prop_assert_eq!(outs2, outs);
        prop_assert_eq!(net2, net);
        prop_assert_eq!(journal2, journal);
    }

    /// The journal's sums are the delivery counters — drops, epoch-fence
    /// drops and duplicates — under random link profiles and fault
    /// schedules, with and without a crash schedule on top.
    #[test]
    fn journal_sums_equal_the_chaos_counters(
        mut s in scenario_strategy(),
        crashes in crash_faults_strategy(),
        msgs in msgs_strategy(1..60),
    ) {
        s.faults.extend(crashes);
        let (outs, net, journal) = record(s, &msgs);
        prop_assert_eq!(journal.check_counters(&net), Ok(()));
        let fenced: u64 = outs.iter().map(|o| u64::from(o.epoch_drops)).sum();
        prop_assert_eq!(fenced, net.epoch_drops());
        let dups = outs.iter().filter(|o| o.duplicated).count() as u64;
        prop_assert_eq!(dups, net.duplicate_msgs());
    }

    /// The epoch fence is airtight: over random crash/restart schedules
    /// and random message streams on an otherwise perfect network, no
    /// copy ever lands while either endpoint's incarnation is dead —
    /// every fenced copy is retried until both endpoints are live, so a
    /// message from a pre-crash epoch is never applied post-restart.
    #[test]
    fn epoch_fence_never_delivers_into_a_dead_window(
        seed in any::<u64>(),
        faults in crash_faults_strategy(),
        msgs in prop::collection::vec(
            (0u32..NPROCS, 0u32..NPROCS, 0u64..100_000_000),
            1..80,
        ),
    ) {
        let mut s = Scenario::perfect();
        s.name = "epoch-fence".to_string();
        s.seed = seed;
        s.faults = faults;
        let windows = crash_windows(&s.faults);
        let fenced = |src: u32, dst: u32, t: SimTime| {
            windows.iter().any(|w| w.covers(src, t) || w.covers(dst, t))
        };

        let mut d = Delivery::record(s.into_arc(), NPROCS as usize);
        let mut net = NetStats::new();
        let base = SimTime::from_us(10);
        let mut total_edrops = 0u64;
        for &(src, dst, now) in &msgs {
            if src == dst {
                continue;
            }
            let now = SimTime::from_ns(now);
            let out = d.transmit(
                MsgKind::PageRequest,
                256,
                src as usize,
                dst as usize,
                now,
                base,
                &mut net,
            );
            total_edrops += u64::from(out.epoch_drops);
            // Perfect link, crash faults only: the outcome's extra time
            // is purely fence-retry wait, so `now + extra` is the send
            // time of the copy that finally got through — it must fall
            // outside every dead window of either endpoint.
            prop_assert!(
                !fenced(src, dst, now + out.extra),
                "copy {src}->{dst} sent at {now} landed inside a dead window",
            );
            prop_assert!(!out.duplicated);
            // And the fence fires exactly when the original send time
            // was covered: clean sends cost nothing.
            prop_assert_eq!(out.epoch_drops > 0, fenced(src, dst, now));
            if out.epoch_drops == 0 {
                prop_assert_eq!(out.extra, SimTime::ZERO);
            }
        }
        // Every fence drop is a counted deviation and a counted resend,
        // and nothing else deviated on a perfect link.
        prop_assert_eq!(net.epoch_drops(), total_edrops);
        prop_assert_eq!(net.retransmissions(), total_edrops);
        prop_assert_eq!(net.timeout_waits(), total_edrops);
        prop_assert_eq!(net.dropped_msgs(), 0);
        prop_assert_eq!(net.duplicate_msgs(), 0);
    }
}
