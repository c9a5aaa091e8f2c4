//! Property tests for the chaos scenario engine: the scenario text form
//! round-trips, a scenario re-read from its text decides the same fates
//! and records the same journal, the journal's sums are the delivery
//! counters, and the epoch fence never delivers into a dead window.

use adsm_netsim::{
    crash_windows, Delivery, DeliveryJournal, DeliveryOutcome, Fault, FaultKind, LinkProfile,
    MsgKind, NetStats, RetryPolicy, Scenario, SimTime,
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
        (0u32..=NPROCS, 0u32..=NPROCS).prop_map(|(s, d)| FaultKind::LinkDown {
            // Index NPROCS encodes the wildcard endpoint.
            src: (s < NPROCS).then_some(s),
            dst: (d < NPROCS).then_some(d),
        }),
        (0u32..NPROCS).prop_map(|proc| FaultKind::ProcStall { proc }),
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
    let name = (0usize..6)
        .prop_map(|i| ["perfect", "lossy.A", "net-split", "x_9", "Jitter", "b0"][i].to_string());
    let retry = (1u64..10_000_000, 1u32..5, 0u64..100_000_000, 0u32..32).prop_map(
        |(timeout, backoff, max_timeout, max_retries)| RetryPolicy {
            timeout: SimTime::from_ns(timeout),
            backoff,
            max_timeout: SimTime::from_ns(max_timeout),
            max_retries,
        },
    );
    let links = prop::collection::vec((0u32..NPROCS, 0u32..NPROCS, profile_strategy()), 0..4);
    (
        name,
        any::<u64>(),
        profile_strategy(),
        links,
        prop::collection::vec(fault_strategy(), 0..4),
        retry,
    )
        .prop_map(|(name, seed, default_link, mut links, faults, retry)| {
            // The canonical text form keys overrides by (src, dst);
            // duplicates would not survive a round-trip, so dedup.
            links.sort_by_key(|&(s, d, _)| (s, d));
            links.dedup_by_key(|&mut (s, d, _)| (s, d));
            Scenario {
                name,
                seed,
                default_link,
                links,
                faults,
                retry,
            }
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

    /// serialize -> parse is the identity on scenarios.
    #[test]
    fn scenario_text_roundtrip(s in scenario_strategy()) {
        let text = s.to_text();
        let parsed = Scenario::parse(&text).expect("canonical text parses");
        prop_assert_eq!(&parsed, &s);
        // And the text form itself is a fixpoint.
        prop_assert_eq!(parsed.to_text(), text);
    }

    /// The scenario is the record: one message stream recorded under a
    /// scenario and again under that scenario re-read from its text
    /// form gives identical outcomes, counters and journals.
    #[test]
    fn a_scenario_reread_from_text_records_the_same_run(
        s in scenario_strategy(),
        msgs in msgs_strategy(1..60),
    ) {
        let reread = Scenario::parse(&s.to_text()).expect("canonical text parses");
        let (outs, net, journal) = record(s, &msgs);
        let (outs2, net2, journal2) = record(reread, &msgs);
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
