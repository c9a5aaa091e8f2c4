//! The delivery journal of a chaos run.
//!
//! While a chaotic scenario is active, every message whose fate deviates
//! from clean delivery (a drop, a duplicate, extra delay, a fault stall)
//! is appended to a [`DeliveryJournal`]. Messages delivered cleanly are
//! implicit — they are identified by their per-link sequence number, so
//! the journal stays proportional to the number of *deviations*, not the
//! number of messages.
//!
//! The journal is a record, not a reproduction recipe: fates are
//! stateless draws on (seed, link, sequence number), so running the same
//! scenario again reproduces the run, journal included.

use crate::{MsgKind, NetStats, SimTime};
use std::fmt;

/// One recorded deviation: what happened to message `seq` on the
/// `src -> dst` link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Sending processor.
    pub src: u32,
    /// Receiving processor.
    pub dst: u32,
    /// Per-link message sequence number (0-based; counts every message
    /// sent on this link while chaos was active).
    pub seq: u64,
    /// Message kind.
    pub kind: MsgKind,
    /// Transmissions lost before the message got through; each one cost
    /// the sender a timeout and a retransmission.
    pub drops: u32,
    /// Total timeout time the sender spent waiting across those drops.
    pub wait: SimTime,
    /// Extra delivery latency beyond the base message cost (jitter,
    /// reorder overtaking, fault stalls).
    pub delay: SimTime,
    /// Whether the receiver saw a second (suppressed) copy.
    pub dup: bool,
    /// Copies dropped by the epoch fence: the destination's incarnation
    /// was dead (crashed, not yet restarted) when the copy arrived, so
    /// the receiver discarded it and the sender retried.
    pub edrops: u32,
}

/// A chaos run's deviations: scenario identity plus every deviation, in
/// the order the run produced them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveryJournal {
    /// Name of the scenario that produced the journal.
    pub scenario: String,
    /// Seed of that scenario.
    pub seed: u64,
    /// Deviations in record order (per-link seq is non-decreasing within
    /// each link).
    pub events: Vec<JournalEvent>,
}

impl DeliveryJournal {
    /// An empty journal tagged with a scenario identity.
    pub fn new(scenario: &str, seed: u64) -> Self {
        DeliveryJournal {
            scenario: scenario.to_string(),
            seed,
            events: Vec::new(),
        }
    }

    /// Number of recorded deviations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the run had no deviations (a perfect-delivery run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the journal against the chaos counters of the [`NetStats`]
    /// the same run recorded. Every drop and every epoch-fence drop cost
    /// one timeout wait and one retransmission, and every `dup` one
    /// suppressed duplicate; clean deliveries add to none of them, so
    /// the sums must match exactly.
    ///
    /// # Errors
    ///
    /// Names the first counter the journal disagrees with.
    pub fn check_counters(&self, net: &NetStats) -> Result<(), String> {
        let sum = |f: fn(&JournalEvent) -> u64| self.events.iter().map(f).sum::<u64>();
        let drops = sum(|e| e.drops.into());
        let edrops = sum(|e| e.edrops.into());
        let dups = sum(|e| e.dup.into());
        let checks = [
            ("dropped_msgs", drops, net.dropped_msgs()),
            ("retransmissions", drops + edrops, net.retransmissions()),
            ("timeout_waits", drops + edrops, net.timeout_waits()),
            ("duplicate_msgs", dups, net.duplicate_msgs()),
            ("epoch_drops", edrops, net.epoch_drops()),
        ];
        match checks
            .iter()
            .find(|(_, journal, counted)| journal != counted)
        {
            None => Ok(()),
            Some((name, journal, counted)) => Err(format!(
                "{self}: the journal sums to {journal} {name}, NetStats counts {counted}"
            )),
        }
    }
}

impl fmt::Display for DeliveryJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal of '{}' (seed {}): {} deviations",
            self.scenario,
            self.seed,
            self.events.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(drops: u32, dup: bool, edrops: u32) -> JournalEvent {
        JournalEvent {
            src: 0,
            dst: 1,
            seq: 0,
            kind: MsgKind::PageRequest,
            drops,
            wait: SimTime::ZERO,
            delay: SimTime::ZERO,
            dup,
            edrops,
        }
    }

    #[test]
    fn counters_match_the_events_that_produced_them() {
        let mut j = DeliveryJournal::new("t", 1);
        j.events = vec![event(2, false, 0), event(0, true, 1)];
        let mut net = NetStats::new();
        for _ in 0..2 {
            net.note_drop();
        }
        net.note_epoch_drop();
        for _ in 0..3 {
            net.note_timeout_wait();
            net.note_retransmission();
        }
        net.note_duplicate();
        assert_eq!(j.check_counters(&net), Ok(()));

        net.note_duplicate();
        let err = j.check_counters(&net).unwrap_err();
        assert!(err.contains("duplicate_msgs"), "{err}");
    }

    #[test]
    fn an_empty_journal_matches_a_clean_run() {
        assert_eq!(
            DeliveryJournal::new("perfect", 1).check_counters(&NetStats::new()),
            Ok(())
        );
    }
}
