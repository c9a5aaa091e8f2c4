//! The delivery layer: decides each message's fate under a [`Scenario`].
//!
//! Protocol sends funnel through [`Delivery::transmit`]. A deterministic
//! PRNG (seeded by the scenario, keyed per link and per-link sequence
//! number) decides drops, duplicates, reordering and jitter, the fault
//! schedule adds loss bursts and epoch-fence drops, and every deviation
//! is journaled. The draws are stateless, so the same scenario over the
//! same message stream decides the same fates.
//!
//! The cost-model semantics: a dropped transmission costs the *sender* a
//! retransmission timeout (bounded exponential backoff) plus the resend
//! traffic; a duplicate costs the wire bytes twice and is suppressed at
//! the receiver (idempotent receive — the caller charges the receiver
//! one service interrupt to discard it); reordering and jitter surface
//! as extra one-way latency.

use crate::journal::{DeliveryJournal, JournalEvent};
use crate::scenario::{crash_windows, CrashWindow, FaultKind, Scenario};
use crate::{MsgKind, NetStats, SimTime};
use std::sync::Arc;

/// What [`Delivery::transmit`] decided for one message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// Extra virtual time on top of the base message cost: timeout waits
    /// from drops plus delivery delay from jitter/reorder.
    pub extra: SimTime,
    /// The receiver saw a suppressed duplicate copy (the caller should
    /// charge it a service interrupt for the discard).
    pub duplicated: bool,
    /// Copies the epoch fence discarded because the destination's
    /// incarnation was dead when they arrived (each cost the sender a
    /// retry, included in `extra`).
    pub epoch_drops: u32,
}

impl DeliveryOutcome {
    /// Clean delivery: no extra time, no duplicate.
    pub const CLEAN: DeliveryOutcome = DeliveryOutcome {
        extra: SimTime::ZERO,
        duplicated: false,
        epoch_drops: 0,
    };
}

/// Draw salts: which decision a PRNG draw feeds.
const SALT_LOSS: u64 = 0x10;
const SALT_DUP: u64 = 0x20;
const SALT_REORDER: u64 = 0x30;
const SALT_REORDER_DELAY: u64 = 0x40;
const SALT_JITTER: u64 = 0x50;

const PPM: u64 = 1_000_000;

/// First retransmission timeout; each retry doubles it up to
/// [`MAX_TIMEOUT`].
const FIRST_TIMEOUT: SimTime = SimTime::from_ms(2);
/// Ceiling on any single retransmission timeout.
const MAX_TIMEOUT: SimTime = SimTime::from_ms(16);
/// After this many consecutive losses the message is forced through.
const MAX_RETRIES: u32 = 12;

/// Timeout before the `attempt`-th retransmission (0-based): 2 ms,
/// doubling, capped at 16 ms.
fn timeout_for(attempt: u32) -> SimTime {
    // Three doublings reach the cap; clamping the shift keeps it in range.
    SimTime::from_ns((FIRST_TIMEOUT.as_ns() << attempt.min(8)).min(MAX_TIMEOUT.as_ns()))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-run delivery engine owned by a `World`.
pub struct Delivery {
    scenario: Arc<Scenario>,
    nprocs: usize,
    /// Per-link message counters (`src * nprocs + dst`), the draw key.
    link_seq: Vec<u64>,
    journal: DeliveryJournal,
    /// False for all-zero-rates scenarios: `transmit` returns immediately
    /// with no draws, no journal growth, and no allocations.
    chaotic: bool,
    /// Resolved processor down-time spans from the scenario's crash
    /// schedule (empty for crash-free scenarios). Transmissions landing
    /// in a span are dropped by the epoch fence and retried.
    crash_spans: Vec<CrashWindow>,
}

impl Delivery {
    /// A recording delivery engine for `scenario` over `nprocs`
    /// processors.
    pub fn record(scenario: Arc<Scenario>, nprocs: usize) -> Delivery {
        let chaotic = scenario.is_chaotic();
        let journal = DeliveryJournal::new(&scenario.name, scenario.seed);
        let crash_spans = crash_windows(&scenario.faults);
        Delivery {
            scenario,
            nprocs,
            link_seq: vec![0; nprocs * nprocs],
            journal,
            chaotic,
            crash_spans,
        }
    }

    /// Consumes the engine, returning the recorded journal.
    pub fn into_journal(self) -> DeliveryJournal {
        self.journal
    }

    /// Decides the fate of one `src -> dst` message sent at virtual time
    /// `now` whose clean one-way cost is `base`. Records retransmission
    /// traffic and the new chaos counters into `net`.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit(
        &mut self,
        kind: MsgKind,
        payload: usize,
        src: usize,
        dst: usize,
        now: SimTime,
        base: SimTime,
        net: &mut NetStats,
    ) -> DeliveryOutcome {
        if !self.chaotic {
            return DeliveryOutcome::CLEAN;
        }
        debug_assert!(src < self.nprocs && dst < self.nprocs && src != dst);
        let link = src * self.nprocs + dst;
        let seq = self.link_seq[link];
        self.link_seq[link] += 1;
        let profile = self.scenario.link;
        let mut wait = SimTime::ZERO;
        let mut delay = SimTime::ZERO;
        let mut drops = 0u32;
        let mut edrops = 0u32;
        let mut t = now;
        let dup;
        loop {
            // Epoch fence: a copy landing while an endpoint's incarnation
            // is dead is discarded by the receiver; the sender backs off
            // and retries. Fence drops are deterministic schedule
            // effects, so they never count against `MAX_RETRIES` (the
            // down window is finite, so the retry loop always escapes).
            if self.epoch_fenced(src, dst, t) {
                let timeout = timeout_for(drops + edrops);
                net.note_epoch_drop();
                net.note_timeout_wait();
                wait += timeout;
                t += timeout;
                edrops += 1;
                // The resend is real traffic.
                net.record(kind, payload);
                net.note_retransmission();
                continue;
            }
            let burst = self.burst_loss(t);
            let loss_ppm = profile.loss_ppm.max(burst);
            let lost = self.ppm_hit(src, dst, seq, SALT_LOSS ^ (drops as u64) << 8, loss_ppm);
            if lost && drops < MAX_RETRIES {
                let timeout = timeout_for(drops + edrops);
                net.note_drop();
                net.note_timeout_wait();
                wait += timeout;
                t += timeout;
                drops += 1;
                // The resend is real traffic.
                net.record(kind, payload);
                net.note_retransmission();
                continue;
            }
            // Delivered (possibly forced through after MAX_RETRIES — the
            // scenario engine models loss, not partition).
            dup = self.ppm_hit(src, dst, seq, SALT_DUP, profile.dup_ppm);
            if dup {
                net.record(kind, payload);
                net.note_duplicate();
            }
            if self.ppm_hit(src, dst, seq, SALT_REORDER, profile.reorder_ppm) {
                // Overtaken: up to one extra base message cost.
                delay += SimTime::from_ns(
                    self.draw(src, dst, seq, SALT_REORDER_DELAY) % (base.as_ns() + 1),
                );
            }
            if profile.jitter_ns > 0 {
                delay += SimTime::from_ns(
                    self.draw(src, dst, seq, SALT_JITTER) % (profile.jitter_ns + 1),
                );
            }
            break;
        }
        if drops > 0 || delay > SimTime::ZERO || dup || edrops > 0 {
            self.journal.events.push(JournalEvent {
                src: src as u32,
                dst: dst as u32,
                seq,
                kind,
                drops,
                wait,
                delay,
                dup,
                edrops,
            });
        }
        DeliveryOutcome {
            extra: wait + delay,
            duplicated: dup,
            epoch_drops: edrops,
        }
    }

    /// One deterministic draw for message `seq` on `src -> dst`.
    fn draw(&self, src: usize, dst: usize, seq: u64, salt: u64) -> u64 {
        let mut h = self.scenario.seed;
        h = splitmix64(h ^ (src as u64));
        h = splitmix64(h ^ (dst as u64).rotate_left(16));
        h = splitmix64(h ^ seq);
        splitmix64(h ^ salt)
    }

    fn ppm_hit(&self, src: usize, dst: usize, seq: u64, salt: u64, ppm: u32) -> bool {
        ppm > 0 && self.draw(src, dst, seq, salt) % PPM < ppm as u64
    }

    /// Whether either endpoint's incarnation is dead at `t` (crashed and
    /// not yet restarted): the copy is from, or addressed to, a dead
    /// epoch, so the receiver's epoch fence discards it.
    fn epoch_fenced(&self, src: usize, dst: usize, t: SimTime) -> bool {
        self.crash_spans
            .iter()
            .any(|w| w.covers(src as u32, t) || w.covers(dst as u32, t))
    }

    /// Loss floor from active congestion bursts at `t`.
    fn burst_loss(&self, t: SimTime) -> u32 {
        self.scenario
            .faults
            .iter()
            .filter(|f| f.active_at(t))
            .filter_map(|f| match f.kind {
                FaultKind::LossBurst { loss_ppm } => Some(loss_ppm),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Fault;

    fn lossy(seed: u64, loss_ppm: u32) -> Arc<Scenario> {
        Scenario::lossy("t", seed, loss_ppm).into_arc()
    }

    fn run_sequence(d: &mut Delivery, n: u64) -> (Vec<DeliveryOutcome>, NetStats) {
        let mut net = NetStats::new();
        let base = SimTime::from_us(500);
        let mut t = SimTime::ZERO;
        let outs = (0..n)
            .map(|_| {
                let o = d.transmit(MsgKind::PageRequest, 16, 0, 1, t, base, &mut net);
                t += base + o.extra;
                o
            })
            .collect();
        (outs, net)
    }

    #[test]
    fn perfect_scenario_is_a_no_op() {
        let mut d = Delivery::record(Scenario::perfect().into_arc(), 4);
        let (outs, net) = run_sequence(&mut d, 100);
        assert!(outs.iter().all(|o| *o == DeliveryOutcome::CLEAN));
        assert_eq!(net.retransmissions(), 0);
        assert_eq!(net.total_messages(), 0, "no resend traffic recorded");
        assert!(d.into_journal().is_empty());
    }

    #[test]
    fn heavy_loss_drops_and_retransmits_deterministically() {
        let mut a = Delivery::record(lossy(9, 300_000), 4);
        let mut b = Delivery::record(lossy(9, 300_000), 4);
        let (outs_a, net_a) = run_sequence(&mut a, 500);
        let (outs_b, net_b) = run_sequence(&mut b, 500);
        assert_eq!(outs_a, outs_b, "same seed, same fates");
        assert_eq!(net_a, net_b);
        assert!(net_a.retransmissions() > 0);
        assert_eq!(net_a.retransmissions(), net_a.dropped_msgs());
        assert_eq!(net_a.retransmissions(), net_a.timeout_waits());
        let j = a.into_journal();
        assert!(!j.is_empty());
        assert_eq!(j, b.into_journal(), "same seed, same journal");
        assert_eq!(j.check_counters(&net_a), Ok(()));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Delivery::record(lossy(1, 300_000), 4);
        let mut b = Delivery::record(lossy(2, 300_000), 4);
        let (outs_a, _) = run_sequence(&mut a, 500);
        let (outs_b, _) = run_sequence(&mut b, 500);
        assert_ne!(outs_a, outs_b);
    }

    #[test]
    fn timeout_backoff_is_bounded() {
        assert_eq!(timeout_for(0), SimTime::from_ms(2));
        assert_eq!(timeout_for(1), SimTime::from_ms(4));
        assert_eq!(timeout_for(2), SimTime::from_ms(8));
        assert_eq!(timeout_for(3), SimTime::from_ms(16));
        assert_eq!(timeout_for(60), SimTime::from_ms(16), "cap holds");
    }

    #[test]
    fn max_retries_forces_delivery_through_total_loss() {
        let mut d = Delivery::record(lossy(3, 1_000_000), 2);
        let mut net = NetStats::new();
        let o = d.transmit(
            MsgKind::PageRequest,
            16,
            0,
            1,
            SimTime::ZERO,
            SimTime::from_us(500),
            &mut net,
        );
        assert_eq!(net.dropped_msgs(), u64::from(MAX_RETRIES));
        // 2 + 4 + 8 ms, then nine timeouts at the 16 ms cap.
        assert_eq!(o.extra, SimTime::from_ms(2 + 4 + 8 + 16 * 9));
    }

    #[test]
    fn epoch_fence_drops_copies_to_a_dead_proc_until_restart() {
        let sc = {
            let mut s = Scenario::perfect();
            s.name = "crash".to_string();
            s.faults.push(Fault {
                at: SimTime::ZERO,
                duration: SimTime::ZERO,
                kind: FaultKind::ProcCrash { proc: 1 },
            });
            s.faults.push(Fault {
                at: SimTime::from_ms(5),
                duration: SimTime::ZERO,
                kind: FaultKind::ProcRestart { proc: 1 },
            });
            s.into_arc()
        };
        let mut d = Delivery::record(Arc::clone(&sc), 2);
        let mut net = NetStats::new();
        let o = d.transmit(
            MsgKind::PageRequest,
            16,
            0,
            1,
            SimTime::ZERO,
            SimTime::from_us(500),
            &mut net,
        );
        // Fenced at t=0 (down), retried at 2ms (down), delivered at
        // 2+4=6ms, past the 5ms restart.
        assert_eq!(o.epoch_drops, 2);
        assert_eq!(net.epoch_drops(), 2);
        assert_eq!(net.dropped_msgs(), 0, "fence drops are not random loss");
        assert_eq!(o.extra, SimTime::from_ms(6));
        // After the restart the link is clean again.
        let o2 = d.transmit(
            MsgKind::PageRequest,
            16,
            0,
            1,
            SimTime::from_ms(7),
            SimTime::from_us(500),
            &mut net,
        );
        assert_eq!(o2, DeliveryOutcome::CLEAN);
        // One journal event carries both fence drops, and its sums are
        // the counters.
        let journal = d.into_journal();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.events[0].edrops, 2);
        assert_eq!(journal.check_counters(&net), Ok(()));
    }

    #[test]
    fn instant_reboot_crash_produces_no_fence_drops() {
        let sc = {
            let mut s = Scenario::perfect();
            s.name = "instant".to_string();
            s.faults.push(Fault {
                at: SimTime::from_ms(1),
                duration: SimTime::ZERO,
                kind: FaultKind::ProcCrash { proc: 1 },
            });
            s.into_arc()
        };
        let mut d = Delivery::record(sc, 2);
        let (outs, net) = run_sequence(&mut d, 50);
        assert!(outs.iter().all(|o| *o == DeliveryOutcome::CLEAN));
        assert_eq!(net.epoch_drops(), 0);
        assert!(d.into_journal().events.is_empty());
    }
}
