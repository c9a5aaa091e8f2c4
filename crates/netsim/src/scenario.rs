//! Chaos scenarios: declarative descriptions of an imperfect network.
//!
//! A [`Scenario`] names a seed, per-link loss/duplication/reorder rates
//! and latency jitter, a fault schedule keyed on **virtual time**, and a
//! retransmission policy. The [`crate::Delivery`] layer draws every
//! message's fate from a deterministic PRNG seeded by the scenario, so
//! the same scenario always produces the same run under the simulator
//! backend.
//!
//! Scenarios serialize to a line-based text format (`to_text` /
//! [`Scenario::parse`]) whose round trip is exact — rates are integer
//! parts-per-million and times are integer nanoseconds, so no float ever
//! enters the format.

use crate::SimTime;
use std::fmt;
use std::sync::Arc;

/// Error from [`Scenario::parse`]: line number and reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// 1-based line the error was found on (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ScenarioParseError {}

fn err(line: usize, reason: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError {
        line,
        reason: reason.into(),
    }
}

/// Loss/duplication/reorder rates and latency jitter for one link (or
/// the scenario-wide default).
///
/// Rates are integer **parts per million** so the text format round-trips
/// exactly; `jitter_ns` is the maximum extra one-way latency, drawn
/// uniformly in `[0, jitter_ns]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Probability (ppm) that a transmission is lost in flight.
    pub loss_ppm: u32,
    /// Probability (ppm) that a delivered message arrives twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that a message is overtaken by later traffic
    /// (modelled as extra delay of up to one base message cost).
    pub reorder_ppm: u32,
    /// Maximum uniform extra one-way latency, in nanoseconds.
    pub jitter_ns: u64,
}

impl LinkProfile {
    /// A lossless, in-order, jitter-free link.
    pub const PERFECT: LinkProfile = LinkProfile {
        loss_ppm: 0,
        dup_ppm: 0,
        reorder_ppm: 0,
        jitter_ns: 0,
    };

    /// True when the link never deviates from perfect delivery.
    pub fn is_perfect(&self) -> bool {
        *self == LinkProfile::PERFECT
    }
}

/// Timeout and bounded exponential backoff governing retransmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retransmission timeout.
    pub timeout: SimTime,
    /// Backoff multiplier applied per retry (2 doubles each time).
    pub backoff: u32,
    /// Ceiling on any single timeout.
    pub max_timeout: SimTime,
    /// After this many consecutive losses the delivery layer forces the
    /// message through (the scenario engine models a lossy network, not
    /// a partitioned one — protocols here have no partition story yet).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimTime::from_ms(2),
            backoff: 2,
            max_timeout: SimTime::from_ms(16),
            max_retries: 12,
        }
    }
}

impl RetryPolicy {
    /// Timeout for the `attempt`-th retransmission (0-based), with
    /// exponential backoff capped at `max_timeout`.
    pub fn timeout_for(&self, attempt: u32) -> SimTime {
        let mut t = self.timeout.as_ns();
        let cap = self.max_timeout.as_ns().max(self.timeout.as_ns());
        for _ in 0..attempt {
            t = t.saturating_mul(self.backoff.max(1) as u64);
            if t >= cap {
                return SimTime::from_ns(cap);
            }
        }
        SimTime::from_ns(t.min(cap))
    }
}

/// What a scheduled fault does while its window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Every transmission on matching links is lost (`None` matches any
    /// endpoint).
    LinkDown {
        /// Source filter (`None` = any source).
        src: Option<u32>,
        /// Destination filter (`None` = any destination).
        dst: Option<u32>,
    },
    /// A processor stops servicing the network; messages to or from it
    /// stall until the window closes.
    ProcStall {
        /// The stalled processor.
        proc: u32,
    },
    /// A congestion burst: all links lose at least this rate.
    LossBurst {
        /// Loss floor (ppm) while the burst is active.
        loss_ppm: u32,
    },
    /// The processor's DSM incarnation dies. The crash takes effect at
    /// the processor's first barrier arrival at or after `at` (the
    /// arriving interval is committed to the replicated interval log
    /// first, SC-ABD style, then the incarnation's cached state — page
    /// copies, twins, notice frontier — is lost and its epoch number is
    /// bumped). The processor is *down* from `at` until its matching
    /// [`FaultKind::ProcRestart`] (or, with none scheduled, until the
    /// window's own `at + duration`); transmissions addressed to it in
    /// that span are dropped by the epoch fence and retried.
    ProcCrash {
        /// The crashing processor.
        proc: u32,
    },
    /// Ends the down window opened by the most recent
    /// [`FaultKind::ProcCrash`] of the same processor: the restarted
    /// incarnation rebuilds its view from the interval log and resumes.
    ProcRestart {
        /// The restarting processor.
        proc: u32,
    },
    /// Planned failover of an HLRC home node: at the first barrier
    /// completion at or after `at`, every page homed at `home` is
    /// promoted to its replicated backup home and readers are redirected
    /// through the directory. HLRC only: scheduling one is what makes
    /// the flush stream replicate every home onto its backup.
    HomeFailover {
        /// The home processor being decommissioned.
        home: u32,
    },
}

/// One scheduled fault window on the virtual-time axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Window start (virtual time).
    pub at: SimTime,
    /// Window length.
    pub duration: SimTime,
    /// Effect while active.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the window covers virtual time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.at <= t && t < self.end()
    }

    /// First instant after the window.
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }

    /// One canonical text line (`fault at_ns=… dur_ns=… <kind> …`) of
    /// the scenario format.
    fn to_line(self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "fault at_ns={} dur_ns={} ",
            self.at.as_ns(),
            self.duration.as_ns()
        );
        match self.kind {
            FaultKind::LinkDown { src, dst } => {
                let fmt_end = |e: Option<u32>| match e {
                    Some(v) => v.to_string(),
                    None => "*".to_string(),
                };
                let _ = write!(out, "down src={} dst={}", fmt_end(src), fmt_end(dst));
            }
            FaultKind::ProcStall { proc } => {
                let _ = write!(out, "stall proc={proc}");
            }
            FaultKind::LossBurst { loss_ppm } => {
                let _ = write!(out, "burst loss_ppm={loss_ppm}");
            }
            FaultKind::ProcCrash { proc } => {
                let _ = write!(out, "crash proc={proc}");
            }
            FaultKind::ProcRestart { proc } => {
                let _ = write!(out, "restart proc={proc}");
            }
            FaultKind::HomeFailover { home } => {
                let _ = write!(out, "failover home={home}");
            }
        }
        out
    }

    /// Parses the `key=value` tail of a fault line (everything after the
    /// `fault ` directive). `line_no` seeds error positions.
    fn parse_tail(line_no: usize, rest: &str) -> Result<Fault, ScenarioParseError> {
        let kv = KvLine::new(line_no, rest);
        let at = SimTime::from_ns(kv.get("at_ns")?);
        let duration = SimTime::from_ns(kv.get("dur_ns")?);
        let kind = if kv.has_word("down") {
            FaultKind::LinkDown {
                src: kv.get_opt_endpoint("src")?,
                dst: kv.get_opt_endpoint("dst")?,
            }
        } else if kv.has_word("stall") {
            FaultKind::ProcStall {
                proc: kv.get("proc")? as u32,
            }
        } else if kv.has_word("burst") {
            FaultKind::LossBurst {
                loss_ppm: kv.get("loss_ppm")? as u32,
            }
        } else if kv.has_word("crash") {
            FaultKind::ProcCrash {
                proc: kv.get("proc")? as u32,
            }
        } else if kv.has_word("restart") {
            FaultKind::ProcRestart {
                proc: kv.get("proc")? as u32,
            }
        } else if kv.has_word("failover") {
            FaultKind::HomeFailover {
                home: kv.get("home")? as u32,
            }
        } else {
            return Err(err(line_no, format!("unknown fault kind in '{rest}'")));
        };
        Ok(Fault { at, duration, kind })
    }
}

/// A resolved processor down-time span: `proc` is dead over
/// `[start, end)`. Built by [`crash_windows`] from a fault schedule's
/// [`FaultKind::ProcCrash`] / [`FaultKind::ProcRestart`] pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed processor.
    pub proc: u32,
    /// Instant the incarnation dies.
    pub start: SimTime,
    /// First instant the restarted incarnation is reachable again. A
    /// crash with no matching restart and zero duration reboots
    /// instantly: `end == start`, so no transmission ever lands in the
    /// window, but the state loss and epoch bump still happen.
    pub end: SimTime,
}

impl CrashWindow {
    /// Whether `proc` is down at virtual time `t`.
    pub fn covers(&self, proc: u32, t: SimTime) -> bool {
        self.proc == proc && self.start <= t && t < self.end
    }
}

/// Resolves a fault schedule's crash events into down-time windows: each
/// [`FaultKind::ProcCrash`] pairs with the first
/// [`FaultKind::ProcRestart`] of the same processor at or after it, or
/// falls back to its own `at + duration` when none is scheduled.
pub fn crash_windows(faults: &[Fault]) -> Vec<CrashWindow> {
    let mut out = Vec::new();
    for f in faults {
        if let FaultKind::ProcCrash { proc } = f.kind {
            let end = faults
                .iter()
                .filter_map(|g| match g.kind {
                    FaultKind::ProcRestart { proc: p } if p == proc && g.at >= f.at => Some(g.at),
                    _ => None,
                })
                .min()
                .unwrap_or_else(|| f.end());
            out.push(CrashWindow {
                proc,
                start: f.at,
                end,
            });
        }
    }
    out
}

/// A complete chaos scenario: seed, link profiles, fault schedule, and
/// retry policy.
///
/// # Examples
///
/// ```
/// use adsm_netsim::Scenario;
///
/// let s = Scenario::lossy("flaky", 42, 10_000); // 1% loss
/// let text = s.to_text();
/// assert_eq!(Scenario::parse(&text).unwrap(), s);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9._-]+`), used in reports and journals.
    pub name: String,
    /// PRNG seed; all fate draws derive from it.
    pub seed: u64,
    /// Profile for links without an explicit override.
    pub default_link: LinkProfile,
    /// Per-link overrides `(src, dst, profile)`.
    pub links: Vec<(u32, u32, LinkProfile)>,
    /// Scheduled fault windows.
    pub faults: Vec<Fault>,
    /// Retransmission policy.
    pub retry: RetryPolicy,
}

impl Scenario {
    /// The all-zero-rates scenario: every message delivered instantly,
    /// in order, exactly once. Running under it is bit-identical to not
    /// configuring a scenario at all.
    pub fn perfect() -> Self {
        Scenario {
            name: "perfect".to_string(),
            seed: 1,
            default_link: LinkProfile::PERFECT,
            links: Vec::new(),
            faults: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// A uniform lossy scenario: every link loses `loss_ppm` of its
    /// transmissions.
    pub fn lossy(name: &str, seed: u64, loss_ppm: u32) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            default_link: LinkProfile {
                loss_ppm,
                ..LinkProfile::PERFECT
            },
            ..Scenario::perfect()
        }
    }

    /// The committed scenario corpus swept by `repro scenarios`:
    /// perfect, lossy-1pct, lossy-10pct-reorder, bursty-loss, and
    /// jittery-latency.
    pub fn corpus() -> Vec<Scenario> {
        let mut lossy1 = Scenario::lossy("lossy-1pct", 42, 10_000);
        lossy1.default_link.dup_ppm = 5_000;

        let mut lossy10 = Scenario::lossy("lossy-10pct-reorder", 1997, 100_000);
        lossy10.default_link.reorder_ppm = 200_000;

        let mut bursty = Scenario {
            name: "bursty-loss".to_string(),
            seed: 7,
            ..Scenario::perfect()
        };
        for k in 0..24u64 {
            bursty.faults.push(Fault {
                at: SimTime::from_ms(10 + k * 40),
                duration: SimTime::from_ms(8),
                kind: FaultKind::LossBurst { loss_ppm: 500_000 },
            });
        }

        let jittery = Scenario {
            name: "jittery-latency".to_string(),
            seed: 77,
            default_link: LinkProfile {
                dup_ppm: 10_000,
                jitter_ns: 600_000,
                ..LinkProfile::PERFECT
            },
            ..Scenario::perfect()
        };

        vec![Scenario::perfect(), lossy1, lossy10, bursty, jittery]
    }

    /// Looks up a scenario from [`Scenario::corpus`] by name.
    pub fn from_corpus(name: &str) -> Option<Scenario> {
        Scenario::corpus().into_iter().find(|s| s.name == name)
    }

    /// Profile of the `src -> dst` link (override or default).
    pub fn link(&self, src: u32, dst: u32) -> LinkProfile {
        self.links
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, p)| *p)
            .unwrap_or(self.default_link)
    }

    /// True when any link can deviate from perfect delivery or any
    /// fault is scheduled. A non-chaotic scenario takes the zero-cost
    /// fast path: no draws, no journal entries, no allocations.
    pub fn is_chaotic(&self) -> bool {
        !self.default_link.is_perfect()
            || self.links.iter().any(|(_, _, p)| !p.is_perfect())
            || !self.faults.is_empty()
    }

    /// Convenience: wraps the scenario for sharing with a run.
    pub fn into_arc(self) -> Arc<Scenario> {
        Arc::new(self)
    }

    /// Serializes to the canonical line-based text format. The output of
    /// `to_text` always parses back to an equal scenario.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("scenario v1\n");
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "seed {}", self.seed);
        let r = &self.retry;
        let _ = writeln!(
            out,
            "retry timeout_ns={} backoff={} max_timeout_ns={} max_retries={}",
            r.timeout.as_ns(),
            r.backoff,
            r.max_timeout.as_ns(),
            r.max_retries
        );
        let link_line = |label: &str, p: &LinkProfile, out: &mut String| {
            let _ = writeln!(
                out,
                "link {label} loss_ppm={} dup_ppm={} reorder_ppm={} jitter_ns={}",
                p.loss_ppm, p.dup_ppm, p.reorder_ppm, p.jitter_ns
            );
        };
        link_line("*", &self.default_link, &mut out);
        for (s, d, p) in &self.links {
            link_line(&format!("{s}->{d}"), p, &mut out);
        }
        for f in &self.faults {
            let _ = writeln!(out, "{}", f.to_line());
        }
        out
    }

    /// Parses the text format produced by [`Scenario::to_text`]. Blank
    /// lines and `#` comments are allowed.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioParseError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some((_, "scenario v1")) => {}
            Some((n, l)) => return Err(err(n, format!("expected 'scenario v1', got '{l}'"))),
            None => return Err(err(0, "empty scenario file")),
        }
        let mut sc = Scenario::perfect();
        sc.name = String::new();
        let mut saw_default_link = false;
        for (n, line) in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "name" => {
                    if rest.is_empty()
                        || !rest
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
                    {
                        return Err(err(n, format!("invalid scenario name '{rest}'")));
                    }
                    sc.name = rest.to_string();
                }
                "seed" => sc.seed = parse_u64(n, rest, "seed")?,
                "retry" => {
                    let kv = KvLine::new(n, rest);
                    sc.retry = RetryPolicy {
                        timeout: SimTime::from_ns(kv.get("timeout_ns")?),
                        backoff: kv.get("backoff")? as u32,
                        max_timeout: SimTime::from_ns(kv.get("max_timeout_ns")?),
                        max_retries: kv.get("max_retries")? as u32,
                    };
                }
                "link" => {
                    let (label, kvs) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(n, "link line needs a target and rates"))?;
                    let kv = KvLine::new(n, kvs);
                    let p = LinkProfile {
                        loss_ppm: kv.get("loss_ppm")? as u32,
                        dup_ppm: kv.get("dup_ppm")? as u32,
                        reorder_ppm: kv.get("reorder_ppm")? as u32,
                        jitter_ns: kv.get("jitter_ns")?,
                    };
                    if label == "*" {
                        sc.default_link = p;
                        saw_default_link = true;
                    } else {
                        let (s, d) = label
                            .split_once("->")
                            .ok_or_else(|| err(n, format!("bad link target '{label}'")))?;
                        sc.links.push((
                            parse_u64(n, s, "link src")? as u32,
                            parse_u64(n, d, "link dst")? as u32,
                            p,
                        ));
                    }
                }
                "fault" => sc.faults.push(Fault::parse_tail(n, rest)?),
                other => return Err(err(n, format!("unknown directive '{other}'"))),
            }
        }
        if sc.name.is_empty() {
            return Err(err(0, "scenario has no name line"));
        }
        if !saw_default_link {
            return Err(err(0, "scenario has no 'link *' default line"));
        }
        Ok(sc)
    }
}

fn parse_u64(line: usize, s: &str, what: &str) -> Result<u64, ScenarioParseError> {
    s.parse::<u64>()
        .map_err(|_| err(line, format!("bad {what} value '{s}'")))
}

/// Helper over `key=value` tokens on one line.
struct KvLine<'a> {
    line: usize,
    rest: &'a str,
}

impl<'a> KvLine<'a> {
    fn new(line: usize, rest: &'a str) -> Self {
        KvLine { line, rest }
    }

    fn find(&self, key: &str) -> Option<&'a str> {
        self.rest.split_ascii_whitespace().find_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    fn get(&self, key: &str) -> Result<u64, ScenarioParseError> {
        let v = self
            .find(key)
            .ok_or_else(|| err(self.line, format!("missing {key}=")))?;
        parse_u64(self.line, v, key)
    }

    /// An endpoint value: a processor id or `*` for "any".
    fn get_opt_endpoint(&self, key: &str) -> Result<Option<u32>, ScenarioParseError> {
        match self.find(key) {
            None => Err(err(self.line, format!("missing {key}="))),
            Some("*") => Ok(None),
            Some(v) => Ok(Some(parse_u64(self.line, v, key)? as u32)),
        }
    }

    /// Whether a bare (non `key=value`) word appears on the line.
    fn has_word(&self, word: &str) -> bool {
        self.rest.split_ascii_whitespace().any(|tok| tok == word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_round_trips() {
        for sc in Scenario::corpus() {
            let text = sc.to_text();
            let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(back, sc, "{} round trip", sc.name);
            assert_eq!(back.to_text(), text, "{} canonical form", sc.name);
        }
    }

    #[test]
    fn corpus_names_are_unique_and_perfect_is_first() {
        let corpus = Scenario::corpus();
        assert_eq!(corpus[0].name, "perfect");
        assert!(!corpus[0].is_chaotic());
        let mut names: Vec<_> = corpus.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn link_overrides_and_faults_round_trip() {
        let sc = Scenario {
            name: "mixed.faults-1".to_string(),
            seed: 99,
            default_link: LinkProfile {
                loss_ppm: 1,
                dup_ppm: 2,
                reorder_ppm: 3,
                jitter_ns: 4,
            },
            links: vec![(
                0,
                3,
                LinkProfile {
                    loss_ppm: 900_000,
                    ..LinkProfile::PERFECT
                },
            )],
            faults: vec![
                Fault {
                    at: SimTime::from_ms(5),
                    duration: SimTime::from_ms(2),
                    kind: FaultKind::LinkDown {
                        src: None,
                        dst: Some(3),
                    },
                },
                Fault {
                    at: SimTime::from_ms(9),
                    duration: SimTime::from_us(700),
                    kind: FaultKind::ProcStall { proc: 2 },
                },
                Fault {
                    at: SimTime::from_ms(11),
                    duration: SimTime::from_ms(1),
                    kind: FaultKind::LossBurst { loss_ppm: 400_000 },
                },
                Fault {
                    at: SimTime::from_ms(13),
                    duration: SimTime::ZERO,
                    kind: FaultKind::ProcCrash { proc: 1 },
                },
                Fault {
                    at: SimTime::from_ms(14),
                    duration: SimTime::ZERO,
                    kind: FaultKind::ProcRestart { proc: 1 },
                },
                Fault {
                    at: SimTime::from_ms(15),
                    duration: SimTime::ZERO,
                    kind: FaultKind::HomeFailover { home: 0 },
                },
            ],
            retry: RetryPolicy {
                timeout: SimTime::from_us(500),
                backoff: 3,
                max_timeout: SimTime::from_ms(8),
                max_retries: 7,
            },
        };
        assert!(sc.is_chaotic());
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("scenario v2\nname x\nseed 1").is_err());
        let e = Scenario::parse("scenario v1\nname bad name\nseed 1").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(Scenario::parse("scenario v1\nname ok\nfrobnicate 3").is_err());
        // Missing default link.
        assert!(Scenario::parse("scenario v1\nname ok\nseed 1").is_err());
    }

    #[test]
    fn timeout_backoff_is_bounded() {
        let r = RetryPolicy::default();
        assert_eq!(r.timeout_for(0), SimTime::from_ms(2));
        assert_eq!(r.timeout_for(1), SimTime::from_ms(4));
        assert_eq!(r.timeout_for(2), SimTime::from_ms(8));
        assert_eq!(r.timeout_for(3), SimTime::from_ms(16));
        assert_eq!(r.timeout_for(60), SimTime::from_ms(16), "cap holds");
    }

    #[test]
    fn fault_windows_are_half_open() {
        let f = Fault {
            at: SimTime::from_ms(10),
            duration: SimTime::from_ms(5),
            kind: FaultKind::LossBurst { loss_ppm: 1 },
        };
        assert!(!f.active_at(SimTime::from_ms(9)));
        assert!(f.active_at(SimTime::from_ms(10)));
        assert!(f.active_at(SimTime::from_ns(14_999_999)));
        assert!(!f.active_at(SimTime::from_ms(15)));
    }

    #[test]
    fn crash_windows_pair_crash_with_first_following_restart() {
        let ev = |at_ms: u64, kind| Fault {
            at: SimTime::from_ms(at_ms),
            duration: SimTime::ZERO,
            kind,
        };
        let faults = vec![
            ev(10, FaultKind::ProcCrash { proc: 2 }),
            ev(12, FaultKind::ProcRestart { proc: 2 }),
            ev(20, FaultKind::ProcCrash { proc: 2 }),
            ev(30, FaultKind::ProcRestart { proc: 2 }),
            // Restart of another proc must not close proc 2's window.
            ev(21, FaultKind::ProcRestart { proc: 1 }),
            Fault {
                at: SimTime::from_ms(40),
                duration: SimTime::from_ms(5),
                kind: FaultKind::ProcCrash { proc: 3 },
            },
        ];
        let w = crash_windows(&faults);
        assert_eq!(w.len(), 3);
        assert_eq!(
            (w[0].proc, w[0].start, w[0].end),
            (2, SimTime::from_ms(10), SimTime::from_ms(12))
        );
        assert_eq!(
            (w[1].proc, w[1].start, w[1].end),
            (2, SimTime::from_ms(20), SimTime::from_ms(30))
        );
        // No restart scheduled: fall back to the crash's own duration.
        assert_eq!(
            (w[2].proc, w[2].start, w[2].end),
            (3, SimTime::from_ms(40), SimTime::from_ms(45))
        );
        assert!(w[0].covers(2, SimTime::from_ms(11)));
        assert!(!w[0].covers(2, SimTime::from_ms(12)), "window is half-open");
        assert!(!w[0].covers(1, SimTime::from_ms(11)));
        // An instant-reboot crash has an empty window but still exists.
        let instant = crash_windows(&[ev(5, FaultKind::ProcCrash { proc: 0 })]);
        assert_eq!(instant[0].start, instant[0].end);
        assert!(!instant[0].covers(0, SimTime::from_ms(5)));
    }

    #[test]
    fn crash_faults_make_a_scenario_chaotic() {
        let mut sc = Scenario::perfect();
        sc.name = "crash-only".to_string();
        sc.faults.push(Fault {
            at: SimTime::ZERO,
            duration: SimTime::ZERO,
            kind: FaultKind::ProcCrash { proc: 1 },
        });
        assert!(sc.is_chaotic());
        assert_eq!(Scenario::parse(&sc.to_text()).unwrap(), sc);
    }

    #[test]
    fn link_lookup_prefers_override() {
        let mut sc = Scenario::lossy("x", 1, 5);
        sc.links.push((1, 2, LinkProfile::PERFECT));
        assert_eq!(sc.link(0, 1).loss_ppm, 5);
        assert!(sc.link(1, 2).is_perfect());
    }
}
