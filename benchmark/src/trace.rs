//! The benchmark's own spans: recorded in memory around the calls into
//! the program, carried from child to parent as lines, and flushed once
//! at exit as a Chrome trace-event file (`chrome://tracing`, Perfetto).
//! Spans inside the program are a later change (ROADMAP `HostProfile`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::metric::json_str;

/// One completed span. Nesting is by containment: a span's parent is
/// the innermost span of the same process that encloses it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-boundary name: `workload`, `pass`, `cell`, `run_app_tuned`,
    /// `raw_compute`, `reference`, `setup`, …
    pub name: String,
    /// Identifier shared by the spans of one cell:
    /// `workload/pass/app/protocol`.
    pub id: String,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Collects spans against one origin instant.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and lasted `dur`.
    pub fn record(&mut self, name: &str, id: &str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
    }

    /// Records a span that started at `start` and ends now.
    pub fn close(&mut self, name: &str, id: &str, start: Instant) {
        self.record(name, id, start, start.elapsed());
    }
}

/// `S\tname\tid\tstart_us\tdur_us` for the child → parent pipe.
pub fn to_line(s: &Span) -> String {
    format!("S\t{}\t{}\t{}\t{}", s.name, s.id, s.start_us, s.dur_us)
}

pub fn from_line(line: &str) -> Result<Span, String> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 5 || f[0] != "S" {
        return Err(format!("not a span line: {line:?}"));
    }
    Ok(Span {
        name: f[1].to_string(),
        id: f[2].to_string(),
        start_us: f[3].parse().map_err(|e| format!("{line:?}: {e}"))?,
        dur_us: f[4].parse().map_err(|e| format!("{line:?}: {e}"))?,
    })
}

/// Renders the spans of several processes (one per workload, named) as
/// a Chrome trace: complete (`"ph": "X"`) events on one thread per
/// process, so the viewer nests `workload → pass → cell →
/// run_app_tuned` by containment.
pub fn chrome_trace(processes: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (name, spans)) in processes.iter().enumerate() {
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": {}}}}}",
            json_str(name)
        ));
        // Outer spans first, so a viewer that nests in file order agrees
        // with one that nests by containment.
        let mut ordered: Vec<&Span> = spans.iter().collect();
        ordered.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        for s in ordered {
            events.push(format!(
                "{{\"name\": {}, \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 0, \"args\": {{\"id\": {}}}}}",
                json_str(&s.name),
                s.start_us,
                s.dur_us,
                json_str(&s.id)
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let _ = write!(out, "{}", events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lines_round_trip() {
        let s = Span {
            name: "cell".into(),
            id: "paper8_sim/traced/SOR/MW".into(),
            start_us: 12.5,
            dur_us: 477_000.25,
        };
        assert_eq!(from_line(&to_line(&s)).unwrap(), s);
        assert!(from_line("S\tcell").is_err());
    }

    #[test]
    fn chrome_trace_orders_outer_spans_first() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        let outer = Instant::now();
        let inner = Instant::now();
        rec.close("cell", "w/0/SOR/MW", inner);
        rec.close("pass", "w/0", outer);
        let text = chrome_trace(&[("w".to_string(), rec.spans)]);
        let pass = text.find("\"name\": \"pass\"").unwrap();
        let cell = text.find("\"name\": \"cell\"").unwrap();
        assert!(pass < cell, "{text}");
        assert!(text.contains("\"process_name\""));
        assert!(text.trim_end().ends_with("]}"));
    }
}
