//! Turning the cell samples of a pass into the paper's figures:
//! summed virtual time, traffic and twin+diff memory, the speedup
//! geomean, the adaptation gap, and the digest that pins them all.

use adsm_apps::App;
use adsm_core::ProtocolKind;

use crate::stats::{geomean, Digest};
use crate::workload::{Cell, CellSample};

/// The simulated figures of one pass over a workload's cells.
#[derive(Clone, Debug, PartialEq)]
pub struct PassFigures {
    /// Σ over cells of the run's virtual time, in simulated seconds.
    pub virt_time_s: f64,
    /// Geomean over cells of sequential time ÷ run time.
    pub speedup_geomean: f64,
    /// Σ messages (Table 4; retransmissions included under chaos).
    pub msgs: f64,
    /// Σ bytes on the wire, in MB.
    pub data_mb: f64,
    /// The paper's headline, see [`adapt_gap`].
    pub adapt_gap: f64,
    /// Σ peak twin+diff storage (Table 3), in MB.
    pub twin_diff_peak_mb: f64,
    /// Simulated protocol events of the pass.
    pub sim_events: u64,
    pub digest: Digest,
}

/// Geomean over `(app, run time)` rows of `sequential(app) ÷ run time`.
pub fn speedup_geomean(rows: &[(App, u64)], sequential_ns: &[(App, u64)]) -> f64 {
    let speedups: Vec<f64> = rows
        .iter()
        .filter_map(|(app, t)| {
            let seq = sequential_ns.iter().find(|(a, _)| a == app)?.1;
            (*t > 0).then(|| seq as f64 / *t as f64)
        })
        .collect();
    geomean(&speedups)
}

/// The paper's headline claim as one number: geomean over apps of
/// `T(WFS+WG) ÷ min(T(MW), T(SW))` — how close the adaptive protocol
/// comes to the better of the two static ones (below 1 it beats both).
/// A workload without SW cells compares against MW alone; apps without
/// a WFS+WG cell or without any static cell are left out.
pub fn adapt_gap(rows: &[(App, ProtocolKind, u64)]) -> f64 {
    let time_of = |app: App, p: ProtocolKind| {
        rows.iter()
            .find(|(a, q, _)| *a == app && *q == p)
            .map(|r| r.2 as f64)
    };
    let mut apps: Vec<App> = Vec::new();
    for (app, _, _) in rows {
        if !apps.contains(app) {
            apps.push(*app);
        }
    }
    let ratios: Vec<f64> = apps
        .into_iter()
        .filter_map(|app| {
            let adaptive = time_of(app, ProtocolKind::WfsWg)?;
            let best_static = [ProtocolKind::Mw, ProtocolKind::Sw]
                .into_iter()
                .filter_map(|p| time_of(app, p))
                .fold(f64::INFINITY, f64::min);
            (best_static.is_finite() && best_static > 0.0).then(|| adaptive / best_static)
        })
        .collect();
    geomean(&ratios)
}

/// Sums one pass. Cells that panicked carry no statistics and are left
/// out of every figure (the pass is already counted as failed).
pub fn pass_figures(
    cells: &[Cell],
    samples: &[CellSample],
    sequential_ns: &[(App, u64)],
) -> PassFigures {
    let mut digest = Digest::default();
    let (mut virt_ns, mut msgs, mut bytes, mut peak, mut events) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut times = Vec::new();
    for (cell, sample) in cells.iter().zip(samples) {
        let Some(st) = &sample.stats else { continue };
        virt_ns += st.time_ns;
        msgs += st.msgs;
        bytes += st.bytes;
        peak += st.peak_storage_bytes;
        events += st.sim_events();
        st.digest_words().into_iter().for_each(|w| digest.push(w));
        times.push((cell.app, cell.protocol, st.time_ns));
    }
    let by_app: Vec<(App, u64)> = times.iter().map(|(a, _, t)| (*a, *t)).collect();
    PassFigures {
        virt_time_s: virt_ns as f64 / 1e9,
        speedup_geomean: speedup_geomean(&by_app, sequential_ns),
        msgs: msgs as f64,
        data_mb: bytes as f64 / 1e6,
        adapt_gap: adapt_gap(&times),
        twin_diff_peak_mb: peak as f64 / 1e6,
        sim_events: events,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_cell;
    use adsm_apps::{RunOptions, Scale};

    #[test]
    fn adapt_gap_on_a_hand_made_table() {
        use ProtocolKind::{Mw, Sw, Wfs, WfsWg};
        let rows = [
            // SOR: adaptive matches the better static one (SW): ratio 1.
            (App::Sor, Mw, 400),
            (App::Sor, Sw, 200),
            (App::Sor, Wfs, 999),
            (App::Sor, WfsWg, 200),
            // IS: adaptive at a quarter of the better static one (MW).
            (App::Is, Mw, 100),
            (App::Is, Sw, 800),
            (App::Is, WfsWg, 25),
            // Water: no adaptive cell, left out.
            (App::Water, Mw, 5),
            // Barnes: no SW cell, compared against MW alone: ratio 4.
            (App::Barnes, Mw, 10),
            (App::Barnes, WfsWg, 40),
        ];
        // geomean(1, 1/4, 4) = 1
        assert!((adapt_gap(&rows) - 1.0).abs() < 1e-12);
        assert!((adapt_gap(&rows[..7]) - 0.5).abs() < 1e-12);
        assert_eq!(adapt_gap(&[]), 1.0);
    }

    #[test]
    fn speedup_geomean_on_a_hand_made_table() {
        let seq = [(App::Sor, 800), (App::Is, 900)];
        // SOR: 800/100 = 8 and 800/400 = 2; IS: 900/225 = 4 → geomean 4.
        let rows = [(App::Sor, 100), (App::Sor, 400), (App::Is, 225)];
        assert!((speedup_geomean(&rows, &seq) - 4.0).abs() < 1e-12);
        // An app without a sequential reference is left out.
        let rows = [(App::Sor, 100), (App::Tsp, 1)];
        assert!((speedup_geomean(&rows, &seq) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn virt_digest_is_stable_across_two_in_process_runs() {
        let cells = [Cell {
            app: App::Sor,
            protocol: ProtocolKind::Wfs,
        }];
        let seq = [(
            App::Sor,
            adsm_apps::sequential_time(App::Sor, Scale::Tiny).as_ns(),
        )];
        let run = || {
            let s = run_cell(cells[0], 4, Scale::Tiny, &RunOptions::default());
            assert!(s.failure.is_none());
            pass_figures(&cells, &[s], &seq)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.digest.hex(), b.digest.hex());
        assert!(a.msgs > 0.0 && a.virt_time_s > 0.0 && a.speedup_geomean > 0.0);
        // One cell, no static protocol to compare with.
        assert_eq!(a.adapt_gap, 1.0);
    }

    #[test]
    fn a_panicked_cell_is_left_out_of_the_sums() {
        let cells = [
            Cell {
                app: App::Sor,
                protocol: ProtocolKind::Mw,
            },
            Cell {
                app: App::Sor,
                protocol: ProtocolKind::WfsWg,
            },
        ];
        let ok = run_cell(cells[0], 2, Scale::Tiny, &RunOptions::default());
        let dead = CellSample {
            wall_ns: 1,
            stats: None,
            failure: Some("panicked: test".into()),
        };
        let alone = pass_figures(&cells[..1], std::slice::from_ref(&ok), &[]);
        let both = pass_figures(&cells, &[ok, dead], &[]);
        assert_eq!(alone, both);
    }
}
