//! Red-Black successive over-relaxation (§5, §6.4).
//!
//! The shared data structure is a matrix divided into roughly equal-size
//! bands of rows, one band per processor. Each iteration updates every
//! interior element from its four neighbours in two half-sweeps (red,
//! then black), with barriers between the phases; communication happens
//! across band boundaries.
//!
//! Layout: rows are page-multiples (the column count is a multiple of
//! 512 f64), so bands begin on page boundaries and there is **no
//! write-write false sharing** — matching the paper's input. The
//! boundary elements start at 1 and the interior at 0, so few elements
//! change in early iterations and more change later: the paper's
//! *variable* write granularity.

use std::sync::Arc;

use adsm_core::{Proc, ProtocolKind, SharedMatrix};

use crate::support::{band, compare_f64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// SOR input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SorParams {
    /// Matrix rows (including the fixed boundary rows).
    pub rows: usize,
    /// Matrix columns; a multiple of 512 keeps rows page-aligned.
    pub cols: usize,
    /// Red+black iterations.
    pub iters: usize,
    /// Modelled compute time per element update, in nanoseconds
    /// (≈5 FLOPs plus loads/stores on a ~60 MHz SPARC-20).
    pub ns_per_elem: u64,
}

impl SorParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => SorParams {
                rows: 18,
                cols: 512,
                iters: 4,
                ns_per_elem: 400,
            },
            Scale::Small => SorParams {
                rows: 130,
                cols: 512,
                iters: 24,
                ns_per_elem: 2_000,
            },
            // Paper: 1000 x 2000 (we use 2048 columns to keep rows
            // page-aligned, as the paper's layout evidently did — it
            // reports zero write-write false sharing for SOR).
            Scale::Paper => SorParams {
                rows: 500,
                cols: 1024,
                iters: 60,
                ns_per_elem: 2_000,
            },
            // 256 interior rows: one page-aligned band row per
            // processor at the largest sweep point.
            Scale::Large => SorParams {
                rows: 258,
                cols: 512,
                iters: 4,
                ns_per_elem: 400,
            },
        }
    }
}

/// One red/black half-sweep over the band `[r0, r1)` of the grid,
/// reading neighbours and writing updated rows. `color` selects the
/// cells updated in this phase: `(i + j) % 2 == color`; the array is the
/// caller's scratch for three rows.
type Sweep = fn(&SharedMatrix<f64>, &mut Proc, &SorParams, usize, usize, usize, &mut [Vec<f64>; 3]);

/// The half-sweep every run uses. Each row is visited through one span
/// guard — a read view per neighbour row, one writable row view for the
/// update: one rights check, one access tick and one turn point a row —
/// but only rows not yet held are copied out of the page frames. Below
/// the band's first row, row `i - 1` is the row this half-sweep has just
/// relaxed and row `i` was read a step ago as `below`; both are the
/// band's own, which nobody else writes, so `rows3` rotates and only
/// `below` is copied.
fn sweep_rows(
    grid: &SharedMatrix<f64>,
    p: &mut Proc,
    params: &SorParams,
    r0: usize,
    r1: usize,
    color: usize,
    rows3: &mut [Vec<f64>; 3],
) {
    let [above, here, below] = rows3;
    for i in r0..r1 {
        if i == r0 {
            grid.read_row_into(p, i - 1, above);
            grid.read_row_into(p, i, here);
        } else {
            std::mem::swap(above, here);
            std::mem::swap(here, below);
            revisit_row(grid, p, i - 1);
            revisit_row(grid, p, i);
        }
        grid.read_row_into(p, i + 1, below);
        let changed = relax(above, here, below, 1 + (i + 1 + color) % 2);
        p.compute(work(params.cols / 2, params.ns_per_elem));
        if changed {
            grid.write_row_from(p, i, here);
        }
    }
}

/// Visits row `r` without copying it, for a caller that already holds
/// its contents: the read span is opened and dropped, so the rights
/// check, the access tick and the turn point happen exactly as they
/// would around a copy.
fn revisit_row(grid: &SharedMatrix<f64>, p: &mut Proc, r: usize) {
    drop(grid.row(p, r));
}

/// Relaxes every other interior cell of `here`, from column `first` (1 or
/// 2) on, and says whether any of them changed. The three rows are
/// equally long.
fn relax(above: &[f64], here: &mut [f64], below: &[f64], first: usize) -> bool {
    // From `first` on the row is pairs of a cell and its right-hand
    // neighbour, which is the next cell's left-hand one; a row's last
    // column is never the first of a pair.
    let mut left = here[first - 1];
    let sides = above[first..]
        .chunks_exact(2)
        .zip(below[first..].chunks_exact(2));
    let mut changed = false;
    for (pair, (a, b)) in here[first..].chunks_exact_mut(2).zip(sides) {
        let v = 0.25 * (a[0] + b[0] + left + pair[1]);
        changed |= v != pair[0];
        pair[0] = v;
        left = pair[1];
    }
    changed
}

/// Sequential reference: identical arithmetic on a plain vector,
/// computed once per input.
pub fn reference(params: &SorParams) -> Arc<Vec<f64>> {
    static ORACLE: Oracle<SorParams, Vec<f64>> = Oracle::new();
    ORACLE.get(params, sequential)
}

/// A cell of one colour reads only cells of the other, which its own
/// half-sweep leaves alone: sweeping in place is bit-identical to
/// sweeping from a snapshot of the grid.
fn sequential(params: &SorParams) -> Vec<f64> {
    let (rows, cols) = (params.rows, params.cols);
    let mut g = vec![0.0f64; rows * cols];
    init_boundary(&mut g, rows, cols);
    for _ in 0..params.iters {
        for color in [0usize, 1] {
            for i in 1..rows - 1 {
                let (above, rest) = g[(i - 1) * cols..(i + 2) * cols].split_at_mut(cols);
                let (here, below) = rest.split_at_mut(cols);
                // The first interior j with (i + j) % 2 == color.
                for j in (1 + (i + 1 + color) % 2..cols - 1).step_by(2) {
                    here[j] = 0.25 * (above[j] + below[j] + here[j - 1] + here[j + 1]);
                }
            }
        }
    }
    g
}

fn init_boundary(g: &mut [f64], rows: usize, cols: usize) {
    for j in 0..cols {
        g[j] = 1.0;
        g[(rows - 1) * cols + j] = 1.0;
    }
    for i in 0..rows {
        g[i * cols] = 1.0;
        g[i * cols + cols - 1] = 1.0;
    }
}

/// Runs SOR under `protocol` and verifies against the reference.
pub fn run(protocol: ProtocolKind, nprocs: usize, scale: Scale) -> AppRun {
    run_tuned(protocol, nprocs, scale, &RunOptions::default())
}

/// As [`run`], honouring [`RunOptions`] protocol extensions.
pub fn run_tuned(protocol: ProtocolKind, nprocs: usize, scale: Scale, opts: &RunOptions) -> AppRun {
    run_params(protocol, nprocs, SorParams::new(scale), opts)
}

/// Runs SOR with explicit parameters (input-sensitivity sweeps: a column
/// count that is not a multiple of 512 breaks the page alignment of the
/// bands and introduces the write-write false sharing the paper notes
/// for other SOR inputs).
pub fn run_with(protocol: ProtocolKind, nprocs: usize, params: SorParams) -> AppRun {
    run_params(protocol, nprocs, params, &RunOptions::default())
}

fn run_params(
    protocol: ProtocolKind,
    nprocs: usize,
    params: SorParams,
    opts: &RunOptions,
) -> AppRun {
    run_sweeping(protocol, nprocs, params, opts, sweep_rows)
}

fn run_sweeping(
    protocol: ProtocolKind,
    nprocs: usize,
    params: SorParams,
    opts: &RunOptions,
    sweep: Sweep,
) -> AppRun {
    let want = reference(&params);
    let mut dsm = opts.builder(protocol, nprocs).build();
    let grid = dsm.alloc_matrix_page_aligned::<f64>(params.rows, params.cols);

    let body_params = params;
    let outcome = dsm
        .run(move |p| {
            let (rows, cols) = (body_params.rows, body_params.cols);
            if p.index() == 0 {
                // Master initialises the fixed boundary (interior stays
                // zero, as freshly allocated).
                let ones = vec![1.0f64; cols];
                grid.write_row_from(p, 0, &ones);
                grid.write_row_from(p, rows - 1, &ones);
                for i in 1..rows - 1 {
                    grid.set(p, i, 0, 1.0);
                    grid.set(p, i, cols - 1, 1.0);
                }
            }
            p.barrier();
            // Interior rows are banded over the processors.
            let (b0, b1) = band(rows - 2, p.nprocs(), p.index());
            let (r0, r1) = (b0 + 1, b1 + 1);
            let mut rows3: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; cols]);
            for _ in 0..body_params.iters {
                for color in [0usize, 1] {
                    if r1 > r0 {
                        sweep(&grid, p, &body_params, r0, r1, color, &mut rows3);
                    }
                    p.barrier();
                }
            }
        })
        .expect("SOR run failed");

    let got = outcome.read_vec(&grid.shared_vec());
    AppRun::verified(outcome, compare_f64(&got, &want, 1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The half-sweep as it was: three rows copied in per row, a colour
    /// test and four bounds checks per column.
    fn sweep_rows_copying(
        grid: &SharedMatrix<f64>,
        p: &mut Proc,
        params: &SorParams,
        r0: usize,
        r1: usize,
        color: usize,
        rows3: &mut [Vec<f64>; 3],
    ) {
        let cols = params.cols;
        let [above, here, below] = rows3;
        for i in r0..r1 {
            grid.read_row_into(p, i - 1, above);
            grid.read_row_into(p, i, here);
            grid.read_row_into(p, i + 1, below);
            let mut changed = false;
            for j in 1..cols - 1 {
                if (i + j) % 2 == color {
                    let v = 0.25 * (above[j] + below[j] + here[j - 1] + here[j + 1]);
                    if v != here[j] {
                        changed = true;
                    }
                    here[j] = v;
                }
            }
            p.compute(work(cols / 2, params.ns_per_elem));
            if changed {
                grid.write_row_from(p, i, here);
            }
        }
    }

    /// Reusing the band's rows changes what the host copies and nothing
    /// the cluster can observe: same spans in the same order, so the
    /// same image and the same virtual time, traffic and fault counts.
    #[test]
    fn row_reuse_is_invisible_to_the_simulated_cluster() {
        let (tiny, small) = (SorParams::new(Scale::Tiny), SorParams::new(Scale::Small));
        // Bands that share pages; 8 interior rows are bands of 3/3/2
        // over 3 processors and one row each over 8.
        let falsely_shared = SorParams {
            rows: 10,
            cols: 701,
            ..tiny
        };
        let protocols = [
            ProtocolKind::Mw,
            ProtocolKind::Sw,
            ProtocolKind::Wfs,
            ProtocolKind::WfsWg,
            ProtocolKind::Sc,
            ProtocolKind::Hlrc,
        ];
        for params in [tiny, small, falsely_shared] {
            for protocol in protocols {
                for nprocs in [3, 8] {
                    let opts = RunOptions::default();
                    let observed = |sweep: Sweep| {
                        let run = run_sweeping(protocol, nprocs, params, &opts, sweep);
                        assert!(run.ok, "{protocol} x {nprocs}, {params:?}: {}", run.detail);
                        (run.outcome.image().to_vec(), run.outcome.report)
                    };
                    let (image, report) = observed(sweep_rows);
                    let (want_image, want) = observed(sweep_rows_copying);
                    let cell = format!("{protocol} x {nprocs}, {params:?}");
                    assert_eq!(image, want_image, "{cell}");
                    assert_eq!(report.time, want.time, "{cell}");
                    assert_eq!(report.proc_times, want.proc_times, "{cell}");
                    assert_eq!(report.net, want.net, "{cell}");
                    assert_eq!(report.proto, want.proto, "{cell}");
                }
            }
        }
    }

    /// The reference as it was before it swept in place: every
    /// half-sweep reads a snapshot of the whole grid.
    fn sequential_from_snapshot(params: &SorParams) -> Vec<f64> {
        let (rows, cols) = (params.rows, params.cols);
        let mut g = vec![0.0f64; rows * cols];
        init_boundary(&mut g, rows, cols);
        for _ in 0..params.iters {
            for color in [0usize, 1] {
                let snapshot = g.clone();
                for i in 1..rows - 1 {
                    for j in 1..cols - 1 {
                        if (i + j) % 2 == color {
                            g[i * cols + j] = 0.25
                                * (snapshot[(i - 1) * cols + j]
                                    + snapshot[(i + 1) * cols + j]
                                    + snapshot[i * cols + j - 1]
                                    + snapshot[i * cols + j + 1]);
                        }
                    }
                }
            }
        }
        g
    }

    #[test]
    fn in_place_reference_is_bit_equal_to_the_snapshot_one() {
        let (tiny, small) = (SorParams::new(Scale::Tiny), SorParams::new(Scale::Small));
        // Rows that are not page multiples: both colours start a row.
        let unaligned = SorParams { cols: 701, ..tiny };
        for params in [tiny, small, unaligned] {
            let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (got, want) = (reference(&params), sequential_from_snapshot(&params));
            assert_eq!(bits(&got), bits(&want), "{params:?}");
        }
    }

    #[test]
    fn warm_oracle_still_rejects_a_corrupted_image() {
        let params = SorParams::new(Scale::Tiny);
        let mut image = reference(&params).to_vec();
        assert!(compare_f64(&image, &reference(&params), 1e-12).is_ok());
        image[params.cols + 1] += 1e-6;
        assert!(compare_f64(&image, &reference(&params), 1e-12).is_err());
    }

    #[test]
    fn reference_keeps_boundary_fixed() {
        let params = SorParams {
            rows: 8,
            cols: 512,
            iters: 3,
            ns_per_elem: 100,
        };
        let g = reference(&params);
        for j in 0..params.cols {
            assert_eq!(g[j], 1.0);
            assert_eq!(g[(params.rows - 1) * params.cols + j], 1.0);
        }
    }

    #[test]
    fn reference_diffuses_inward() {
        let params = SorParams {
            rows: 8,
            cols: 512,
            iters: 5,
            ns_per_elem: 100,
        };
        let g = reference(&params);
        // Row 1 interior elements have absorbed boundary heat.
        assert!(g[params.cols + 5] > 0.0);
    }

    #[test]
    fn parallel_matches_reference_all_protocols() {
        for protocol in [
            ProtocolKind::Mw,
            ProtocolKind::Sw,
            ProtocolKind::Wfs,
            ProtocolKind::WfsWg,
        ] {
            let run = run(protocol, 4, Scale::Tiny);
            assert!(run.ok, "{protocol}: {}", run.detail);
        }
    }

    #[test]
    fn sor_has_no_write_write_false_sharing() {
        let run = run(ProtocolKind::Mw, 4, Scale::Tiny);
        assert_eq!(
            run.outcome.report.profile.ww_false_shared_pages, 0,
            "page-aligned bands must not falsely share"
        );
    }

    #[test]
    fn uneven_band_split_works() {
        // 3 procs over 16 interior rows: bands of 6/5/5.
        let run = run(ProtocolKind::Wfs, 3, Scale::Tiny);
        assert!(run.ok, "{}", run.detail);
    }
}
