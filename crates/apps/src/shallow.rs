//! NCAR Shallow — finite-difference shallow-water equations on a 2D
//! periodic grid (§5, §6.4), after Sadourny (1975).
//!
//! Thirteen staggered field arrays of `m x (n+1)` doubles are banded by
//! rows over the processors; each timestep computes mass fluxes,
//! potential vorticity and height (`cu`, `cv`, `z`, `h`) from the state
//! (`u`, `v`, `p`), then the new state, then applies Robert-Asselin time
//! smoothing — three barrier-separated phases. Sharing happens across
//! band edges; because rows are **not** page multiples (the `+1`
//! staggering column), band boundaries fall inside pages and a
//! noticeable fraction of pages is write-write falsely shared — the
//! paper measures 13.9% and shows Shallow as the clearest case for
//! per-page adaptation.

use std::sync::Arc;

use adsm_core::{ProtocolKind, SharedMatrix};

use crate::support::{band, compare_f64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// Shallow input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShallowParams {
    /// Grid rows (latitude points).
    pub m: usize,
    /// Grid columns (longitude points); rows hold `n + 1` doubles.
    pub n: usize,
    /// Timesteps.
    pub steps: usize,
    /// Modelled compute per grid element per phase, in nanoseconds.
    pub ns_per_elem: u64,
}

impl ShallowParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => ShallowParams {
                m: 24,
                n: 64,
                steps: 3,
                ns_per_elem: 600,
            },
            Scale::Small => ShallowParams {
                m: 96,
                n: 64,
                steps: 10,
                ns_per_elem: 10_000,
            },
            // Paper: 1024 x 256 (staggered rows of 257 doubles). Scaled
            // to 256 x 128 with the same staggering, so rows stay
            // non-page-aligned and band boundaries fall inside pages.
            Scale::Paper => ShallowParams {
                m: 256,
                n: 128,
                steps: 20,
                ns_per_elem: 10_000,
            },
            // One row band per processor at 256-way, staggered rows
            // kept from the paper layout.
            Scale::Large => ShallowParams {
                m: 256,
                n: 64,
                steps: 3,
                ns_per_elem: 600,
            },
        }
    }

    fn row(&self) -> usize {
        self.n + 1
    }

    fn cells(&self) -> usize {
        self.m * self.row()
    }
}

const DT: f64 = 90.0;
const DX: f64 = 1.0e5;
const DY: f64 = 1.0e5;
const ALPHA: f64 = 0.001;

/// The full field state, as plain vectors (sequential reference) —
/// `u, v, p` plus their old copies and the derived fields.
struct SeqState {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    uold: Vec<f64>,
    vold: Vec<f64>,
    pold: Vec<f64>,
    cu: Vec<f64>,
    cv: Vec<f64>,
    z: Vec<f64>,
    h: Vec<f64>,
}

fn initial_field(params: &ShallowParams) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (m, row) = (params.m, params.row());
    let mut u = vec![0.0; params.cells()];
    let mut v = vec![0.0; params.cells()];
    let mut p = vec![0.0; params.cells()];
    for i in 0..m {
        for j in 0..params.n {
            let x = j as f64 / params.n as f64;
            let y = i as f64 / m as f64;
            let psi = 50.0
                * (2.0 * std::f64::consts::PI * x).sin()
                * (2.0 * std::f64::consts::PI * y).cos();
            u[i * row + j] = -psi * (2.0 * std::f64::consts::PI * y).sin();
            v[i * row + j] = psi * (2.0 * std::f64::consts::PI * x).cos();
            p[i * row + j] = 5000.0 + 100.0 * (2.0 * std::f64::consts::PI * (x + y)).cos();
        }
    }
    (u, v, p)
}

/// Phase 1 formulas for one cell (periodic indexing).
#[allow(clippy::too_many_arguments)]
fn phase1_cell(
    u: &[f64],
    v: &[f64],
    p: &[f64],
    i: usize,
    j: usize,
    m: usize,
    n: usize,
    row: usize,
) -> (f64, f64, f64, f64) {
    let im = (i + m - 1) % m;
    let jm = (j + n - 1) % n;
    let idx = |a: usize, b: usize| a * row + b;
    let cu = 0.5 * (p[idx(i, j)] + p[idx(i, jm)]) * u[idx(i, j)];
    let cv = 0.5 * (p[idx(i, j)] + p[idx(im, j)]) * v[idx(i, j)];
    let z = (4.0 / DX * (v[idx(i, j)] - v[idx(i, jm)]) - 4.0 / DY * (u[idx(i, j)] - u[idx(im, j)]))
        / (p[idx(im, jm)] + p[idx(im, j)] + p[idx(i, j)] + p[idx(i, jm)]);
    let h = p[idx(i, j)] + 0.25 * (u[idx(i, j)] * u[idx(i, j)] + v[idx(i, j)] * v[idx(i, j)]);
    (cu, cv, z, h)
}

/// Phase 2 formulas for one cell (periodic indexing).
#[allow(clippy::too_many_arguments)]
fn phase2_cell(
    state: &SeqState,
    i: usize,
    j: usize,
    m: usize,
    n: usize,
    row: usize,
    tdt: f64,
) -> (f64, f64, f64) {
    let ip = (i + 1) % m;
    let jp = (j + 1) % n;
    let idx = |a: usize, b: usize| a * row + b;
    let unew = state.uold[idx(i, j)]
        + tdt
            * 0.125
            * (state.z[idx(ip, j)] + state.z[idx(i, j)])
            * (state.cv[idx(ip, j)] + state.cv[idx(i, j)])
        - tdt / DX * (state.h[idx(i, jp)] - state.h[idx(i, j)]);
    let vnew = state.vold[idx(i, j)]
        - tdt
            * 0.125
            * (state.z[idx(i, jp)] + state.z[idx(i, j)])
            * (state.cu[idx(i, jp)] + state.cu[idx(i, j)])
        - tdt / DY * (state.h[idx(ip, j)] - state.h[idx(i, j)]);
    let pnew = state.pold[idx(i, j)]
        - tdt / DX * (state.cu[idx(i, jp)] - state.cu[idx(i, j)])
        - tdt / DY * (state.cv[idx(ip, j)] - state.cv[idx(i, j)]);
    (unew, vnew, pnew)
}

/// Sequential reference: the final `p` field, computed once per input.
pub fn reference(params: &ShallowParams) -> Arc<Vec<f64>> {
    static ORACLE: Oracle<ShallowParams, Vec<f64>> = Oracle::new();
    ORACLE.get(params, sequential)
}

fn sequential(params: &ShallowParams) -> Vec<f64> {
    let (m, n, row) = (params.m, params.n, params.row());
    let (u, v, p) = initial_field(params);
    let mut s = SeqState {
        uold: u.clone(),
        vold: v.clone(),
        pold: p.clone(),
        u,
        v,
        p,
        cu: vec![0.0; params.cells()],
        cv: vec![0.0; params.cells()],
        z: vec![0.0; params.cells()],
        h: vec![0.0; params.cells()],
    };
    let mut tdt = DT;
    for step in 0..params.steps {
        for i in 0..m {
            for j in 0..n {
                let (cu, cv, z, h) = phase1_cell(&s.u, &s.v, &s.p, i, j, m, n, row);
                s.cu[i * row + j] = cu;
                s.cv[i * row + j] = cv;
                s.z[i * row + j] = z;
                s.h[i * row + j] = h;
            }
        }
        let mut unew = vec![0.0; params.cells()];
        let mut vnew = vec![0.0; params.cells()];
        let mut pnew = vec![0.0; params.cells()];
        for i in 0..m {
            for j in 0..n {
                let (nu, nv, np_) = phase2_cell(&s, i, j, m, n, row, tdt);
                unew[i * row + j] = nu;
                vnew[i * row + j] = nv;
                pnew[i * row + j] = np_;
            }
        }
        for i in 0..m {
            for j in 0..n {
                let k = i * row + j;
                s.uold[k] = s.u[k] + ALPHA * (unew[k] - 2.0 * s.u[k] + s.uold[k]);
                s.vold[k] = s.v[k] + ALPHA * (vnew[k] - 2.0 * s.v[k] + s.vold[k]);
                s.pold[k] = s.p[k] + ALPHA * (pnew[k] - 2.0 * s.p[k] + s.pold[k]);
                s.u[k] = unew[k];
                s.v[k] = vnew[k];
                s.p[k] = pnew[k];
            }
        }
        if step == 0 {
            tdt += tdt;
        }
    }
    s.p
}

/// Handles to the shared field arrays: `m x (n+1)` row-major matrices,
/// accessed row-wise through span-guard views.
#[derive(Clone, Copy)]
struct Fields {
    u: SharedMatrix<f64>,
    v: SharedMatrix<f64>,
    p: SharedMatrix<f64>,
    uold: SharedMatrix<f64>,
    vold: SharedMatrix<f64>,
    pold: SharedMatrix<f64>,
    cu: SharedMatrix<f64>,
    cv: SharedMatrix<f64>,
    z: SharedMatrix<f64>,
    h: SharedMatrix<f64>,
    unew: SharedMatrix<f64>,
    vnew: SharedMatrix<f64>,
    pnew: SharedMatrix<f64>,
}

/// Runs Shallow under `protocol` and verifies the final pressure field.
pub fn run(protocol: ProtocolKind, nprocs: usize, scale: Scale) -> AppRun {
    run_tuned(protocol, nprocs, scale, &RunOptions::default())
}

/// As [`run`], honouring [`RunOptions`] protocol extensions.
pub fn run_tuned(protocol: ProtocolKind, nprocs: usize, scale: Scale, opts: &RunOptions) -> AppRun {
    run_params(protocol, nprocs, ShallowParams::new(scale), opts)
}

/// Runs Shallow with explicit parameters (input-sensitivity sweeps: the
/// grid shape decides how many band boundaries fall inside shared pages,
/// i.e. the fraction of write-write falsely shared pages).
pub fn run_with(protocol: ProtocolKind, nprocs: usize, params: ShallowParams) -> AppRun {
    run_params(protocol, nprocs, params, &RunOptions::default())
}

fn run_params(
    protocol: ProtocolKind,
    nprocs: usize,
    params: ShallowParams,
    opts: &RunOptions,
) -> AppRun {
    let (m, n, row) = (params.m, params.n, params.row());
    let want = reference(&params);
    let mut dsm = opts.builder(protocol, nprocs).build();
    let fields = Fields {
        u: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        v: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        p: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        uold: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        vold: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        pold: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        cu: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        cv: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        z: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        h: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        unew: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        vnew: dsm.alloc_matrix_page_aligned::<f64>(m, row),
        pnew: dsm.alloc_matrix_page_aligned::<f64>(m, row),
    };

    let outcome = dsm
        .run(move |pr| {
            let (i0, i1) = band(m, pr.nprocs(), pr.index());
            if pr.index() == 0 {
                let (u, v, p) = initial_field(&params);
                // Whole-field initialisation: one writable span view per
                // field covers every row in a single guard.
                fields.u.shared_vec().view_mut(pr, ..).copy_from_slice(&u);
                fields.v.shared_vec().view_mut(pr, ..).copy_from_slice(&v);
                fields.p.shared_vec().view_mut(pr, ..).copy_from_slice(&p);
                fields
                    .uold
                    .shared_vec()
                    .view_mut(pr, ..)
                    .copy_from_slice(&u);
                fields
                    .vold
                    .shared_vec()
                    .view_mut(pr, ..)
                    .copy_from_slice(&v);
                fields
                    .pold
                    .shared_vec()
                    .view_mut(pr, ..)
                    .copy_from_slice(&p);
            }
            pr.barrier();

            let mut tdt = DT;
            // Row-sized scratch buffers, for every phase of every step.
            // A pair holds a row and its neighbour: `im` and `i` in
            // phase 1, `i` and `ip` in phase 2.
            let buf = || vec![0.0f64; row];
            let pair = || [buf(), buf()];
            let (mut ur, mut vr, mut prow) = (pair(), pair(), pair());
            let (mut cur, mut cvr, mut zr, mut hr) = (pair(), pair(), pair(), pair());
            let (mut out_cu, mut out_cv, mut out_z, mut out_h) = (buf(), buf(), buf(), buf());
            let (mut uor, mut vor, mut por) = (buf(), buf(), buf());
            let (mut un, mut vn, mut pn) = (buf(), buf(), buf());
            let (mut uc, mut vc, mut pc) = (buf(), buf(), buf());

            for step in 0..params.steps {
                // --- Phase 1: cu, cv, z, h over own band.
                for i in i0..i1 {
                    let im = (i + m - 1) % m;
                    fields.u.read_row_into(pr, im, &mut ur[0]);
                    fields.u.read_row_into(pr, i, &mut ur[1]);
                    fields.v.read_row_into(pr, im, &mut vr[0]);
                    fields.v.read_row_into(pr, i, &mut vr[1]);
                    fields.p.read_row_into(pr, im, &mut prow[0]);
                    fields.p.read_row_into(pr, i, &mut prow[1]);
                    for j in 0..n {
                        let jm = (j + n - 1) % n;
                        let cu = 0.5 * (prow[1][j] + prow[1][jm]) * ur[1][j];
                        let cv = 0.5 * (prow[1][j] + prow[0][j]) * vr[1][j];
                        let z = (4.0 / DX * (vr[1][j] - vr[1][jm])
                            - 4.0 / DY * (ur[1][j] - ur[0][j]))
                            / (prow[0][jm] + prow[0][j] + prow[1][j] + prow[1][jm]);
                        let h = prow[1][j] + 0.25 * (ur[1][j] * ur[1][j] + vr[1][j] * vr[1][j]);
                        out_cu[j] = cu;
                        out_cv[j] = cv;
                        out_z[j] = z;
                        out_h[j] = h;
                    }
                    out_cu[n] = 0.0;
                    out_cv[n] = 0.0;
                    out_z[n] = 0.0;
                    out_h[n] = 0.0;
                    fields.cu.write_row_from(pr, i, &out_cu);
                    fields.cv.write_row_from(pr, i, &out_cv);
                    fields.z.write_row_from(pr, i, &out_z);
                    fields.h.write_row_from(pr, i, &out_h);
                    pr.compute(work(n, params.ns_per_elem));
                }
                pr.barrier();

                // --- Phase 2: unew, vnew, pnew over own band.
                for i in i0..i1 {
                    let ip = (i + 1) % m;
                    fields.cu.read_row_into(pr, i, &mut cur[0]);
                    fields.cu.read_row_into(pr, ip, &mut cur[1]);
                    fields.cv.read_row_into(pr, i, &mut cvr[0]);
                    fields.cv.read_row_into(pr, ip, &mut cvr[1]);
                    fields.z.read_row_into(pr, i, &mut zr[0]);
                    fields.z.read_row_into(pr, ip, &mut zr[1]);
                    fields.h.read_row_into(pr, i, &mut hr[0]);
                    fields.h.read_row_into(pr, ip, &mut hr[1]);
                    fields.uold.read_row_into(pr, i, &mut uor);
                    fields.vold.read_row_into(pr, i, &mut vor);
                    fields.pold.read_row_into(pr, i, &mut por);
                    for j in 0..n {
                        let jp = (j + 1) % n;
                        let unew = uor[j]
                            + tdt * 0.125 * (zr[1][j] + zr[0][j]) * (cvr[1][j] + cvr[0][j])
                            - tdt / DX * (hr[0][jp] - hr[0][j]);
                        let vnew = vor[j]
                            - tdt * 0.125 * (zr[0][jp] + zr[0][j]) * (cur[0][jp] + cur[0][j])
                            - tdt / DY * (hr[1][j] - hr[0][j]);
                        let pnew = por[j]
                            - tdt / DX * (cur[0][jp] - cur[0][j])
                            - tdt / DY * (cvr[1][j] - cvr[0][j]);
                        out_cu[j] = unew;
                        out_cv[j] = vnew;
                        out_z[j] = pnew;
                    }
                    out_cu[n] = 0.0;
                    out_cv[n] = 0.0;
                    out_z[n] = 0.0;
                    fields.unew.write_row_from(pr, i, &out_cu);
                    fields.vnew.write_row_from(pr, i, &out_cv);
                    fields.pnew.write_row_from(pr, i, &out_z);
                    pr.compute(work(n, params.ns_per_elem));
                }
                pr.barrier();

                // --- Phase 3: time smoothing and state rotation.
                for i in i0..i1 {
                    fields.unew.read_row_into(pr, i, &mut un);
                    fields.vnew.read_row_into(pr, i, &mut vn);
                    fields.pnew.read_row_into(pr, i, &mut pn);
                    fields.u.read_row_into(pr, i, &mut uc);
                    fields.v.read_row_into(pr, i, &mut vc);
                    fields.p.read_row_into(pr, i, &mut pc);
                    fields.uold.read_row_into(pr, i, &mut uor);
                    fields.vold.read_row_into(pr, i, &mut vor);
                    fields.pold.read_row_into(pr, i, &mut por);
                    for j in 0..n {
                        uor[j] = uc[j] + ALPHA * (un[j] - 2.0 * uc[j] + uor[j]);
                        vor[j] = vc[j] + ALPHA * (vn[j] - 2.0 * vc[j] + vor[j]);
                        por[j] = pc[j] + ALPHA * (pn[j] - 2.0 * pc[j] + por[j]);
                    }
                    fields.uold.write_row_from(pr, i, &uor);
                    fields.vold.write_row_from(pr, i, &vor);
                    fields.pold.write_row_from(pr, i, &por);
                    fields.u.write_row_from(pr, i, &un);
                    fields.v.write_row_from(pr, i, &vn);
                    fields.p.write_row_from(pr, i, &pn);
                    pr.compute(work(n, params.ns_per_elem / 2));
                }
                if step == 0 {
                    tdt += tdt;
                }
                pr.barrier();
            }
        })
        .expect("Shallow run failed");

    let got = outcome.read_vec(&fields.p.shared_vec());
    AppRun::verified(outcome, compare_f64(&got, &want, 1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stays_finite() {
        let p = reference(&ShallowParams::new(Scale::Tiny));
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p.iter().any(|v| *v != 0.0));
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
    fn shallow_exhibits_partial_false_sharing() {
        // Band boundaries fall inside pages (rows are not page
        // multiples), so some — but not all — pages are falsely shared.
        let run = run(ProtocolKind::Mw, 4, Scale::Small);
        let prof = &run.outcome.report.profile;
        assert!(prof.ww_false_shared_pages > 0, "expected boundary sharing");
        assert!(
            (prof.pct_ww_false_shared) < 60.0,
            "most pages have a single writer, got {}%",
            prof.pct_ww_false_shared
        );
    }
}
