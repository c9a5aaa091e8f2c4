//! NAS 3D-FFT (§5, §6.4): solves a PDE spectrally with forward and
//! inverse 3-D FFTs, transposing between dimensions.
//!
//! Data layout: an `n^3` complex grid stored z-major (`data`) and an
//! x-major transposed copy (`tdata`). The z-planes of `data` are banded
//! over the processors, as are the x-bands of `tdata`. Each iteration:
//!
//! 1. forward FFT along x and y on the local z-planes (local);
//! 2. barrier; transposed FFT along z: each processor gathers z-lines
//!    from everyone's planes (producer-consumer), transforms, applies
//!    the spectral evolution factor, and writes its own `tdata` band;
//! 3. barrier; inverse transform back into `data` the same way.
//!
//! Pages are completely overwritten every time they are touched — the
//! paper's large write granularity. One small shared statistics page is
//! written concurrently by all processors (28-byte records), producing
//! the paper's single write-write falsely-shared page out of thousands.

use std::sync::Arc;

use adsm_core::ProtocolKind;

use crate::support::{band, compare_f64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// 3D-FFT input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FftParams {
    /// Grid edge (power of two); the grid is `n^3` complex values.
    pub n: usize,
    /// Forward+inverse iterations.
    pub iters: usize,
    /// Modelled compute per butterfly, in nanoseconds.
    pub ns_per_op: u64,
}

impl FftParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => FftParams {
                n: 8,
                iters: 2,
                ns_per_op: 120,
            },
            Scale::Small => FftParams {
                n: 16,
                iters: 6,
                ns_per_op: 5_000,
            },
            // Paper: 64^3, 6 iterations shown in Fig. 3.
            Scale::Paper => FftParams {
                n: 32,
                iters: 6,
                ns_per_op: 5_000,
            },
            // 16^3: plane bands thin out past 16 processors (extras
            // idle through the barriers), which is the interesting
            // regime for barrier-cost scaling.
            Scale::Large => FftParams {
                n: 16,
                iters: 2,
                ns_per_op: 120,
            },
        }
    }
}

/// In-place iterative radix-2 FFT over `line` (interleaved re/im).
/// `inverse` selects the conjugate transform and applies 1/n scaling.
fn fft1d(line: &mut [f64], inverse: bool) {
    let n = line.len() / 2;
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            line.swap(2 * i, 2 * j);
            line.swap(2 * i + 1, 2 * j + 1);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = i + k;
                let b = i + k + len / 2;
                let (ar, ai) = (line[2 * a], line[2 * a + 1]);
                let (br, bi) = (line[2 * b], line[2 * b + 1]);
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                line[2 * a] = ar + tr;
                line[2 * a + 1] = ai + ti;
                line[2 * b] = ar - tr;
                line[2 * b + 1] = ai - ti;
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for v in line.iter_mut() {
            *v *= scale;
        }
    }
}

/// Spectral evolution factor for wavenumber index `k` of `n` at
/// iteration `it` — a deterministic unit-magnitude rotation.
fn evolve(k: usize, n: usize, it: usize) -> (f64, f64) {
    let theta = 2.0 * std::f64::consts::PI * (k as f64 / n as f64) * (0.1 + 0.05 * it as f64);
    (theta.cos(), theta.sin())
}

/// Initial field value at (x, y, z) — deterministic pseudo-random.
fn initial(x: usize, y: usize, z: usize, n: usize) -> (f64, f64) {
    let s = crate::support::unit_f64(((x * n + y) * n + z) as u64 + 0xF17);
    let t = crate::support::unit_f64(((x * n + y) * n + z) as u64 + 0xF18);
    (2.0 * s - 1.0, 2.0 * t - 1.0)
}

/// Index of complex element (x, y, z) in the z-major array.
fn zmaj(x: usize, y: usize, z: usize, n: usize) -> usize {
    2 * ((z * n + y) * n + x)
}

/// Index of complex element (x, y, z) in the x-major array.
fn xmaj(x: usize, y: usize, z: usize, n: usize) -> usize {
    2 * ((x * n + y) * n + z)
}

/// Sequential reference: identical arithmetic on plain vectors,
/// computed once per input.
pub fn reference(params: &FftParams) -> Arc<Vec<f64>> {
    static ORACLE: Oracle<FftParams, Vec<f64>> = Oracle::new();
    ORACLE.get(params, sequential)
}

fn sequential(params: &FftParams) -> Vec<f64> {
    let n = params.n;
    let mut data = vec![0.0f64; 2 * n * n * n];
    let mut tdata = vec![0.0f64; 2 * n * n * n];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let (re, im) = initial(x, y, z, n);
                data[zmaj(x, y, z, n)] = re;
                data[zmaj(x, y, z, n) + 1] = im;
            }
        }
    }
    let mut line = vec![0.0f64; 2 * n];
    for it in 0..params.iters {
        // Forward x and y on z-planes.
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    line[2 * x] = data[zmaj(x, y, z, n)];
                    line[2 * x + 1] = data[zmaj(x, y, z, n) + 1];
                }
                fft1d(&mut line, false);
                for x in 0..n {
                    data[zmaj(x, y, z, n)] = line[2 * x];
                    data[zmaj(x, y, z, n) + 1] = line[2 * x + 1];
                }
            }
            for x in 0..n {
                for y in 0..n {
                    line[2 * y] = data[zmaj(x, y, z, n)];
                    line[2 * y + 1] = data[zmaj(x, y, z, n) + 1];
                }
                fft1d(&mut line, false);
                for y in 0..n {
                    data[zmaj(x, y, z, n)] = line[2 * y];
                    data[zmaj(x, y, z, n) + 1] = line[2 * y + 1];
                }
            }
        }
        // z transform + evolve into tdata.
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    line[2 * z] = data[zmaj(x, y, z, n)];
                    line[2 * z + 1] = data[zmaj(x, y, z, n) + 1];
                }
                fft1d(&mut line, false);
                for z in 0..n {
                    let (er, ei) = evolve(z, n, it);
                    let (re, im) = (line[2 * z], line[2 * z + 1]);
                    line[2 * z] = re * er - im * ei;
                    line[2 * z + 1] = re * ei + im * er;
                }
                fft1d(&mut line, true);
                for z in 0..n {
                    tdata[xmaj(x, y, z, n)] = line[2 * z];
                    tdata[xmaj(x, y, z, n) + 1] = line[2 * z + 1];
                }
            }
        }
        // Inverse x and y back into data.
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    line[2 * x] = tdata[xmaj(x, y, z, n)];
                    line[2 * x + 1] = tdata[xmaj(x, y, z, n) + 1];
                }
                fft1d(&mut line, true);
                for x in 0..n {
                    data[zmaj(x, y, z, n)] = line[2 * x];
                    data[zmaj(x, y, z, n) + 1] = line[2 * x + 1];
                }
            }
            for x in 0..n {
                for y in 0..n {
                    line[2 * y] = data[zmaj(x, y, z, n)];
                    line[2 * y + 1] = data[zmaj(x, y, z, n) + 1];
                }
                fft1d(&mut line, true);
                for y in 0..n {
                    data[zmaj(x, y, z, n)] = line[2 * y];
                    data[zmaj(x, y, z, n) + 1] = line[2 * y + 1];
                }
            }
        }
    }
    data
}

/// Runs 3D-FFT under `protocol` and verifies against the reference.
pub fn run(protocol: ProtocolKind, nprocs: usize, scale: Scale) -> AppRun {
    run_with(protocol, nprocs, FftParams::new(scale))
}

/// As [`run`], honouring [`RunOptions`] protocol extensions.
pub fn run_tuned(protocol: ProtocolKind, nprocs: usize, scale: Scale, opts: &RunOptions) -> AppRun {
    run_params(protocol, nprocs, FftParams::new(scale), opts)
}

/// Runs 3D-FFT with explicit parameters (parameter sweeps, debugging).
pub fn run_with(protocol: ProtocolKind, nprocs: usize, params: FftParams) -> AppRun {
    run_params(protocol, nprocs, params, &RunOptions::default())
}

/// Runs 3D-FFT with an explicit cost model (used by the Figure 3
/// reproduction, which scales the paper's 1 MB GC threshold to the
/// scaled-down grid so the MW saw-tooth appears at the same number of
/// iterations).
pub fn run_custom(
    protocol: ProtocolKind,
    nprocs: usize,
    params: FftParams,
    cost: adsm_core::CostModel,
) -> AppRun {
    let opts = RunOptions {
        cost: Some(cost),
        ..RunOptions::default()
    };
    run_params(protocol, nprocs, params, &opts)
}

fn run_params(
    protocol: ProtocolKind,
    nprocs: usize,
    params: FftParams,
    opts: &RunOptions,
) -> AppRun {
    let n = params.n;
    let want = reference(&params);
    let mut dsm = opts.builder(protocol, nprocs).build();
    let data = dsm.alloc_page_aligned::<f64>(2 * n * n * n);
    let tdata = dsm.alloc_page_aligned::<f64>(2 * n * n * n);
    // Per-processor 28-byte statistics records on one shared page — the
    // paper's single falsely-shared page.
    let stats = dsm.alloc_page_aligned::<f64>(nprocs * 4);

    let outcome = dsm
        .run(move |p| {
            let np = p.nprocs();
            let (z0, z1) = band(n, np, p.index());
            let (x0, x1) = band(n, np, p.index());
            let line_ops = (n as f64 * (n as f64).log2()) as usize;

            // Master initialises the field.
            if p.index() == 0 {
                let mut plane = vec![0.0f64; 2 * n * n];
                for z in 0..n {
                    for y in 0..n {
                        for x in 0..n {
                            let (re, im) = initial(x, y, z, n);
                            plane[2 * (y * n + x)] = re;
                            plane[2 * (y * n + x) + 1] = im;
                        }
                    }
                    data.write_from(p, zmaj(0, 0, z, n), &plane);
                }
            }
            p.barrier();

            let mut plane = vec![0.0f64; 2 * n * n];
            let mut line = vec![0.0f64; 2 * n];
            for it in 0..params.iters {
                // 1. Forward x & y on local z-planes.
                for z in z0..z1 {
                    data.read_into(p, zmaj(0, 0, z, n), &mut plane);
                    for y in 0..n {
                        fft1d(&mut plane[2 * y * n..2 * (y + 1) * n], false);
                    }
                    for x in 0..n {
                        for y in 0..n {
                            line[2 * y] = plane[2 * (y * n + x)];
                            line[2 * y + 1] = plane[2 * (y * n + x) + 1];
                        }
                        fft1d(&mut line, false);
                        for y in 0..n {
                            plane[2 * (y * n + x)] = line[2 * y];
                            plane[2 * (y * n + x) + 1] = line[2 * y + 1];
                        }
                    }
                    data.write_from(p, zmaj(0, 0, z, n), &plane);
                    p.compute(work(2 * n * line_ops, params.ns_per_op));
                }
                p.barrier();

                // 2. z transform + evolve + inverse z into own tdata band
                //    (gathers z-lines across every processor's planes).
                for x in x0..x1 {
                    for y in 0..n {
                        for z in 0..n {
                            // One complex value per gather: a 2-element
                            // span view decodes straight from the page
                            // frame — no per-gather vector.
                            let s = zmaj(x, y, z, n);
                            let v = data.view(p, s..s + 2);
                            line[2 * z] = v.at(0);
                            line[2 * z + 1] = v.at(1);
                        }
                        fft1d(&mut line, false);
                        for z in 0..n {
                            let (er, ei) = evolve(z, n, it);
                            let (re, im) = (line[2 * z], line[2 * z + 1]);
                            line[2 * z] = re * er - im * ei;
                            line[2 * z + 1] = re * ei + im * er;
                        }
                        fft1d(&mut line, true);
                        tdata.write_from(p, xmaj(x, y, 0, n), &line);
                        p.compute(work(2 * line_ops, params.ns_per_op));
                    }
                }
                // Concurrent small-record bookkeeping: the falsely-shared
                // statistics page (28 bytes per processor per iteration).
                for s in 0..3 {
                    stats.set(p, p.index() * 4 + s, (it * np + p.index() + s) as f64);
                }
                p.barrier();

                // 3. Inverse x & y back into own z-planes of data
                //    (gathers from every processor's tdata bands).
                for z in z0..z1 {
                    for y in 0..n {
                        for x in 0..n {
                            let s = xmaj(x, y, z, n);
                            let v = tdata.view(p, s..s + 2);
                            plane[2 * (y * n + x)] = v.at(0);
                            plane[2 * (y * n + x) + 1] = v.at(1);
                        }
                    }
                    for x in 0..n {
                        for y in 0..n {
                            line[2 * y] = plane[2 * (y * n + x)];
                            line[2 * y + 1] = plane[2 * (y * n + x) + 1];
                        }
                        fft1d(&mut line, true);
                        for y in 0..n {
                            plane[2 * (y * n + x)] = line[2 * y];
                            plane[2 * (y * n + x) + 1] = line[2 * y + 1];
                        }
                    }
                    for y in 0..n {
                        fft1d(&mut plane[2 * y * n..2 * (y + 1) * n], true);
                    }
                    data.write_from(p, zmaj(0, 0, z, n), &plane);
                    p.compute(work(2 * n * line_ops, params.ns_per_op));
                }
                p.barrier();
            }
        })
        .expect("3D-FFT run failed");

    let got = outcome.read_vec(&data);
    AppRun::verified(outcome, compare_f64(&got, &want, 1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft1d_round_trips() {
        let n = 16;
        let orig: Vec<f64> = (0..2 * n).map(|i| (i as f64).sin()).collect();
        let mut line = orig.clone();
        fft1d(&mut line, false);
        fft1d(&mut line, true);
        for (a, b) in line.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn fft1d_of_impulse_is_flat() {
        let n = 8;
        let mut line = vec![0.0f64; 2 * n];
        line[0] = 1.0;
        fft1d(&mut line, false);
        for k in 0..n {
            assert!((line[2 * k] - 1.0).abs() < 1e-12);
            assert!(line[2 * k + 1].abs() < 1e-12);
        }
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
    fn fft_false_sharing_is_limited_to_the_stats_page() {
        // At Small scale a z-plane is exactly one page (16x16 complex =
        // 4096 B), so bands are page-aligned — as with the paper's 64^3
        // input — and only the statistics page is falsely shared.
        let run = run(ProtocolKind::Mw, 4, Scale::Small);
        let profile = &run.outcome.report.profile;
        assert!(
            profile.ww_false_shared_pages <= 1,
            "only the stats page may be falsely shared, got {}",
            profile.ww_false_shared_pages
        );
        assert!(
            profile.written_pages > 30,
            "many data pages, one stats page"
        );
    }
}
