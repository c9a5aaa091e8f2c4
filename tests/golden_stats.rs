//! Golden-stats equivalence: refactors of the protocol stack (trait
//! dispatch, the adaptation rule, the shared interval log) must leave
//! run behaviour **bit-identical**. The simulator is
//! deterministic, so every per-app, per-protocol outcome digest below —
//! captured on the pre-refactor tree — must reproduce exactly.
//!
//! Regenerate (after an *intentional* behaviour change only) with:
//!
//! ```text
//! cargo test --release --test golden_stats -- --ignored --nocapture print_golden
//! ```
//!
//! and paste the printed tables over `GOLDEN` and `GOLDEN64`.

use adsm::{run_app, run_app_tuned, App, ProtocolKind, RunOptions, RunReport, Scale, Scenario};

/// Protocols covered by the digest: the four evaluated protocols plus
/// the two related-work comparators.
const PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::Mw,
    ProtocolKind::Sw,
    ProtocolKind::Wfs,
    ProtocolKind::WfsWg,
    ProtocolKind::Sc,
    ProtocolKind::Hlrc,
];

/// FFT bands need `nprocs | n` at tiny scale; 2 divides everything.
fn procs_for(app: App) -> usize {
    if app == App::Fft3d {
        2
    } else {
        4
    }
}

/// The digest of one run: every deterministic counter that the
/// dispatch, policy and interval-log layers can influence.
fn digest(r: &RunReport) -> [u64; 15] {
    [
        r.time.as_ns(),
        r.net.total_messages(),
        r.net.total_bytes(),
        r.proto.read_faults,
        r.proto.write_faults,
        r.proto.twins_created,
        r.proto.diffs_created,
        r.proto.diffs_applied,
        r.proto.ownership_grants,
        r.proto.ownership_refusals,
        r.proto.switches_to_mw,
        r.proto.switches_to_sw,
        r.proto.pages_transferred,
        r.proto.gc_runs,
        r.final_sw_pages as u64,
    ]
}

fn run_digest(app: App, proto: ProtocolKind) -> [u64; 15] {
    let run = run_app(app, proto, procs_for(app), Scale::Tiny);
    assert!(run.ok, "{app} under {proto}: {}", run.detail);
    digest(&run.outcome.report)
}

/// Captured on the pre-refactor tree (PR 2 head): `(app, protocol) ->
/// [time_ns, msgs, bytes, read_faults, write_faults, twins, diffs,
/// diffs_applied, grants, refusals, to_mw, to_sw, pages_xfer, gc_runs,
/// final_sw_pages]`.
const GOLDEN: &[(App, ProtocolKind, [u64; 15])] = &[
    (
        App::Sor,
        ProtocolKind::Mw,
        [
            72732056, 210, 124916, 60, 146, 146, 146, 60, 0, 0, 0, 0, 18, 0, 0,
        ],
    ),
    (
        App::Sor,
        ProtocolKind::Sw,
        [
            73677432, 210, 312036, 60, 146, 0, 0, 0, 12, 0, 0, 0, 72, 0, 18,
        ],
    ),
    (
        App::Sor,
        ProtocolKind::Wfs,
        [
            66951832, 198, 262212, 60, 146, 0, 0, 0, 12, 0, 0, 0, 60, 0, 18,
        ],
    ),
    (
        App::Sor,
        ProtocolKind::WfsWg,
        [
            66313000, 198, 124024, 60, 146, 103, 103, 41, 0, 12, 52, 0, 19, 0, 5,
        ],
    ),
    (
        App::Sor,
        ProtocolKind::Sc,
        [
            97174832, 347, 263800, 60, 73, 0, 0, 0, 12, 0, 0, 0, 60, 0, 18,
        ],
    ),
    (
        App::Sor,
        ProtocolKind::Hlrc,
        [
            122808240, 287, 390408, 53, 146, 109, 109, 109, 0, 0, 0, 0, 62, 0, 0,
        ],
    ),
    (
        App::Is,
        ProtocolKind::Mw,
        [
            103300164, 202, 209866, 26, 27, 27, 27, 66, 0, 0, 0, 0, 6, 0, 0,
        ],
    ),
    (
        App::Is,
        ProtocolKind::Sw,
        [
            114049436, 172, 199706, 26, 27, 0, 0, 0, 22, 0, 0, 0, 46, 0, 3,
        ],
    ),
    (
        App::Is,
        ProtocolKind::Wfs,
        [
            77058636, 150, 108362, 26, 27, 0, 0, 0, 22, 0, 0, 0, 24, 0, 3,
        ],
    ),
    (
        App::Is,
        ProtocolKind::WfsWg,
        [
            98289252, 194, 193986, 26, 27, 22, 22, 60, 0, 2, 8, 0, 6, 0, 1,
        ],
    ),
    (
        App::Is,
        ProtocolKind::Sc,
        [
            122051136, 217, 109784, 26, 25, 0, 0, 0, 22, 0, 0, 0, 24, 0, 3,
        ],
    ),
    (
        App::Is,
        ProtocolKind::Hlrc,
        [
            83076412, 119, 137502, 21, 27, 21, 21, 21, 0, 0, 0, 0, 20, 0, 0,
        ],
    ),
    (
        App::Fft3d,
        ProtocolKind::Mw,
        [36305152, 46, 72484, 9, 18, 18, 18, 14, 0, 0, 0, 0, 5, 0, 0],
    ),
    (
        App::Fft3d,
        ProtocolKind::Sw,
        [40567588, 50, 76832, 9, 22, 0, 0, 0, 9, 0, 0, 0, 18, 0, 5],
    ),
    (
        App::Fft3d,
        ProtocolKind::Wfs,
        [24541880, 40, 51522, 9, 18, 1, 1, 0, 4, 1, 2, 0, 12, 0, 4],
    ),
    (
        App::Fft3d,
        ProtocolKind::WfsWg,
        [28541664, 42, 51640, 9, 18, 6, 6, 2, 0, 3, 13, 10, 10, 0, 3],
    ),
    (
        App::Fft3d,
        ProtocolKind::Sc,
        [40559680, 78, 73744, 9, 19, 0, 0, 0, 9, 0, 0, 0, 17, 0, 5],
    ),
    (
        App::Fft3d,
        ProtocolKind::Hlrc,
        [27381904, 39, 51476, 9, 18, 3, 3, 3, 0, 0, 0, 0, 11, 0, 0],
    ),
    (
        App::Tsp,
        ProtocolKind::Mw,
        [
            349170212, 1445, 141406, 171, 157, 157, 157, 470, 0, 0, 0, 0, 9, 0, 0,
        ],
    ),
    (
        App::Tsp,
        ProtocolKind::Sw,
        [
            774397728, 1325, 1407964, 170, 158, 0, 0, 0, 153, 0, 0, 0, 323, 0, 2,
        ],
    ),
    (
        App::Tsp,
        ProtocolKind::Wfs,
        [
            523735088, 1176, 772830, 170, 157, 0, 0, 0, 153, 0, 0, 0, 170, 0, 2,
        ],
    ),
    (
        App::Tsp,
        ProtocolKind::WfsWg,
        [
            342834804, 1421, 139682, 168, 155, 151, 151, 453, 0, 2, 8, 0, 9, 0, 0,
        ],
    ),
    (
        App::Tsp,
        ProtocolKind::Sc,
        [
            825635328, 1659, 786456, 170, 156, 0, 0, 0, 153, 0, 0, 0, 170, 0, 2,
        ],
    ),
    (
        App::Tsp,
        ProtocolKind::Hlrc,
        [
            447577268, 930, 595680, 129, 156, 113, 113, 113, 0, 0, 0, 0, 129, 0, 0,
        ],
    ),
    (
        App::Water,
        ProtocolKind::Mw,
        [
            79003928, 396, 159464, 67, 70, 70, 70, 155, 0, 0, 0, 0, 24, 0, 0,
        ],
    ),
    (
        App::Water,
        ProtocolKind::Sw,
        [
            105062940, 339, 474690, 64, 84, 0, 0, 0, 46, 0, 0, 0, 110, 0, 8,
        ],
    ),
    (
        App::Water,
        ProtocolKind::Wfs,
        [
            84294296, 288, 387032, 64, 75, 7, 7, 8, 37, 3, 12, 4, 89, 0, 6,
        ],
    ),
    (
        App::Water,
        ProtocolKind::WfsWg,
        [
            87470008, 354, 247400, 65, 71, 55, 55, 101, 0, 7, 32, 0, 42, 0, 0,
        ],
    ),
    (
        App::Water,
        ProtocolKind::Sc,
        [
            127338064, 527, 380408, 70, 61, 0, 0, 0, 44, 0, 0, 0, 86, 0, 8,
        ],
    ),
    (
        App::Water,
        ProtocolKind::Hlrc,
        [
            108548100, 271, 339656, 57, 71, 53, 53, 53, 0, 0, 0, 0, 75, 0, 0,
        ],
    ),
    (
        App::Shallow,
        ProtocolKind::Mw,
        [
            256946964, 776, 985730, 258, 297, 297, 297, 276, 0, 0, 0, 0, 82, 0, 0,
        ],
    ),
    (
        App::Shallow,
        ProtocolKind::Sw,
        [
            413963180, 1012, 1925692, 172, 458, 0, 0, 0, 278, 0, 0, 0, 450, 0, 52,
        ],
    ),
    (
        App::Shallow,
        ProtocolKind::Wfs,
        [
            244342344, 752, 983192, 241, 320, 196, 196, 235, 63, 39, 156, 0, 139, 0, 13,
        ],
    ),
    (
        App::Shallow,
        ProtocolKind::WfsWg,
        [
            242411236, 768, 865658, 255, 297, 260, 260, 236, 0, 78, 208, 0, 53, 0, 0,
        ],
    ),
    (
        App::Shallow,
        ProtocolKind::Sc,
        [
            642390000, 2226, 2111184, 228, 466, 0, 0, 0, 394, 0, 0, 0, 486, 0, 52,
        ],
    ),
    (
        App::Shallow,
        ProtocolKind::Hlrc,
        [
            261778068, 555, 1052678, 159, 297, 135, 135, 135, 0, 0, 0, 0, 180, 0, 0,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::Mw,
        [
            27114166, 198, 78756, 30, 34, 34, 34, 78, 0, 0, 0, 0, 6, 0, 0,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::Sw,
        [
            519294690, 918, 1296220, 49, 271, 0, 0, 0, 246, 0, 0, 0, 296, 0, 2,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::Wfs,
        [
            30780920, 186, 104244, 30, 34, 28, 28, 64, 2, 4, 8, 0, 14, 0, 0,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::WfsWg,
        [
            31252598, 198, 90888, 29, 34, 30, 30, 72, 0, 6, 8, 0, 12, 0, 0,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::Sc,
        [
            447410814, 1698, 1547024, 119, 306, 0, 0, 0, 286, 0, 0, 0, 355, 0, 2,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::Hlrc,
        [
            33233134, 103, 118420, 24, 34, 25, 25, 25, 0, 0, 0, 0, 24, 0, 0,
        ],
    ),
    (
        App::Ilink,
        ProtocolKind::Mw,
        [
            113919080, 444, 136796, 110, 108, 108, 108, 175, 0, 0, 0, 0, 26, 0, 0,
        ],
    ),
    (
        App::Ilink,
        ProtocolKind::Sw,
        [
            207358824, 454, 762728, 102, 111, 0, 0, 0, 76, 0, 0, 0, 178, 0, 15,
        ],
    ),
    (
        App::Ilink,
        ProtocolKind::Wfs,
        [
            149803436, 418, 313942, 101, 108, 56, 56, 106, 17, 12, 36, 0, 70, 0, 6,
        ],
    ),
    (
        App::Ilink,
        ProtocolKind::WfsWg,
        [
            117751040, 438, 201128, 110, 108, 85, 85, 146, 0, 23, 60, 0, 42, 0, 0,
        ],
    ),
    (
        App::Ilink,
        ProtocolKind::Sc,
        [
            231091488, 715, 562216, 111, 104, 0, 0, 0, 74, 0, 0, 0, 128, 0, 15,
        ],
    ),
    (
        App::Ilink,
        ProtocolKind::Hlrc,
        [
            158789928, 305, 401320, 89, 108, 77, 77, 77, 0, 0, 0, 0, 93, 0, 0,
        ],
    ),
];

#[test]
fn refactor_reproduces_presplit_outcomes_exactly() {
    assert_eq!(
        GOLDEN.len(),
        App::ALL.len() * PROTOCOLS.len(),
        "golden table incomplete — regenerate with print_golden"
    );
    for &(app, proto, expect) in GOLDEN {
        let got = run_digest(app, proto);
        assert_eq!(
            got, expect,
            "{app} under {proto}: outcome digest diverged from the \
             pre-refactor golden capture"
        );
    }
}

/// Chaos-scenario guard: attaching an explicit all-zero-rates
/// [`Scenario`] must be invisible — the delivery layer's fast path has
/// to reproduce every golden digest byte-for-byte, with an empty
/// journal. This pins the "fault-free scenarios are a no-op" property
/// across all 48 app x protocol combinations.
#[test]
fn perfect_scenario_reproduces_golden_digests() {
    for &(app, proto, expect) in GOLDEN {
        let opts = RunOptions {
            scenario: Some(Scenario::perfect()),
            ..RunOptions::default()
        };
        let run = run_app_tuned(app, proto, procs_for(app), Scale::Tiny, &opts);
        assert!(run.ok, "{app} under {proto}: {}", run.detail);
        assert_eq!(
            digest(&run.outcome.report),
            expect,
            "{app} under {proto}: a perfect scenario changed the outcome digest"
        );
        let journal = run
            .outcome
            .journal()
            .expect("scenario runs record a journal");
        assert!(
            journal.is_empty(),
            "{app} under {proto}: perfect scenario journaled {} deviations",
            journal.len()
        );
    }
}

/// The apps and protocols of the 64-processor table: `benchmark/`'s
/// `scale64_sim` cells.
const APPS64: [App; 3] = [App::Sor, App::Is, App::Barnes];
const PROTOCOLS64: [ProtocolKind; 2] = [ProtocolKind::Mw, ProtocolKind::WfsWg];

fn run_digest64(app: App, proto: ProtocolKind) -> [u64; 15] {
    let run = run_app(app, proto, 64, Scale::Large);
    assert!(run.ok, "{app} under {proto} at 64 procs: {}", run.detail);
    digest(&run.outcome.report)
}

/// The same digest at 64 processors and `Large` scale, where a page's
/// pending-notice list holds a notice per writer (up to 64 long) rather
/// than the 1–3 of the 4-processor table; captured before write-notice
/// delivery stopped searching that list.
const GOLDEN64: &[(App, ProtocolKind, [u64; 15])] = &[
    (
        App::Sor,
        ProtocolKind::Mw,
        [
            216038736, 4410, 11826356, 1260, 2306, 2306, 2306, 1260, 0, 0, 0, 0, 378, 0, 0,
        ],
    ),
    (
        App::Sor,
        ProtocolKind::WfsWg,
        [
            147825712, 4158, 11807704, 1260, 2306, 2023, 2023, 881, 0, 252, 16192, 0, 379, 0, 5,
        ],
    ),
    (
        App::Is,
        ProtocolKind::Mw,
        [
            6586111716, 41962, 26393882, 386, 387, 387, 387, 20286, 0, 0, 0, 0, 126, 0, 0,
        ],
    ),
    (
        App::Is,
        ProtocolKind::WfsWg,
        [
            6552963620, 41714, 26268106, 386, 387, 382, 382, 20160, 0, 2, 128, 0, 126, 0, 1,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::Mw,
        [
            576984774, 198738, 30728266, 3992, 2913, 2913, 2913, 117616, 0, 0, 0, 0, 1260, 0, 0,
        ],
    ),
    (
        App::Barnes,
        ProtocolKind::WfsWg,
        [
            545066726, 198196, 30919666, 3985, 2913, 2883, 2883, 116068, 0, 705, 1280, 0, 1890, 0,
            0,
        ],
    ),
];

#[test]
fn sixty_four_processor_outcomes_exactly() {
    assert_eq!(
        GOLDEN64.len(),
        APPS64.len() * PROTOCOLS64.len(),
        "64-processor golden table incomplete — regenerate with print_golden"
    );
    for &(app, proto, expect) in GOLDEN64 {
        assert_eq!(
            run_digest64(app, proto),
            expect,
            "{app} under {proto} at 64 procs: outcome digest diverged from the golden capture"
        );
    }
}

/// Generator: prints the golden tables for pasting into `GOLDEN` and
/// `GOLDEN64`.
#[test]
#[ignore = "generator, run manually with --ignored"]
fn print_golden() {
    println!("GOLDEN:");
    for app in App::ALL {
        for proto in PROTOCOLS {
            let d = run_digest(app, proto);
            println!("    (App::{app:?}, ProtocolKind::{proto:?}, {d:?}),");
        }
    }
    println!("GOLDEN64:");
    for app in APPS64 {
        for proto in PROTOCOLS64 {
            let d = run_digest64(app, proto);
            println!("    (App::{app:?}, ProtocolKind::{proto:?}, {d:?}),");
        }
    }
}
