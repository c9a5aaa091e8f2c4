//! Related-work comparators: sequential consistency (IVY-style SC) and
//! home-based LRC (HLRC) next to the paper's protocols.
//!
//! ```text
//! cargo run --release --example related_protocols
//! ```
//!
//! Runs the same producer-consumer workload under six protocols, then
//! sweeps HLRC's home placement. The output shows the two §7 claims in
//! miniature:
//!
//! * SC pays invalidation rounds and ping-pongs on read-write false
//!   sharing that every LRC protocol tolerates silently;
//! * HLRC's traffic depends on where the homes land, a knob the adaptive
//!   protocols simply do not have.

use adsm::{Dsm, HomePolicy, ProtocolKind, RunOptions, RunReport, SimTime};

/// Producer-consumer with read-write false sharing: p0 rewrites the left
/// half of a page while the others read the right half, between barriers.
fn workload(protocol: ProtocolKind, policy: HomePolicy) -> RunReport {
    let mut dsm = Dsm::builder(protocol)
        .nprocs(4)
        .options(RunOptions {
            home_policy: policy,
            ..RunOptions::default()
        })
        .build();
    let data = dsm.alloc_page_aligned::<u64>(512); // exactly one page
    dsm.run(move |p| {
        for it in 0..20u64 {
            if p.index() == 0 {
                for i in 0..64 {
                    data.set(p, i, it * 1000 + i as u64);
                }
            } else {
                // Right half: written once before the loop by nobody —
                // stays zero; reading it shares the page read-write.
                let v = data.get(p, 300 + p.index());
                assert_eq!(v, 0);
            }
            p.compute(SimTime::from_us(150));
            p.barrier();
            // Everyone consumes the fresh left half.
            assert_eq!(data.get(p, 1), it * 1000 + 1);
            p.barrier();
        }
    })
    .expect("run failed")
    .report
}

fn main() {
    println!("workload: one page, p0 rewrites left half, p1-p3 read right half (20 rounds)\n");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}",
        "proto", "msgs", "KB", "pages", "invalidate", "flushes", "twins"
    );
    for protocol in [
        ProtocolKind::Sw,
        ProtocolKind::Mw,
        ProtocolKind::Wfs,
        ProtocolKind::WfsWg,
        ProtocolKind::Sc,
        ProtocolKind::Hlrc,
    ] {
        let r = workload(protocol, HomePolicy::RoundRobin);
        println!(
            "{:<8} {:>8} {:>8.1} {:>8} {:>10} {:>8} {:>8}",
            r.protocol.name(),
            r.net.total_messages(),
            r.net.total_bytes() as f64 / 1e3,
            r.proto.pages_transferred,
            r.proto.invalidations,
            r.proto.home_flushes,
            r.proto.twins_created,
        );
    }

    println!("\nHLRC home placement sweep (same workload):");
    println!("{:<14} {:>8} {:>8}", "placement", "msgs", "KB");
    for (name, policy) in [
        ("round-robin", HomePolicy::RoundRobin),
        ("first-touch", HomePolicy::FirstTouch),
        ("fixed(p0)", HomePolicy::Fixed(0)),
        ("fixed(p3)", HomePolicy::Fixed(3)),
    ] {
        let r = workload(ProtocolKind::Hlrc, policy);
        println!(
            "{:<14} {:>8} {:>8.1}",
            name,
            r.net.total_messages(),
            r.net.total_bytes() as f64 / 1e3,
        );
    }
    println!("\n(Placement changes what travels: with the home at the writer p0 —");
    println!("which round-robin, first-touch and fixed(p0) all pick here — p0 writes");
    println!("in place and every reader fetches whole pages from it. Homing at the");
    println!("reader p3 turns p0's small writes into diff flushes and makes p3's own");
    println!("fetches free. Traffic volume and shape depend on a knob the adaptive");
    println!("protocols do not have — the §7 positioning. Run `repro related` for");
    println!("the application-level sweep, where bad placements cost up to 1.5x.)");
}
