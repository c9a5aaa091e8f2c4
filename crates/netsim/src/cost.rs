use crate::{SimTime, MSG_HEADER_BYTES};

/// The virtual-time cost model: what each protocol action costs.
///
/// The default model, [`CostModel::sparc_atm`], is calibrated to the
/// paper's Section 4 micro-measurements on 8 SPARC-20/61 workstations
/// over 155 Mbps ATM with UDP sockets. Other models can be built for
/// sensitivity studies (e.g. a faster network shifts the write-granularity
/// threshold, as the paper notes in §3.2).
///
/// # Examples
///
/// ```
/// use adsm_netsim::CostModel;
///
/// let m = CostModel::sparc_atm();
/// // Paper: remote 4096-byte page miss takes 1921 us. The model's
/// // request + reply round trip lands within a few percent.
/// let rtt = m.msg_cost(16) + m.msg_cost(4096);
/// assert!((rtt.as_us() - 1921.0).abs() < 40.0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed one-way cost of any message (send + wire latency + receive +
    /// interrupt dispatch), excluding the per-byte component.
    pub msg_fixed: SimTime,
    /// Per-byte cost of message payload + headers (effective UDP-over-ATM
    /// throughput; well below the 155 Mbps line rate, as measured).
    pub per_byte_ns: u64,
    /// Creating a twin (copying one page).
    pub twin: SimTime,
    /// Fixed part of creating a diff (scanning the page against the twin).
    pub diff_create_base: SimTime,
    /// Per modified byte encoded into a diff.
    pub diff_create_per_byte_ns: u64,
    /// Fixed part of applying one diff.
    pub diff_apply_base: SimTime,
    /// Per byte applied from a diff.
    pub diff_apply_per_byte_ns: u64,
    /// Page-fault trap + handler entry/exit (the SIGSEGV path).
    pub fault_trap: SimTime,
    /// Minimum time a new owner keeps a page before ownership can be
    /// taken away again (SW protocol anti-ping-pong quantum; §2.3).
    pub ownership_quantum: SimTime,
    /// Cost of one checked shared-memory access (load or store) on the
    /// fast path — the software-MMU analogue of an ordinary memory
    /// instruction plus protection check.
    pub shared_access: SimTime,
    /// Per-byte cost of bulk shared-memory copies (memcpy bandwidth of
    /// the era's workstations).
    pub mem_per_byte_ns: u64,
    /// Per-processor diff-space limit that triggers garbage collection at
    /// the next barrier (Fig. 3 uses 1 MB).
    pub gc_threshold_bytes: usize,
    /// Diff size above which WFS+WG switches a page to SW mode (§4: a
    /// conservative 3 KB for this configuration).
    pub wg_threshold_bytes: usize,
    /// Remote request service cost charged to the *servicing* processor
    /// (it is interrupted to handle the request).
    pub service_interrupt: SimTime,
}

impl CostModel {
    /// The paper's testbed: SPARC-20/61 + 155 Mbps ATM + UDP.
    pub fn sparc_atm() -> Self {
        CostModel {
            msg_fixed: SimTime::from_us(480),
            per_byte_ns: 230,
            twin: SimTime::from_us(104),
            diff_create_base: SimTime::from_us(121),
            diff_create_per_byte_ns: 14,
            diff_apply_base: SimTime::from_us(20),
            diff_apply_per_byte_ns: 10,
            fault_trap: SimTime::from_us(60),
            ownership_quantum: SimTime::from_ms(1),
            shared_access: SimTime::from_ns(50),
            mem_per_byte_ns: 12,
            gc_threshold_bytes: 1 << 20,
            wg_threshold_bytes: 3 * 1024,
            service_interrupt: SimTime::from_us(80),
        }
    }

    /// A hypothetical much faster interconnect (per-message fixed cost and
    /// per-byte cost cut by 10x). Used by the sensitivity/ablation
    /// benches: on fast networks whole-page transfers get relatively
    /// cheaper, shrinking the region where diffs win.
    pub fn fast_network() -> Self {
        CostModel {
            msg_fixed: SimTime::from_us(48),
            per_byte_ns: 23,
            wg_threshold_bytes: 12 * 1024,
            ..Self::sparc_atm()
        }
    }

    /// One-way cost of a message carrying `payload` bytes (headers are
    /// added by the model).
    pub fn msg_cost(&self, payload: usize) -> SimTime {
        let bytes = (payload + MSG_HEADER_BYTES) as u64;
        self.msg_fixed + SimTime::from_ns(self.per_byte_ns * bytes)
    }

    /// Cost of creating a diff whose modified payload is `modified` bytes.
    pub fn diff_create(&self, modified: usize) -> SimTime {
        self.diff_create_base + SimTime::from_ns(self.diff_create_per_byte_ns * modified as u64)
    }

    /// Cost of applying a diff whose modified payload is `modified` bytes.
    pub fn diff_apply(&self, modified: usize) -> SimTime {
        self.diff_apply_base + SimTime::from_ns(self.diff_apply_per_byte_ns * modified as u64)
    }

    /// Cost of one successful shared access moving `bytes` bytes.
    pub fn access(&self, bytes: usize) -> SimTime {
        self.shared_access
            .max(SimTime::from_ns(self.mem_per_byte_ns * bytes as u64))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::sparc_atm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_min_rtt_is_about_1ms() {
        let m = CostModel::sparc_atm();
        let rtt = m.msg_cost(0) + m.msg_cost(0);
        let us = rtt.as_us();
        assert!((950.0..1050.0).contains(&us), "min RTT {us} us");
    }

    #[test]
    fn calibration_page_miss_is_about_1921us() {
        let m = CostModel::sparc_atm();
        let rtt = m.msg_cost(16) + m.msg_cost(4096);
        let us = rtt.as_us();
        assert!((1880.0..1960.0).contains(&us), "page miss {us} us");
    }

    #[test]
    fn calibration_twin_and_diff() {
        let m = CostModel::sparc_atm();
        assert_eq!(m.twin.as_us(), 104.0);
        let full = m.diff_create(4096).as_us();
        assert!((175.0..185.0).contains(&full), "full-page diff {full} us");
    }

    #[test]
    fn diff_costs_scale_with_size() {
        let m = CostModel::sparc_atm();
        assert!(m.diff_create(64) < m.diff_create(4096));
        assert!(m.diff_apply(64) < m.diff_apply(4096));
    }

    #[test]
    fn fast_network_is_faster() {
        let slow = CostModel::sparc_atm();
        let fast = CostModel::fast_network();
        assert!(fast.msg_cost(4096) < slow.msg_cost(4096));
        assert!(fast.wg_threshold_bytes > slow.wg_threshold_bytes);
    }

    #[test]
    fn default_is_paper_testbed() {
        assert_eq!(CostModel::default(), CostModel::sparc_atm());
    }
}
