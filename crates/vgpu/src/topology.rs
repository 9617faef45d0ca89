//! Interconnect model: PCIe links between host and devices.
//!
//! The paper's testbed is a Tesla S1070: four GPUs in an external chassis
//! connected to the host through two PCIe interface cards, i.e. pairs of
//! GPUs share a host link and all transfers are staged through host memory
//! (no peer-to-peer). We model each device with its own link bandwidth plus
//! an aggregate host-bus bandwidth; `n` simultaneous transfers each see
//! `min(link, host_bus / n)`.

/// Bandwidth/latency of the link between one device and the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth in bytes/second (PCIe 2.0 x16 effective ≈ 5.2 GB/s).
    pub bandwidth_bytes_s: f64,
    /// Per-transfer setup latency in seconds.
    pub latency_s: f64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            bandwidth_bytes_s: 5.2e9,
            latency_s: 10e-6,
        }
    }
}

/// Host-side interconnect shared by all device links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Per-device link (uniform across devices, as on the S1070).
    pub link: LinkSpec,
    /// Aggregate host bandwidth across all simultaneous transfers.
    /// The S1070 exposes two PCIe interfaces, so ~2 links' worth.
    pub host_bus_bytes_s: f64,
}

impl Default for Topology {
    fn default() -> Self {
        let link = LinkSpec::default();
        Topology {
            link,
            host_bus_bytes_s: 2.0 * link.bandwidth_bytes_s,
        }
    }
}

impl Topology {
    /// Effective per-transfer bandwidth when `concurrent` transfers are in
    /// flight at once.
    fn effective_bandwidth(&self, concurrent: usize) -> f64 {
        debug_assert!(concurrent >= 1);
        let share = self.host_bus_bytes_s / concurrent as f64;
        self.link.bandwidth_bytes_s.min(share)
    }

    /// Duration of one host↔device transfer of `bytes`, with `concurrent`
    /// transfers sharing the host bus.
    pub fn transfer_s(&self, bytes: usize, concurrent: usize) -> f64 {
        crate::timing::transfer_duration_s(
            bytes,
            self.effective_bandwidth(concurrent),
            self.link.latency_s,
        )
    }

    /// Duration of a device→device copy: staged through the host, so it
    /// crosses two links back to back (download then upload).
    pub fn d2d_transfer_s(&self, bytes: usize, concurrent: usize) -> f64 {
        2.0 * self.transfer_s(bytes, concurrent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_sees_full_link() {
        let t = Topology::default();
        assert_eq!(t.effective_bandwidth(1), t.link.bandwidth_bytes_s);
    }

    #[test]
    fn two_transfers_still_fit_the_dual_interface() {
        let t = Topology::default();
        // host bus is 2 links, so 2 concurrent transfers are unthrottled.
        assert_eq!(t.effective_bandwidth(2), t.link.bandwidth_bytes_s);
    }

    #[test]
    fn four_transfers_halve_the_bandwidth() {
        let t = Topology::default();
        let eff = t.effective_bandwidth(4);
        assert!((eff - t.link.bandwidth_bytes_s / 2.0).abs() < 1.0);
    }

    #[test]
    fn d2d_costs_two_crossings() {
        let t = Topology::default();
        let one = t.transfer_s(1 << 20, 1);
        let dd = t.d2d_transfer_s(1 << 20, 1);
        assert!((dd - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let t = Topology::default();
        assert!(t.transfer_s(2 << 20, 1) > t.transfer_s(1 << 20, 1));
    }
}
