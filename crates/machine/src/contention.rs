//! Fabric contention model for at-scale schedule simulation.
//!
//! The per-NIC [`LatencyThroughput`] view (and `gmg-comm`'s
//! `NetworkModel`) describes a *single* rank's injection path. Beyond a
//! few hundred ranks the dominant effects move into the shared fabric:
//! how many switch stages a message crosses (switch radix), how many
//! ranks share each injection link, how fast the NIC can *post* messages
//! (rate limit — the coarse-level killer, where messages are tiny and
//! numerous), and how deep the allreduce tree grows. This module models
//! those knobs on an abstract `(α, β)` pair so it composes with any
//! calibrated per-rank model without `gmg-machine` growing a dependency
//! on the comm crate.
//!
//! [`LatencyThroughput`]: crate::model::LatencyThroughput

/// Fabric-level contention knobs. All effects are multiplicative /
/// additive penalties applied to a per-rank `(α, β)` exchange model.
#[derive(Clone, Debug, PartialEq)]
pub struct ContentionModel {
    /// Ports per switch. Fabric diameter grows as `log_radix(nodes)`
    /// (Slingshot Rosetta: 64).
    pub switch_radix: usize,
    /// Per-stage traversal latency, seconds (switch transit + SerDes).
    pub hop_latency_s: f64,
    /// Ranks sharing one injection link (GPUs per NIC).
    pub ranks_per_link: usize,
    /// Fraction of the naive `1/ranks_per_link` bandwidth loss actually
    /// observed when co-injecting (0 = perfect sharing, 1 = full division;
    /// real fabrics time-slice well, so ~0.6).
    pub link_share_derate: f64,
    /// Fractional sustained-bandwidth taper per fabric stage beyond the
    /// first (adaptive-routing spread, shared global links).
    pub stage_bw_taper: f64,
    /// NIC message-posting rate limit, messages/second. Coarse levels post
    /// many tiny messages; below the rate limit the *count*, not the
    /// bytes, bounds exchange time.
    pub msg_rate_per_s: f64,
    /// One hop of the allreduce reduction/broadcast tree, seconds
    /// (8-byte latency-bound message plus combine).
    pub allreduce_hop_s: f64,
}

impl ContentionModel {
    /// Slingshot-11-class defaults (radix-64 Rosetta switches, 1 NIC per
    /// 2 GCDs/GPUs on the paper's systems).
    pub fn slingshot() -> Self {
        ContentionModel {
            switch_radix: 64,
            hop_latency_s: 0.35e-6,
            ranks_per_link: 2,
            link_share_derate: 0.6,
            stage_bw_taper: 0.12,
            msg_rate_per_s: 2.0e6,
            allreduce_hop_s: 2.0e-6,
        }
    }

    /// An idealized uncontended fabric: zero-penalty reference for the
    /// negative control of attribution tests.
    pub fn uncontended() -> Self {
        ContentionModel {
            switch_radix: 64,
            hop_latency_s: 0.0,
            ranks_per_link: 1,
            link_share_derate: 0.0,
            stage_bw_taper: 0.0,
            msg_rate_per_s: f64::INFINITY,
            allreduce_hop_s: 0.0,
        }
    }

    /// Switch stages a message crosses in a `nodes`-node job: 0 on one
    /// node (NIC loopback / intra-node), 1 while one switch suffices,
    /// then `ceil(log_radix(nodes))`.
    pub fn fabric_stages(&self, nodes: usize) -> usize {
        if nodes <= 1 {
            return 0;
        }
        let radix = self.switch_radix.max(2) as f64;
        let mut stages = 1usize;
        let mut reach = radix;
        while (reach as usize) < nodes && stages < 64 {
            stages += 1;
            reach *= radix;
        }
        stages
    }

    /// Bandwidth division factor from link sharing (≥ 1).
    pub fn link_share_factor(&self) -> f64 {
        1.0 + self.link_share_derate * (self.ranks_per_link.max(1) - 1) as f64
    }

    /// Apply fabric contention to a per-rank `(α, β)` exchange model at
    /// `nodes` nodes: α gains the stage traversal latency, β is divided
    /// by link sharing and tapered per extra stage. β's unit is
    /// preserved (GB/s in, GB/s out).
    pub fn contended_alpha_beta(&self, alpha_s: f64, beta: f64, nodes: usize) -> (f64, f64) {
        let stages = self.fabric_stages(nodes);
        let alpha = alpha_s + stages as f64 * self.hop_latency_s;
        let taper = 1.0 + self.stage_bw_taper * stages.saturating_sub(1) as f64;
        let beta = beta / (self.link_share_factor() * taper);
        (alpha, beta)
    }

    /// Queueing delay for *posting* `n_messages` in one exchange under the
    /// NIC message-rate limit, seconds. Linear in count: this is the term
    /// that makes coarse levels message-rate-bound rather than
    /// bandwidth-bound.
    pub fn message_rate_delay_s(&self, n_messages: usize) -> f64 {
        if self.msg_rate_per_s.is_finite() && self.msg_rate_per_s > 0.0 {
            n_messages as f64 / self.msg_rate_per_s
        } else {
            0.0
        }
    }

    /// Depth of a binomial reduction tree over `ranks` (⌈log₂ ranks⌉).
    pub fn allreduce_depth(&self, ranks: usize) -> usize {
        if ranks <= 1 {
            return 0;
        }
        (usize::BITS - (ranks - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_grow_with_radix_log() {
        let c = ContentionModel::slingshot();
        assert_eq!(c.fabric_stages(1), 0);
        assert_eq!(c.fabric_stages(2), 1);
        assert_eq!(c.fabric_stages(64), 1);
        assert_eq!(c.fabric_stages(65), 2);
        assert_eq!(c.fabric_stages(64 * 64), 2);
        assert_eq!(c.fabric_stages(64 * 64 + 1), 3);
    }

    #[test]
    fn contention_never_improves_the_model() {
        let c = ContentionModel::slingshot();
        let (a0, b0) = c.contended_alpha_beta(30e-6, 14.0, 1);
        let mut prev = (a0, b0);
        for nodes in [2usize, 16, 128, 1024, 16384] {
            let (a, b) = c.contended_alpha_beta(30e-6, 14.0, nodes);
            assert!(a >= prev.0, "alpha must not shrink with scale");
            assert!(b <= prev.1, "beta must not grow with scale");
            prev = (a, b);
        }
        // Link sharing alone costs bandwidth even on one node's switch.
        assert!(b0 < 14.0);
        assert!(a0 >= 30e-6);
    }

    #[test]
    fn uncontended_is_identity() {
        let c = ContentionModel::uncontended();
        let (a, b) = c.contended_alpha_beta(30e-6, 14.0, 100_000);
        assert_eq!(a, 30e-6);
        assert_eq!(b, 14.0);
        assert_eq!(c.message_rate_delay_s(1_000_000), 0.0);
    }

    #[test]
    fn allreduce_depth_is_ceil_log2() {
        let c = ContentionModel::slingshot();
        assert_eq!(c.allreduce_depth(1), 0);
        assert_eq!(c.allreduce_depth(2), 1);
        assert_eq!(c.allreduce_depth(3), 2);
        assert_eq!(c.allreduce_depth(1024), 10);
        assert_eq!(c.allreduce_depth(1025), 11);
    }

    #[test]
    fn message_rate_delay_linear_in_count() {
        let c = ContentionModel::slingshot();
        let one = c.message_rate_delay_s(1);
        assert!((c.message_rate_delay_s(100) - 100.0 * one).abs() < 1e-12);
    }
}
