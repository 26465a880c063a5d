//! SoC-level configuration (the "GeneSys parameters" table of Fig 8(a)).

use crate::adam::AdamConfig;
use crate::energy::TechModel;
use crate::noc::NocKind;
use crate::selector::AllocPolicy;
use crate::sram::SramConfig;

/// Full GeneSys SoC configuration.
///
/// The default reproduces the paper's synthesized design point: 256 EvE
/// PEs, a 32×32 ADAM, 48×4096×64 b SRAM, 200 MHz, multicast-tree NoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Number of EvE PEs (paper design point: 256; swept 2–512 in Figs
    /// 8/11).
    pub num_eve_pes: usize,
    /// ADAM geometry.
    pub adam: AdamConfig,
    /// Genome buffer geometry and energies.
    pub sram: SramConfig,
    /// Gene-distribution interconnect.
    pub noc_kind: NocKind,
    /// PE allocation policy (GLR-aware greedy by default).
    pub alloc_policy: AllocPolicy,
    /// Technology calibration.
    pub tech: TechModel,
    /// PRNG seed for the hardware PRNG block.
    pub prng_seed: u64,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            num_eve_pes: 256,
            adam: AdamConfig::default(),
            sram: SramConfig::default(),
            noc_kind: NocKind::MulticastTree,
            alloc_policy: AllocPolicy::Greedy,
            tech: TechModel::default(),
            prng_seed: 0xD00D_FEED,
        }
    }
}

impl SocConfig {
    /// Builder-style override of the PE count.
    pub fn with_num_eve_pes(mut self, n: usize) -> Self {
        self.num_eve_pes = n;
        self
    }

    /// Builder-style override of the NoC kind.
    pub fn with_noc(mut self, kind: NocKind) -> Self {
        self.noc_kind = kind;
        self
    }

    /// Builder-style override of the allocation policy.
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Builder-style override of the PRNG seed.
    pub fn with_prng_seed(mut self, seed: u64) -> Self {
        self.prng_seed = seed;
        self
    }

    /// SoC area at this configuration (Fig 8(c)).
    pub fn area_mm2(&self) -> f64 {
        self.tech
            .area_mm2(
                self.num_eve_pes,
                self.adam.num_macs(),
                self.sram.capacity_bytes() as f64 / (1024.0 * 1024.0),
            )
            .total()
    }

    /// Roofline power at this configuration (Fig 8(b)).
    pub fn roofline_power_mw(&self) -> f64 {
        self.tech.roofline_power_mw(self.num_eve_pes).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_design_point() {
        let c = SocConfig::default();
        assert_eq!(c.num_eve_pes, 256);
        assert_eq!(c.adam.num_macs(), 1024);
        assert_eq!(c.sram.capacity_bytes(), 1_572_864);
        assert_eq!(c.noc_kind, NocKind::MulticastTree);
        assert!((c.area_mm2() - 2.45).abs() < 0.25);
        assert!((c.roofline_power_mw() - 947.5).abs() < 50.0);
    }

    #[test]
    fn builders_override_fields() {
        let c = SocConfig::default()
            .with_num_eve_pes(64)
            .with_noc(NocKind::PointToPoint)
            .with_prng_seed(7);
        assert_eq!(c.num_eve_pes, 64);
        assert_eq!(c.noc_kind, NocKind::PointToPoint);
        assert_eq!(c.prng_seed, 7);
    }
}
