//! 15 nm area, power and energy models (Fig 8, Section V).
//!
//! Calibrated to the paper's published design points:
//!
//! * EvE PE: 59 µm × 59 µm ⇒ 256 PEs = 0.89 mm² (Fig 8(a)).
//! * ADAM MAC: 15 µm × 15 µm ⇒ 1024 MACs = 0.23 mm².
//! * GeneSys SoC @ 256 EvE PEs: 2.45 mm², 947.5 mW roofline, 200 MHz, 1 V.
//!
//! The per-op energies below divide those component powers by the clock,
//! so the roofline power curve of Fig 8(b) and the per-generation energy
//! accounting of Figs 9/11 come from one parameter set.

/// Technology/calibration constants for the GeneSys SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechModel {
    /// Clock frequency, Hz (paper: 200 MHz).
    pub freq_hz: f64,
    /// EvE PE footprint, µm² (59 × 59).
    pub eve_pe_area_um2: f64,
    /// MAC PE footprint, µm² (15 × 15).
    pub mac_area_um2: f64,
    /// SRAM macro area per MB, mm².
    pub sram_area_mm2_per_mb: f64,
    /// Cortex-M0 class CPU area, mm².
    pub cpu_area_mm2: f64,
    /// Interconnect area, mm².
    pub noc_area_mm2: f64,
    /// Active power per EvE PE, mW.
    pub eve_pe_power_mw: f64,
    /// ADAM array active power (all MACs), mW.
    pub adam_power_mw: f64,
    /// SRAM active power (all banks), mW.
    pub sram_power_mw: f64,
    /// CPU power, mW.
    pub cpu_power_mw: f64,
    /// NoC power, mW.
    pub noc_power_mw: f64,
    /// Energy per gene pushed through a PE pipeline stage set, pJ.
    pub e_pe_gene_pj: f64,
    /// Energy per MAC, pJ.
    pub e_mac_pj: f64,
    /// Energy per NoC flit-hop, pJ.
    pub e_noc_flit_pj: f64,
    /// Energy per CPU cycle (selector/vectorize work), pJ.
    pub e_cpu_cycle_pj: f64,
}

impl Default for TechModel {
    fn default() -> Self {
        let freq_hz = 200e6;
        let eve_pe_power_mw = 1.2;
        let adam_power_mw = 250.0;
        TechModel {
            freq_hz,
            eve_pe_area_um2: 59.0 * 59.0,
            mac_area_um2: 15.0 * 15.0,
            sram_area_mm2_per_mb: 0.78,
            cpu_area_mm2: 0.05,
            noc_area_mm2: 0.10,
            eve_pe_power_mw,
            adam_power_mw,
            sram_power_mw: 330.0,
            cpu_power_mw: 40.0,
            noc_power_mw: 20.0,
            // power / frequency: 1.2 mW / 200 MHz = 6 pJ per PE-cycle.
            e_pe_gene_pj: eve_pe_power_mw * 1e9 / freq_hz,
            // 250 mW / 200 MHz / 1024 MACs ≈ 1.22 pJ per MAC.
            e_mac_pj: adam_power_mw * 1e9 / freq_hz / 1024.0,
            e_noc_flit_pj: 0.8,
            e_cpu_cycle_pj: 200.0, // 40 mW / 200 MHz
        }
    }
}

impl TechModel {
    /// SoC area in mm² for a design with `num_eve_pes` EvE PEs,
    /// `num_macs` ADAM MACs and `sram_mb` of genome buffer — the Fig 8(c)
    /// curve.
    pub fn area_mm2(&self, num_eve_pes: usize, num_macs: usize, sram_mb: f64) -> AreaBreakdown {
        AreaBreakdown {
            eve_mm2: num_eve_pes as f64 * self.eve_pe_area_um2 / 1e6,
            adam_mm2: num_macs as f64 * self.mac_area_um2 / 1e6,
            sram_mm2: sram_mb * self.sram_area_mm2_per_mb,
            cpu_mm2: self.cpu_area_mm2,
            noc_mm2: self.noc_area_mm2,
        }
    }

    /// Roofline (always-computing) power in mW — the Fig 8(b) curve.
    pub fn roofline_power_mw(&self, num_eve_pes: usize) -> PowerBreakdown {
        PowerBreakdown {
            eve_mw: num_eve_pes as f64 * self.eve_pe_power_mw,
            adam_mw: self.adam_power_mw,
            sram_mw: self.sram_power_mw,
            cpu_mw: self.cpu_power_mw,
            noc_mw: self.noc_power_mw,
        }
    }

    /// Seconds per clock cycle.
    pub fn cycle_time_s(&self) -> f64 {
        1.0 / self.freq_hz
    }
}

/// Per-component area, mm².
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AreaBreakdown {
    /// EvE PE array.
    pub eve_mm2: f64,
    /// ADAM systolic array.
    pub adam_mm2: f64,
    /// Genome buffer SRAM.
    pub sram_mm2: f64,
    /// System CPU.
    pub cpu_mm2: f64,
    /// Interconnect.
    pub noc_mm2: f64,
}

impl AreaBreakdown {
    /// Total SoC area.
    pub fn total(&self) -> f64 {
        self.eve_mm2 + self.adam_mm2 + self.sram_mm2 + self.cpu_mm2 + self.noc_mm2
    }
}

/// Per-component power, mW.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// EvE PE array.
    pub eve_mw: f64,
    /// ADAM systolic array.
    pub adam_mw: f64,
    /// Genome buffer SRAM.
    pub sram_mw: f64,
    /// System CPU.
    pub cpu_mw: f64,
    /// Interconnect.
    pub noc_mw: f64,
}

impl PowerBreakdown {
    /// Total SoC power.
    pub fn total(&self) -> f64 {
        self.eve_mw + self.adam_mw + self.sram_mw + self.cpu_mw + self.noc_mw
    }
}

/// Per-generation energy accounting, microjoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// EvE PE dynamic energy.
    pub eve_uj: f64,
    /// ADAM MAC dynamic energy.
    pub adam_uj: f64,
    /// Genome buffer access energy (SRAM + DRAM spill).
    pub sram_uj: f64,
    /// Interconnect flit energy.
    pub noc_uj: f64,
    /// CPU (selector + vectorize) energy.
    pub cpu_uj: f64,
}

impl EnergyBreakdown {
    /// Total energy, µJ.
    pub fn total(&self) -> f64 {
        self.eve_uj + self.adam_uj + self.sram_uj + self.noc_uj + self.cpu_uj
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.eve_uj += other.eve_uj;
        self.adam_uj += other.adam_uj;
        self.sram_uj += other.sram_uj;
        self.noc_uj += other.noc_uj;
        self.cpu_uj += other.cpu_uj;
    }
}

/// Clock/power gating model (Section VI-D).
///
/// "For real life workloads, the interactions will be much slower. This
/// enables us to use circuit level techniques like clock and power gating
/// to save even more power. The lower the compute window for GENESYS the
/// more time is used to interact with the environment thus saving more
/// energy." While the SoC waits on the environment, gated components burn
/// only a leakage fraction of their active power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingModel {
    /// Fraction of active power still burned while gated (leakage +
    /// retention). 15 nm FinFET class: ~5 %.
    pub idle_power_fraction: f64,
}

impl Default for GatingModel {
    fn default() -> Self {
        GatingModel {
            idle_power_fraction: 0.05,
        }
    }
}

impl GatingModel {
    /// Average power over a window with `busy_s` seconds of compute and
    /// `idle_s` seconds of environment interaction, in mW.
    pub fn average_power_mw(&self, active_mw: f64, busy_s: f64, idle_s: f64) -> f64 {
        let total = busy_s + idle_s;
        if total <= 0.0 {
            return 0.0;
        }
        (active_mw * busy_s + active_mw * self.idle_power_fraction * idle_s) / total
    }

    /// Duty cycle below which gating wins a ≥10× average-power reduction.
    pub fn ten_x_duty_cycle(&self) -> f64 {
        // avg = active*(d + f(1-d)); solve avg = active/10.
        (0.1 - self.idle_power_fraction) / (1.0 - self.idle_power_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gating_tracks_duty_cycle() {
        let g = GatingModel::default();
        // Fully busy: full power.
        assert!((g.average_power_mw(947.5, 1.0, 0.0) - 947.5).abs() < 1e-9);
        // Fully idle: leakage only.
        assert!((g.average_power_mw(947.5, 0.0, 1.0) - 947.5 * 0.05).abs() < 1e-9);
        // 1% duty cycle: near-leakage power.
        let low = g.average_power_mw(947.5, 0.01, 0.99);
        assert!(low < 947.5 * 0.07, "got {low}");
    }

    #[test]
    fn gating_monotone_in_idle_time() {
        let g = GatingModel::default();
        let mut prev = f64::INFINITY;
        for idle in [0.0, 0.5, 1.0, 10.0, 100.0] {
            let p = g.average_power_mw(500.0, 0.1, idle);
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn ten_x_duty_cycle_is_consistent() {
        let g = GatingModel::default();
        let d = g.ten_x_duty_cycle();
        let avg = g.average_power_mw(1000.0, d, 1.0 - d);
        assert!((avg - 100.0).abs() < 1.0, "avg at 10x duty point: {avg}");
    }

    #[test]
    fn zero_window_is_zero_power() {
        let g = GatingModel::default();
        assert_eq!(g.average_power_mw(500.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn area_matches_paper_design_point() {
        let tech = TechModel::default();
        let area = tech.area_mm2(256, 1024, 1.5);
        assert!((area.eve_mm2 - 0.891).abs() < 0.01, "EvE {}", area.eve_mm2);
        assert!(
            (area.adam_mm2 - 0.230).abs() < 0.01,
            "ADAM {}",
            area.adam_mm2
        );
        let total = area.total();
        assert!(
            (2.2..=2.7).contains(&total),
            "SoC total {total} should be ≈2.45 mm²"
        );
    }

    #[test]
    fn power_matches_paper_design_point() {
        let tech = TechModel::default();
        let p = tech.roofline_power_mw(256);
        assert!(
            (900.0..=1000.0).contains(&p.total()),
            "roofline at 256 PEs should be ≈947.5 mW, got {}",
            p.total()
        );
        assert!(p.total() < 1000.0, "\"comfortably blanket under 1W\"");
    }

    #[test]
    fn power_grows_linearly_with_pes() {
        let tech = TechModel::default();
        let p2 = tech.roofline_power_mw(2).total();
        let p512 = tech.roofline_power_mw(512).total();
        assert!(p512 > p2);
        let slope = (p512 - p2) / 510.0;
        assert!((slope - tech.eve_pe_power_mw).abs() < 1e-9);
    }

    #[test]
    fn area_scales_with_every_component() {
        let tech = TechModel::default();
        let a = tech.area_mm2(2, 1024, 1.5).total();
        let b = tech.area_mm2(512, 1024, 1.5).total();
        assert!(b > a);
        let c = tech.area_mm2(256, 1024, 3.0).total();
        assert!(c > tech.area_mm2(256, 1024, 1.5).total());
    }

    #[test]
    fn per_op_energies_are_consistent_with_powers() {
        let tech = TechModel::default();
        // One PE running flat out for 1 s: cycles = freq, energy =
        // e_pe_gene * freq ≈ pe power.
        let joules = tech.e_pe_gene_pj * 1e-12 * tech.freq_hz;
        let watts = tech.eve_pe_power_mw * 1e-3;
        assert!((joules - watts).abs() / watts < 0.01);
    }

    #[test]
    fn energy_breakdown_totals() {
        let mut e = EnergyBreakdown {
            eve_uj: 1.0,
            adam_uj: 2.0,
            sram_uj: 3.0,
            noc_uj: 4.0,
            cpu_uj: 5.0,
        };
        assert_eq!(e.total(), 15.0);
        e.merge(&e.clone());
        assert_eq!(e.total(), 30.0);
    }
}
