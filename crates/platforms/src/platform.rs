//! Table III: the target system configurations of the evaluation.

use std::fmt;

/// Parallelism strategy used by a platform for a phase (Table III legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismMode {
    /// Single-threaded.
    Serial,
    /// Population-level parallelism (multi-threading over genomes).
    Plp,
    /// Bulk-synchronous parallelism (GPU kernels over one genome).
    Bsp,
    /// BSP across the whole population at once.
    BspPlp,
    /// GeneSys: PLP for inference, PLP + gene-level parallelism for
    /// evolution.
    PlpGlp,
}

impl fmt::Display for ParallelismMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParallelismMode::Serial => "Serial",
            ParallelismMode::Plp => "PLP",
            ParallelismMode::Bsp => "BSP",
            ParallelismMode::BspPlp => "BSP + PLP",
            ParallelismMode::PlpGlp => "PLP + GLP",
        };
        f.write_str(s)
    }
}

/// Device class of a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// Desktop-class CPU (6th-gen i7).
    DesktopCpu,
    /// Embedded CPU (ARM Cortex-A57 on Jetson TX2).
    EmbeddedCpu,
    /// Desktop GPU (NVIDIA GTX 1080).
    DesktopGpu,
    /// Embedded GPU (NVIDIA Tegra on Jetson TX2).
    EmbeddedGpu,
    /// The GeneSys SoC.
    Soc,
}

/// One row of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformSpec {
    /// Legend label ("CPU_a" … "GENESYS").
    pub label: &'static str,
    /// Hardware platform description.
    pub hardware: &'static str,
    /// Inference parallelism.
    pub inference: ParallelismMode,
    /// Evolution parallelism.
    pub evolution: ParallelismMode,
    /// Device class (selects the cost model).
    pub class: DeviceClass,
}

/// All nine configurations of Table III, in paper order.
pub const TABLE_III: [PlatformSpec; 9] = [
    PlatformSpec {
        label: "CPU_a",
        hardware: "6th gen i7",
        inference: ParallelismMode::Serial,
        evolution: ParallelismMode::Serial,
        class: DeviceClass::DesktopCpu,
    },
    PlatformSpec {
        label: "CPU_b",
        hardware: "6th gen i7",
        inference: ParallelismMode::Plp,
        evolution: ParallelismMode::Serial,
        class: DeviceClass::DesktopCpu,
    },
    PlatformSpec {
        label: "GPU_a",
        hardware: "Nvidia GTX 1080",
        inference: ParallelismMode::Bsp,
        evolution: ParallelismMode::Plp,
        class: DeviceClass::DesktopGpu,
    },
    PlatformSpec {
        label: "GPU_b",
        hardware: "Nvidia GTX 1080",
        inference: ParallelismMode::BspPlp,
        evolution: ParallelismMode::Plp,
        class: DeviceClass::DesktopGpu,
    },
    PlatformSpec {
        label: "CPU_c",
        hardware: "ARM Cortex A57",
        inference: ParallelismMode::Serial,
        evolution: ParallelismMode::Serial,
        class: DeviceClass::EmbeddedCpu,
    },
    PlatformSpec {
        label: "CPU_d",
        hardware: "ARM Cortex A57",
        inference: ParallelismMode::Plp,
        evolution: ParallelismMode::Serial,
        class: DeviceClass::EmbeddedCpu,
    },
    PlatformSpec {
        label: "GPU_c",
        hardware: "Nvidia Tegra",
        inference: ParallelismMode::Bsp,
        evolution: ParallelismMode::Plp,
        class: DeviceClass::EmbeddedGpu,
    },
    PlatformSpec {
        label: "GPU_d",
        hardware: "Nvidia Tegra",
        inference: ParallelismMode::BspPlp,
        evolution: ParallelismMode::Plp,
        class: DeviceClass::EmbeddedGpu,
    },
    PlatformSpec {
        label: "GENESYS",
        hardware: "GENESYS",
        inference: ParallelismMode::Plp,
        evolution: ParallelismMode::PlpGlp,
        class: DeviceClass::Soc,
    },
];

/// Looks up a Table III row by label.
pub fn platform_by_label(label: &str) -> Option<&'static PlatformSpec> {
    TABLE_III.iter().find(|p| p.label == label)
}

/// Workload statistics extracted from an actual NEAT run; every baseline
/// cost model is driven by these measured counts (see the [crate] docs on
/// the trace-driven substitution for the paper's physical measurements).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload label (e.g. "CartPole_v0").
    pub label: String,
    /// Population size.
    pub pop_size: usize,
    /// Environment steps per generation, summed over the population.
    pub env_steps: u64,
    /// Inference MACs per generation (all steps, all genomes).
    pub inference_macs: u64,
    /// Crossover + mutation operations per generation.
    pub evolution_ops: u64,
    /// Total genes in the population.
    pub total_genes: u64,
    /// Node count of the largest genome.
    pub max_nodes: usize,
    /// Mean nodes per genome.
    pub mean_nodes: f64,
}

impl WorkloadProfile {
    /// Population memory footprint in the 8-byte hardware encoding.
    pub fn genesys_footprint_bytes(&self) -> u64 {
        self.total_genes * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_nine_rows_in_paper_order() {
        assert_eq!(TABLE_III.len(), 9);
        assert_eq!(TABLE_III[0].label, "CPU_a");
        assert_eq!(TABLE_III[8].label, "GENESYS");
    }

    #[test]
    fn lookup_by_label() {
        let gpu_b = platform_by_label("GPU_b").unwrap();
        assert_eq!(gpu_b.inference, ParallelismMode::BspPlp);
        assert_eq!(gpu_b.class, DeviceClass::DesktopGpu);
        assert!(platform_by_label("TPU").is_none());
    }

    #[test]
    fn genesys_uses_glp() {
        let g = platform_by_label("GENESYS").unwrap();
        assert_eq!(g.evolution, ParallelismMode::PlpGlp);
    }

    #[test]
    fn modes_display_like_the_paper_legend() {
        assert_eq!(ParallelismMode::BspPlp.to_string(), "BSP + PLP");
        assert_eq!(ParallelismMode::PlpGlp.to_string(), "PLP + GLP");
    }

    #[test]
    fn footprint_is_eight_bytes_per_gene() {
        let w = WorkloadProfile {
            label: "x".into(),
            pop_size: 150,
            env_steps: 1000,
            inference_macs: 10_000,
            evolution_ops: 5_000,
            total_genes: 1_000,
            max_nodes: 10,
            mean_nodes: 8.0,
        };
        assert_eq!(w.genesys_footprint_bytes(), 8_000);
    }
}
