//! # genesys-core — the GeneSys SoC simulator
//!
//! A functional + cycle-level model of the GeneSys system-on-chip
//! (Samajdar et al., MICRO 2018): the first system to perform evolutionary
//! learning **and** inference on the same chip.
//!
//! * [`codec`] — the 64-bit gene word of Fig 6 (one SRAM word per gene).
//! * [`pe`] — the EvE processing element: crossover → perturbation →
//!   delete-gene → add-gene (Fig 7), functional and quantized.
//! * [`stream`] — Gene Split (parent alignment) and Gene Merge (child
//!   assembly + validity repair).
//! * [`selector`] — the CPU-side Gene Selector: fitness sharing,
//!   thresholding, parent pairing, and GLR-aware greedy PE allocation.
//! * [`eve`] — the Evolution Engine: PE rounds, NoC traffic, SRAM
//!   accounting; plus trace replay (the paper's own evaluation method).
//! * [`adam`] — the inference engine: wavefront packing onto a 32×32
//!   systolic MAC array.
//! * [`noc`] — point-to-point buses vs. the multicast tree (Fig 11(b)).
//! * [`sram`] — the 48-bank genome buffer with energy counters.
//! * [`energy`] — 15 nm area/power/energy models calibrated to Fig 8.
//! * [`soc`] — the ten-step generation walkthrough of Section IV-B; the
//!   [`GenesysSoc`] also implements the session `Backend`, so hardware
//!   runs are driven by the same `genesys_neat::Session` loop as software.
//! * [`snapshot`] — the versioned binary checkpoint format (the gene-word
//!   encoding extended to the full evolution state) behind bit-identical
//!   save/resume.
//!
//! # Quickstart: hardware-evolve CartPole
//!
//! ```
//! use genesys_core::{GenesysSoc, SocConfig};
//! use genesys_gym::{EnvKind, EpisodeEvaluator};
//! use genesys_neat::{NeatConfig, Session};
//!
//! let neat = NeatConfig::builder(4, 1).pop_size(16).build()?;
//! let soc = GenesysSoc::new(SocConfig::default().with_num_eve_pes(8), neat, 1);
//! let mut session = Session::on(soc, 1)
//!     .workload(EpisodeEvaluator::new(EnvKind::CartPole))
//!     .build();
//! session.step();
//! let report = session.backend().last_report().expect("one generation ran");
//! assert!(report.energy.total() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adam;
pub mod codec;
pub mod config;
pub mod energy;
pub mod eve;
pub mod noc;
pub mod pe;
pub mod selector;
pub mod snapshot;
pub mod soc;
pub mod sram;
pub mod stream;

pub use adam::{inference_timing, naive_inference_timing, AdamConfig, AdamReport};
pub use codec::{
    decode, decode_genome, decode_population, encode, encode_genome, encode_population,
    quantize_genome, Gene,
};
pub use config::SocConfig;
pub use energy::{AreaBreakdown, EnergyBreakdown, GatingModel, PowerBreakdown, TechModel};
pub use eve::{replay_trace, replay_trace_with_policy, EveEngine, EveReport, ReplayReport};
pub use noc::{Noc, NocKind, NocStats};
pub use pe::{EvePe, PeConfig, PeCycles};
pub use selector::{allocate_pes, select_parents, AllocPolicy, MatingPlan, PeSchedule};
pub use snapshot::{
    decode_snapshot, encode_snapshot, snapshot_from_bytes, snapshot_to_bytes, SnapshotError,
    SNAPSHOT_MAGIC, SNAPSHOT_MAX_NODE_ID, SNAPSHOT_VERSION,
};
pub use soc::{GenerationReport, GenesysSoc};
pub use sram::{GenomeBuffer, SramConfig, SramStats};
pub use stream::{align_parents, merge_child, AlignedPair, MergeReport};
