//! # genesys-platforms — baseline platform models
//!
//! Trace-driven cost models for the comparison platforms of the GeneSys
//! evaluation: desktop/embedded CPUs and GPUs (Table III, Figs 9–10) and
//! the DQN-vs-EA characterization (Table II).
//!
//! All models consume a [`WorkloadProfile`] — op/byte counts *measured*
//! from actual runs of `genesys-neat` — and apply per-device constants.
//! This stands in for the paper's physical measurements: every platform
//! is charged for the same measured workload, so the relative magnitudes
//! that the paper's comparisons (log-scale Fig 9, Table III) consume are
//! preserved, while absolute times rest on the assumed constants (see the
//! [`cpu`] module).
//!
//! ```
//! use genesys_platforms::{CpuModel, WorkloadProfile};
//!
//! let profile = WorkloadProfile {
//!     label: "CartPole_v0".into(),
//!     pop_size: 150,
//!     env_steps: 15_000,
//!     inference_macs: 150_000,
//!     evolution_ops: 8_000,
//!     total_genes: 2_000,
//!     max_nodes: 12,
//!     mean_nodes: 7.0,
//! };
//! let i7 = CpuModel::i7();
//! let serial = i7.inference_time_s(&profile, false);
//! let plp = i7.inference_time_s(&profile, true);
//! assert!(plp < serial);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cpu;
pub mod dqn;
pub mod gpu;
pub mod platform;

pub use cpu::CpuModel;
pub use dqn::{table2, DqnSpec, Table2Row};
pub use gpu::{GpuModel, TransferBreakdown};
pub use platform::{
    platform_by_label, DeviceClass, ParallelismMode, PlatformSpec, WorkloadProfile, TABLE_III,
};
