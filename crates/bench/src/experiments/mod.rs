//! The experiment registry: one module per figure, table, ablation or
//! sweep, each a `run(opts, out)` listed once in [`EXPERIMENTS`].

use crate::RunFn;

pub mod ablation_chunk_size;
pub mod ablation_ecc_buffer;
pub mod ablation_refresh;
pub mod ablation_rho_sweep;
pub mod ablation_suspend;
pub mod fig03_ldpc_capability;
pub mod fig04_retention_map;
pub mod fig07_timeline;
pub mod fig10_syndrome_correlation;
pub mod fig11_rp_accuracy;
pub mod fig12_chunk_similarity;
pub mod fig17_bandwidth;
pub mod fig19_latency_cdf;
pub mod hybrid_sweep;
pub mod lifetime_sweep;
pub mod overhead_ppa;
pub mod table1_config;
pub mod table2_workloads;

/// Every experiment by name; `results/<name>.txt` is its full-size
/// capture, which `rif-bench check` regenerates and compares.
pub const EXPERIMENTS: &[(&str, RunFn)] = &[
    ("ablation_chunk_size", ablation_chunk_size::run),
    ("ablation_ecc_buffer", ablation_ecc_buffer::run),
    ("ablation_refresh", ablation_refresh::run),
    ("ablation_rho_sweep", ablation_rho_sweep::run),
    ("ablation_suspend", ablation_suspend::run),
    ("fig03_ldpc_capability", fig03_ldpc_capability::run),
    ("fig04_retention_map", fig04_retention_map::run),
    ("fig07_timeline", fig07_timeline::run),
    (
        "fig10_syndrome_correlation",
        fig10_syndrome_correlation::run,
    ),
    ("fig11_rp_accuracy", fig11_rp_accuracy::run),
    ("fig12_chunk_similarity", fig12_chunk_similarity::run),
    ("fig17_bandwidth", fig17_bandwidth::run),
    ("fig19_latency_cdf", fig19_latency_cdf::run),
    ("hybrid_sweep", hybrid_sweep::run),
    ("lifetime_sweep", lifetime_sweep::run),
    ("overhead_ppa", overhead_ppa::run),
    ("table1_config", table1_config::run),
    ("table2_workloads", table2_workloads::run),
];
