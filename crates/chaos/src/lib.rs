//! Deterministic fault injection and contract checking for the RiF
//! serving layer.
//!
//! The offline crates prove the simulator's *performance* claims; the
//! serving layer ([`rif_server`]) exposes it as a live TCP service; this
//! crate proves that service keeps its *robustness* contract when the
//! network and the workers misbehave:
//!
//! - [`plan`] — seeded, serializable [`FaultPlan`]s whose fault schedule
//!   is a pure function of the seed (vendored xoshiro streams), so every
//!   chaos run reproduces bit-for-bit;
//! - [`proxy`] — a fault-injecting TCP proxy that drops, delays,
//!   duplicates, bit-corrupts, and truncates frames and resets
//!   connections between `rif-client` and `rif-server`;
//! - [`contract`] — the [`ContractChecker`], which audits the client's
//!   request journal: every submitted tag resolves to exactly one of
//!   DONE/BUSY/ERROR or a clean connection error — never silence, never
//!   duplicate completions;
//! - [`scenario`] — one-call harness (server + proxy + journaled client
//!   + worker-kill watcher + audit) used by the ci chaos gate;
//! - [`cluster`] — the multi-node harness: `N` cluster nodes behind a
//!   shard directory, optionally replicated (`replicas >= 2`) and
//!   optionally proxied through the fault plane, with a scheduled
//!   timeline of node hard-kills, asymmetric one-way partitions,
//!   migrations in flight, and directory restarts — audited with the
//!   same checker, plus a replicated-read availability count.
//!
//! Like `rif-server`, everything is plain `std`.
//!
//! # Example
//!
//! ```no_run
//! use rif_chaos::plan::FaultPlan;
//! use rif_chaos::scenario::{run_scenario, ScenarioConfig};
//!
//! let cfg = ScenarioConfig {
//!     plan: FaultPlan::parse("seed=42,up.drop=0.1,down.delay=0.05,down.delay_us=2000").unwrap(),
//!     requests: 10_000,
//!     ..ScenarioConfig::default()
//! };
//! let outcome = run_scenario(&cfg).unwrap();
//! println!("{}", outcome.verdict.to_json());
//! assert!(outcome.verdict.pass);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod contract;
pub mod plan;
pub mod proxy;
pub mod scenario;

pub use cluster::{run_cluster_scenario, ClusterOutcome, ClusterScenarioConfig};
pub use contract::{ContractChecker, ContractVerdict};
pub use plan::{
    seeded_multi_kills, Decision, DecisionStream, DirRates, Direction, FaultPlan, KillSpec,
    NodeKillSpec, PartitionSpec,
};
pub use proxy::{ChaosProxy, FaultStats, FaultStatsSnapshot, PartitionSwitch};
pub use scenario::{run_scenario, ScenarioConfig, ScenarioOutcome};
