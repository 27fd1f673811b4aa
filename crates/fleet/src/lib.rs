//! `fpsa_fleet` — multi-tenant model-fleet serving.
//!
//! One FPSA fabric comfortably holds many small models at once: a
//! `tiny_mlp`'s netlist uses a fraction of the block budget a chip offers,
//! so dedicating a fabric (and an `fpsa_serve::ServeEngine`) to every model
//! strands most of the fleet's capacity. This crate serves a whole model
//! *zoo* through one front door instead:
//!
//! * [`ModelRegistry`] — every served model, compiled once through the
//!   shared `fpsa_core::CompileCache` and keyed by its content-addressed
//!   `CompileKey`, with its block demand measured off the mapped netlist;
//! * [`FleetPlacement`] — a deterministic capacity packer that co-locates
//!   models onto fabrics first-fit-decreasing and replicates them into the
//!   leftover room, failing with the compiler's own typed
//!   `CompileError::CapacityExceeded` when a model fits nowhere;
//! * [`FleetEngine`] — the `fpsa_serve::pool` serving core with one routed
//!   unit per fabric: weighted-fair (deficit-round-robin) tenant lanes,
//!   shortest-queue routing across the fabrics hosting a model, an LRU
//!   bind-handle cache so cold models pay one bind, and per-tenant latency
//!   histograms (kept per fabric, merged on demand) with SLO budgets that
//!   shed (typed `ServeError::Shed`) once a tenant's p99 blows through its
//!   budget with a backlog behind it.
//!
//! Fleet outputs are **bit-identical** to direct `Executor::run` for every
//! model, tenant, precision and interleaving (`tests/fleet_determinism.rs`)
//! — co-location changes where and when a request runs, never what it
//! computes. The virtual-clock twin of this engine is
//! `fpsa_workload::simulate_fleet` (the same twin `simulate` runs with one
//! fabric and one lane), and `experiments::fleet` compares the two
//! placements (co-located fleet vs dedicated single-model engines) on that
//! deterministic clock for the CI-pinned `BENCH_fleet.json`.
//!
//! # Quick start
//!
//! ```
//! use fpsa_arch::FabricCapacity;
//! use fpsa_core::Compiler;
//! use fpsa_fleet::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};
//! use fpsa_nn::{zoo, GraphParameters};
//! use fpsa_sim::Precision;
//!
//! let mut registry = ModelRegistry::new(Compiler::fpsa());
//! let graph = zoo::tiny_mlp();
//! let params = GraphParameters::seeded(&graph, 7);
//! let mlp = registry.register("tiny_mlp", graph, params, Precision::Float)?;
//!
//! let capacity = FabricCapacity::new(100_000, 20_000, 20_000);
//! let placement = FleetPlacement::pack(&registry, 2, capacity)?;
//! let engine = FleetEngine::start(registry, placement, FleetConfig::default());
//! let logits = engine.infer(0, mlp, vec![0.5; 16]).expect("request is served");
//! assert_eq!(logits.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod engine;
pub mod experiments;
pub mod packer;
pub mod registry;

pub use engine::{
    BindCacheStats, FleetConfig, FleetEngine, FleetStats, SloBudget, TenantSloStatus,
};
pub use packer::FleetPlacement;
pub use registry::{FleetModel, ModelId, ModelRegistry};
