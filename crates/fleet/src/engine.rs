//! The fleet engine: one request front door over many co-located models.
//!
//! A [`FleetEngine`] is the `fpsa_serve::pool` serving core with one
//! *routed* unit per fabric of a packed [`FleetPlacement`]:
//!
//! * **routing** — a request for model *m* goes to whichever fabric hosting
//!   *m* has the shortest queue (ties to the lowest index), so replicated
//!   models absorb load wherever there is room;
//! * **weighted-fair admission** — each fabric queues requests in a
//!   [`fpsa_serve::WeightedFairBatcher`] with one lane per tenant, so
//!   tenants share a fabric by configured weight instead of racing FIFO;
//!   a claimed batch executes as contiguous same-model runs;
//! * **bind-handle LRU** — executors are bound lazily per fabric and kept
//!   in a small LRU cache, so a cold model pays one bind and hot models
//!   never rebind;
//! * **per-tenant SLOs** — every tenant's latency is recorded per fabric
//!   and merged on demand; when a tenant's observed p99 exceeds its budget
//!   and its backlog is above the shed threshold, new requests are shed
//!   with the typed [`ServeError::Shed`] instead of deepening the
//!   violation.
//!
//! Throughput comes from placement and scheduling only — never from
//! changed arithmetic: fleet outputs are bit-identical to direct
//! `Executor::run` calls for every model, precision and interleaving
//! (`tests/fleet_determinism.rs`).

use std::sync::{Arc, Mutex};

use fpsa_obs::Tracer;
use fpsa_serve::pool::{Backend, Pool, Tier};
use fpsa_serve::{BatchPolicy, ServeError, ServeStats, Ticket};
use fpsa_sim::{ExecArena, Executor};

use crate::packer::FleetPlacement;
use crate::registry::{FleetModel, ModelId, ModelRegistry};

/// A tenant's service-level objective: shed new work once the observed p99
/// latency exceeds `p99_budget_us` *and* the tenant's queued backlog is
/// deeper than `shed_depth` (so a blown budget with an empty queue still
/// admits — serving it cannot worsen the tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBudget {
    /// The tenant's p99 latency budget in microseconds.
    pub p99_budget_us: u64,
    /// Queued requests the tenant may hold while violating before sheds
    /// start.
    pub shed_depth: usize,
}

/// Fleet-engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Worker threads per fabric.
    pub replicas_per_fabric: usize,
    /// Largest batch a worker claims at once (per tenant lane).
    pub max_batch: usize,
    /// How long a lone request may wait for company, in microseconds.
    pub batch_window_us: u64,
    /// Bound-executor slots in each fabric's LRU cache (clamped ≥ 1).
    pub bind_cache: usize,
    /// Weighted-fair shares: `(tenant, weight)`, each weight clamped ≥ 1;
    /// unlisted tenants weigh 1.
    pub tenant_weights: Vec<(u16, u64)>,
    /// Per-tenant SLO budgets; unlisted tenants are never shed.
    pub slos: Vec<(u16, SloBudget)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas_per_fabric: 2,
            max_batch: 8,
            batch_window_us: 200,
            bind_cache: 4,
            tenant_weights: Vec::new(),
            slos: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// Set the worker count per fabric.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas_per_fabric = replicas;
        self
    }

    /// Set the batching policy.
    pub fn with_batching(mut self, max_batch: usize, window_us: u64) -> Self {
        self.max_batch = max_batch;
        self.batch_window_us = window_us;
        self
    }

    /// Set the per-fabric bind-handle cache capacity.
    pub fn with_bind_cache(mut self, slots: usize) -> Self {
        self.bind_cache = slots;
        self
    }

    /// Give `tenant` a weighted-fair share.
    pub fn with_tenant_weight(mut self, tenant: u16, weight: u64) -> Self {
        self.tenant_weights.push((tenant, weight));
        self
    }

    /// Give `tenant` an SLO budget.
    pub fn with_slo(mut self, tenant: u16, slo: SloBudget) -> Self {
        self.slos.push((tenant, slo));
        self
    }
}

/// Hit/miss/eviction counters for the bind-handle LRU caches (summed
/// across fabrics in [`FleetStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BindCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to bind.
    pub misses: u64,
    /// Bound executors dropped to make room.
    pub evictions: u64,
}

/// One tenant's SLO standing, read out of [`FleetStats::slo_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSloStatus {
    /// The tenant.
    pub tenant: u16,
    /// Observed p99 latency in microseconds.
    pub p99_latency_us: u64,
    /// The configured budget, if any.
    pub budget_us: Option<u64>,
    /// Whether the observed p99 currently exceeds the budget.
    pub violating: bool,
    /// Requests shed so far under [`ServeError::Shed`].
    pub shed: u64,
}

/// Lifetime fleet counters: an aggregate [`ServeStats`] plus one per
/// tenant, shed counts, and the bind-cache totals.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// All tenants together.
    pub aggregate: ServeStats,
    /// Per-tenant counters, dense by tenant id.
    pub tenants: Vec<ServeStats>,
    /// Requests shed per tenant (subset of that tenant's `rejected`).
    pub sheds: Vec<u64>,
    /// Per-tenant p99 budgets (dense by tenant id; `None` = no SLO).
    pub budgets: Vec<Option<u64>>,
    /// Bind-handle LRU counters summed across fabrics.
    pub bind_cache: BindCacheStats,
}

impl FleetStats {
    /// Every tenant's SLO standing, dense by tenant id.
    pub fn slo_status(&self) -> Vec<TenantSloStatus> {
        (0..self.tenants.len())
            .map(|t| {
                let p99 = self.tenants[t].p99_latency_us();
                let budget = self.budgets.get(t).copied().flatten();
                TenantSloStatus {
                    tenant: t as u16,
                    p99_latency_us: p99,
                    budget_us: budget,
                    violating: budget.is_some_and(|b| p99 > b),
                    shed: self.sheds.get(t).copied().unwrap_or(0),
                }
            })
            .collect()
    }
}

/// A tiny LRU over bound executors: `capacity` live binds per fabric.
struct BindCache {
    capacity: usize,
    clock: u64,
    entries: Vec<(ModelId, Arc<Executor>, u64)>,
    stats: BindCacheStats,
}

impl BindCache {
    fn new(capacity: usize) -> Self {
        BindCache {
            capacity: capacity.max(1),
            clock: 0,
            entries: Vec::new(),
            stats: BindCacheStats::default(),
        }
    }

    /// The cached executor for `model`, refreshing its recency on a hit.
    /// A miss is counted here — the caller binds *outside* the cache lock
    /// (so a slow cold bind never blocks a sibling replica's hit lookups)
    /// and hands the result to [`BindCache::insert`].
    fn lookup(&mut self, model: ModelId) -> Option<Arc<Executor>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(id, _, _)| *id == model) {
            entry.2 = clock;
            self.stats.hits += 1;
            return Some(Arc::clone(&entry.1));
        }
        self.stats.misses += 1;
        None
    }

    /// Install a freshly bound executor, evicting the least-recently-used
    /// handle at capacity. If a racing worker bound `model` first, its
    /// entry wins (recency refreshed) so the cache never holds duplicates;
    /// the returned handle is the one the caller should run with.
    fn insert(&mut self, model: ModelId, executor: Arc<Executor>) -> Arc<Executor> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(id, _, _)| *id == model) {
            entry.2 = clock;
            return Arc::clone(&entry.1);
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(i, _)| i)
                .expect("cache non-empty at capacity");
            self.entries.swap_remove(lru);
            self.stats.evictions += 1;
        }
        self.entries.push((model, Arc::clone(&executor), clock));
        executor
    }
}

/// The fleet as a pool backend: the registry, each model's hosting
/// fabrics, and one bind cache per fabric.
struct Fleet {
    registry: ModelRegistry,
    placement: FleetPlacement,
    /// `hosts[model]`: the fabrics hosting it (the placement, indexed once).
    hosts: Vec<Vec<usize>>,
    binds: Vec<Mutex<BindCache>>,
}

impl Fleet {
    fn spec(&self, model: ModelId) -> Result<&FleetModel, ServeError> {
        let spec = self.registry.get(model);
        spec.ok_or(ServeError::UnknownModel { model })
    }
}

impl Backend for Fleet {
    fn route(&self, model: ModelId) -> Result<(Option<usize>, &[usize]), ServeError> {
        let spec = self.spec(model)?;
        Ok((spec.input_len(), &self.hosts[usize::from(model)]))
    }

    /// Cache lookup and insert each hold the bind mutex briefly; the bind
    /// itself runs unlocked, so a slow cold bind never stalls a sibling
    /// replica's cache hits on the same fabric.
    fn execute(
        &self,
        fabric: usize,
        model: ModelId,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ServeError> {
        let binds = &self.binds[fabric];
        let cached = binds.lock().expect("bind cache lock").lookup(model);
        let executor = match cached {
            Some(exec) => exec,
            None => {
                let spec = self.spec(model)?;
                let exec = spec
                    .compiled
                    .executor(&spec.graph, &spec.params, &spec.precision);
                let exec = Arc::new(exec.map_err(ServeError::Exec)?);
                binds.lock().expect("bind cache lock").insert(model, exec)
            }
        };
        let result = executor.run_batch_into(inputs, arena, outputs);
        result.map_err(ServeError::Exec)
    }
}

/// A multi-tenant, multi-model serving engine over a packed fleet of
/// fabrics (see the module docs).
#[derive(Debug)]
pub struct FleetEngine {
    pool: Pool<Fleet>,
    config: FleetConfig,
}

impl FleetEngine {
    /// Start serving the fleet: `placement` must come from
    /// [`FleetPlacement::pack`] over the same `registry`.
    pub fn start(
        registry: ModelRegistry,
        placement: FleetPlacement,
        config: FleetConfig,
    ) -> FleetEngine {
        let config = FleetConfig {
            replicas_per_fabric: config.replicas_per_fabric.max(1),
            max_batch: config.max_batch.max(1),
            bind_cache: config.bind_cache.max(1),
            tenant_weights: (config.tenant_weights.iter())
                .map(|&(tenant, weight)| (tenant, weight.max(1)))
                .collect(),
            ..config
        };
        let fleet = Fleet {
            hosts: (0..registry.len() as ModelId)
                .map(|model| placement.hosts_of(model))
                .collect(),
            binds: (0..placement.fabrics())
                .map(|_| Mutex::new(BindCache::new(config.bind_cache)))
                .collect(),
            registry,
            placement,
        };
        let fabrics = fleet.placement.fabrics();
        let pool = Pool::start(
            fleet,
            Tier::Fleet,
            fabrics,
            config.replicas_per_fabric,
            BatchPolicy::new(config.max_batch, config.batch_window_us),
            &config.tenant_weights,
        );
        FleetEngine { pool, config }
    }

    /// The (clamped) configuration the fleet runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The placement the fleet serves.
    pub fn placement(&self) -> &FleetPlacement {
        &self.pool.backend().placement
    }

    /// The registry the fleet serves.
    pub fn registry(&self) -> &ModelRegistry {
        &self.pool.backend().registry
    }

    /// Enqueue one request for `model` on behalf of `tenant`; never blocks
    /// on the model. Invalid inputs, unknown models, SLO sheds and
    /// post-shutdown submissions resolve the ticket immediately with the
    /// typed error instead of poisoning a batch.
    pub fn submit(&self, tenant: u16, model: ModelId, input: Vec<f32>) -> Ticket {
        // SLO admission control applies to requests that would otherwise
        // queue: a tenant past its p99 budget with a deep enough backlog is
        // shed first.
        let admissible = self
            .registry()
            .get(model)
            .is_some_and(|spec| spec.input_len().is_none_or(|want| want == input.len()));
        if admissible {
            if let Some(err) = self.shed(tenant, model) {
                return self.pool.reject(tenant, model, err);
            }
        }
        self.pool.submit(tenant, model, input)
    }

    /// Submit one request and block for its output.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`], if it failed.
    pub fn infer(
        &self,
        tenant: u16,
        model: ModelId,
        input: Vec<f32>,
    ) -> Result<Vec<f32>, ServeError> {
        self.submit(tenant, model, input).wait()
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> FleetStats {
        let lanes = self.pool.lanes();
        let budgeted = self.config.slos.iter().map(|&(t, _)| usize::from(t) + 1);
        let tenants = budgeted.fold(lanes.len(), usize::max);
        let lane = |t: usize| lanes.get(t).copied().unwrap_or_default();
        let mut aggregate = ServeStats::default();
        for lane in &lanes {
            aggregate.merge(&lane.stats);
        }
        let mut bind_cache = BindCacheStats::default();
        for cache in &self.pool.backend().binds {
            let cache = cache.lock().expect("bind cache lock");
            bind_cache.hits += cache.stats.hits;
            bind_cache.misses += cache.stats.misses;
            bind_cache.evictions += cache.stats.evictions;
        }
        FleetStats {
            aggregate,
            tenants: (0..tenants).map(|t| lane(t).stats).collect(),
            sheds: (0..tenants).map(|t| lane(t).shed).collect(),
            budgets: (0..tenants)
                .map(|t| self.budget(t).map(|b| b.p99_budget_us))
                .collect(),
            bind_cache,
        }
    }

    /// Stop admitting requests, drain every queue, join the workers and
    /// return the final counters.
    pub fn shutdown(mut self) -> FleetStats {
        self.pool.shutdown();
        self.stats()
    }

    /// `tenant`'s SLO budget (the last one configured wins).
    fn budget(&self, tenant: usize) -> Option<SloBudget> {
        let mut slos = self.config.slos.iter().rev();
        slos.find_map(|&(t, slo)| (usize::from(t) == tenant).then_some(slo))
    }

    /// The [`ServeError::Shed`] for `tenant`'s next request to `model`, if
    /// its observed p99 exceeds its budget and its backlog on the hosting
    /// fabrics has reached the shed depth. Tenants without a budget never
    /// pay for the check.
    fn shed(&self, tenant: u16, model: ModelId) -> Option<ServeError> {
        let budget = self.budget(usize::from(tenant))?;
        let lanes = self.pool.lanes();
        let p99 = lanes
            .get(usize::from(tenant))
            .map_or(0, |l| l.stats.p99_latency_us());
        if p99 <= budget.p99_budget_us {
            return None;
        }
        let backlog = self
            .pool
            .backlog(tenant, &self.pool.backend().hosts[usize::from(model)]);
        if backlog < budget.shed_depth {
            return None;
        }
        // The typed-error telemetry hook: mark the decision on the timeline
        // and persist the flight-recorder postmortem (the last queue-depth
        // samples and spans before the shed).
        let tracer = Tracer::global();
        if tracer.enabled() {
            let (tenant, backlog) = (i64::from(tenant), backlog as i64);
            let ts = tracer.now_us();
            tracer.instant(
                "shed",
                "fleet",
                ts,
                &[("tenant", tenant), ("backlog", backlog)],
            );
            fpsa_obs::flight_dump_on_error(
                "fleet.shed",
                &[
                    ("tenant", tenant),
                    ("p99_us", p99 as i64),
                    ("budget_us", budget.p99_budget_us as i64),
                    ("backlog", backlog),
                ],
            );
        }
        Some(ServeError::Shed {
            tenant,
            p99_us: p99,
            budget_us: budget.p99_budget_us,
        })
    }
}

impl fpsa_workload::RoutedReplayTarget for FleetEngine {
    fn submit_routed(&self, tenant: u16, model: u16, input: Vec<f32>) -> Ticket {
        FleetEngine::submit(self, tenant, model, input)
    }
    fn stats(&self) -> ServeStats {
        FleetEngine::stats(self).aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_arch::FabricCapacity;
    use fpsa_core::{CompileCache, Compiler};
    use fpsa_nn::{zoo, GraphParameters};
    use fpsa_sim::Precision;

    fn zoo_registry() -> ModelRegistry {
        let cache = Arc::new(CompileCache::new(8));
        let mut registry = ModelRegistry::with_cache(Compiler::fpsa(), cache);
        for (name, graph, seed) in [("mlp", zoo::tiny_mlp(), 11), ("cnn", zoo::tiny_cnn(), 13)] {
            let params = GraphParameters::seeded(&graph, seed);
            registry
                .register(name, graph, params, Precision::Float)
                .unwrap();
        }
        registry
    }

    fn ample() -> FabricCapacity {
        FabricCapacity::new(100_000, 20_000, 20_000)
    }

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| ((seed + i as u64) % 10) as f32 * 0.1)
            .collect()
    }

    #[test]
    fn fleet_outputs_match_direct_execution_across_models() {
        let registry = zoo_registry();
        let direct: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                let spec = registry.get((i % 2) as ModelId).unwrap();
                let exec = spec
                    .compiled
                    .executor(&spec.graph, &spec.params, &spec.precision)
                    .unwrap();
                exec.run(&sample(spec.input_len().unwrap(), i)).unwrap()
            })
            .collect();
        let placement = FleetPlacement::pack(&registry, 2, ample()).unwrap();
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                let model = (i % 2) as ModelId;
                let len = engine.registry().get(model).unwrap().input_len().unwrap();
                engine.submit((i % 3) as u16, model, sample(len, i))
            })
            .collect();
        let served: Vec<Vec<f32>> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(served, direct);
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.submitted, 8);
        assert_eq!(stats.aggregate.completed, 8);
        assert_eq!(stats.aggregate.failed + stats.aggregate.rejected, 0);
        assert_eq!(
            stats.tenants.iter().map(|t| t.completed).sum::<u64>(),
            8,
            "per-tenant counters partition the aggregate"
        );
    }

    #[test]
    fn bad_inputs_and_unknown_models_resolve_typed_errors() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        let err = engine.submit(0, 0, vec![0.0; 3]).wait().unwrap_err();
        assert_eq!(err, ServeError::InputLength { got: 3, want: 16 });
        let err = engine.submit(0, 99, vec![0.0; 16]).wait().unwrap_err();
        assert_eq!(err, ServeError::UnknownModel { model: 99 });
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.rejected, 2);
    }

    #[test]
    fn a_cold_bind_cache_rebinds_under_pressure() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        // One bind slot for two models forces an eviction per switch.
        let engine = FleetEngine::start(
            registry,
            placement,
            FleetConfig::default().with_replicas(1).with_bind_cache(1),
        );
        for i in 0..4u64 {
            let model = (i % 2) as ModelId;
            let len = engine.registry().get(model).unwrap().input_len().unwrap();
            engine.infer(0, model, sample(len, i)).unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.completed, 4);
        assert!(
            stats.bind_cache.misses >= 2,
            "both models must cold-bind at least once"
        );
        assert!(
            stats.bind_cache.evictions >= 1,
            "a single slot must evict on model switches"
        );
    }

    #[test]
    fn blown_slo_budgets_shed_with_the_typed_error() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(
            registry,
            placement,
            FleetConfig::default().with_slo(
                0,
                SloBudget {
                    p99_budget_us: 0,
                    shed_depth: 0,
                },
            ),
        );
        // First request completes (no latency history yet, p99 = 0).
        engine.infer(0, 0, sample(16, 1)).unwrap();
        // Now p99 > 0 exceeds the 0us budget: the next submit sheds.
        let err = engine.submit(0, 0, sample(16, 2)).wait().unwrap_err();
        match err {
            ServeError::Shed {
                tenant, budget_us, ..
            } => {
                assert_eq!(tenant, 0);
                assert_eq!(budget_us, 0);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        // Tenant 1 has no SLO and is untouched.
        engine.infer(1, 0, sample(16, 3)).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.sheds[0], 1);
        assert_eq!(stats.tenants[0].rejected, 1);
        assert_eq!(stats.tenants[1].rejected, 0);
        let status = stats.slo_status();
        assert!(status[0].violating);
        assert_eq!(status[0].budget_us, Some(0));
        assert_eq!(status[1].budget_us, None);
    }

    #[test]
    fn config_reports_the_clamped_values_the_engine_runs_with() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(
            registry,
            placement,
            FleetConfig::default()
                .with_replicas(0)
                .with_batching(0, 50)
                .with_bind_cache(0)
                .with_tenant_weight(1, 0),
        );
        let config = engine.config();
        assert_eq!(config.replicas_per_fabric, 1);
        assert_eq!(config.max_batch, 1);
        assert_eq!(config.batch_window_us, 50);
        assert_eq!(
            config.bind_cache, 1,
            "a zero-slot cache still holds one bind"
        );
        assert_eq!(config.tenant_weights, vec![(1, 1)], "weights clamp to 1");
        engine.infer(1, 0, sample(16, 1)).unwrap();
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_queued_work() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        engine.infer(0, 0, sample(16, 1)).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.completed, 1);
    }
}
