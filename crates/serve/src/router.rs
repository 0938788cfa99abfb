//! The shard routing tier: one [`Router`] in front of `N`
//! [`approxrank_engine::Engine`]s.
//!
//! In the default single-shard mode the router is a transparent shim over
//! one global engine — every request goes straight through, and answers
//! are bit-identical to the pre-router service. With
//! [`crate::ServeConfig::shards`] `> 1` the graph is partitioned at boot
//! ([`assign_shards`]) and each shard gets its own engine — a
//! [`DeltaShardView`] over one shared live [`DeltaGraph`] — with its own
//! result cache, session table, and (under a data dir) its own durable
//! store in `dir/shard-k`. Mutation batches ([`Router::mutate_graph`])
//! are applied to the shared delta once and absorbed by every engine.
//!
//! Routing rules in sharded mode:
//!
//! * A `/rank` whose members all live on one shard goes to that shard's
//!   engine and is **bit-identical** to the single-shard answer (the
//!   Λ-collapse consumes only global aggregates; see
//!   [`approxrank_core::GlobalAggregates`]).
//! * A `/rank` spanning shards fans out one sub-solve per touched shard
//!   on the router's own small executor — never the serve worker pool,
//!   whose lanes are all occupied by connection loops — and merges the
//!   per-shard distributions as a uniform mixture (each shard solves its
//!   resident members against the same global Λ). ApproxRank and its
//!   estimator variants (`mc`, `push`) support this — all three consume
//!   only global aggregates; the exact baselines need global state and
//!   answer 400. Estimator sub-answers also merge their `estimate`
//!   blocks (walks summed, residual averaged).
//! * Sessions must fit one shard. Ids are strided (engine `k` of `S`
//!   hands out `k+1, k+1+S, …`), so the owner of session `id` is
//!   recovered as `(id-1) % S` without any shared table.
//!
//! The router dispatches through [`EngineHandle`], not [`Engine`]
//! directly, so a shard's engine can live in this process
//! ([`Router::single`]/[`Router::sharded`]) or on another host behind the
//! RPC layer ([`Router::remote`], one
//! [`approxrank_rpc::RemoteEngine`] replica set per shard). The routing
//! rules above are identical in remote mode — the router keeps only the
//! node→shard assignment locally and never materializes shard views.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use approxrank_engine::{
    Algorithm, BatchStats, CacheStats, CachedResult, DeltaGraph, DeltaShardView, Engine,
    EngineConfig, EngineError, EngineHandle, Estimate, KeywordRequest, MutationOutcome,
    RankOutcome, RankRequest, SessionView,
};
use approxrank_exec::Executor;
use approxrank_graph::{assign_shards, DiGraph, PartitionStrategy};
use approxrank_rpc::{RemoteConfig, RemoteEngine};
use approxrank_trace::{logging, Observer, Stopwatch};

/// Shape of the global graph, captured at boot for `/stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSummary {
    /// Global node count.
    pub nodes: usize,
    /// Global edge count.
    pub edges: usize,
    /// Global dangling-page count.
    pub dangling: usize,
}

/// A routed `/rank` answer: the (possibly merged) result plus how many
/// shards contributed. Single-shard deployments always report 1, so a
/// shard-resident request's response body is identical across
/// deployments.
#[derive(Clone, Debug)]
pub struct RoutedRank {
    /// The merged or pass-through outcome.
    pub outcome: RankOutcome,
    /// Shards that contributed to the answer (1 unless the membership
    /// spans shards).
    pub shards: usize,
}

/// Widest fan-out pool a router will spawn; cross-shard merges are
/// latency-bound on the slowest shard, so a few lanes go a long way.
const MAX_FANOUT_LANES: usize = 8;

/// `N` engines plus the routing logic between them.
pub struct Router {
    /// Dispatch surface, shard order: in-process engines, remote replica
    /// sets, or (in principle) a mix.
    engines: Vec<Arc<dyn EngineHandle>>,
    /// The in-process engines, shard order — empty in remote mode.
    /// Persistence and store metrics iterate these.
    local: Vec<Arc<Engine>>,
    /// The remote replica sets, shard order — empty in local mode.
    /// The `rpc_*` metrics lines iterate these.
    remote: Vec<Arc<RemoteEngine>>,
    /// `node → shard`, present only in sharded mode.
    assignment: Option<Arc<Vec<u32>>>,
    /// The live graph, shared by every in-process engine — `None` in
    /// remote mode, where each shard server owns its own delta.
    delta: Option<Arc<DeltaGraph>>,
    strategy: Option<PartitionStrategy>,
    /// Graph shape at boot; [`Router::summary`] reads the live delta
    /// instead when one is present.
    summary: GraphSummary,
    /// Dedicated pool for cross-shard fan-out (absent in single mode).
    fanout: Option<Executor>,
    /// `/rank` sub-requests answered by each shard's engine.
    shard_rank_requests: Vec<AtomicU64>,
    /// `/rank` requests whose membership spanned more than one shard.
    cross_rank_requests: AtomicU64,
    /// Accepted `POST /graph/edges` mutation batches.
    graph_mutations: AtomicU64,
}

fn summarize(graph: &DiGraph) -> GraphSummary {
    GraphSummary {
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        dangling: graph.nodes().filter(|&u| graph.is_dangling(u)).count(),
    }
}

impl Router {
    /// A single-engine router over the whole graph: the transparent
    /// pass-through every pre-shard deployment runs.
    pub fn single(graph: DiGraph, engine_config: EngineConfig) -> Router {
        let summary = summarize(&graph);
        let config = EngineConfig {
            first_session_id: 1,
            session_id_stride: 1,
            ..engine_config
        };
        let engine = Arc::new(Engine::new_global(Arc::new(graph), config));
        Router {
            engines: vec![engine.clone() as Arc<dyn EngineHandle>],
            delta: engine.delta().cloned(),
            local: vec![engine],
            remote: Vec::new(),
            assignment: None,
            strategy: None,
            summary,
            fanout: None,
            shard_rank_requests: vec![AtomicU64::new(0)],
            cross_rank_requests: AtomicU64::new(0),
            graph_mutations: AtomicU64::new(0),
        }
    }

    /// Partitions `graph` into `shards` engines under `strategy`. Each
    /// engine gets an equal slice of the cache budget, a disjoint
    /// session-id stride, and a [`DeltaShardView`] over one *shared*
    /// live [`DeltaGraph`] — a mutation batch is applied to the delta
    /// once and every engine absorbs it, so sharded answers track the
    /// live graph exactly as a single-engine deployment would.
    ///
    /// # Panics
    /// Panics if `shards < 2` (use [`Router::single`]).
    pub fn sharded(
        graph: &DiGraph,
        shards: usize,
        strategy: PartitionStrategy,
        engine_config: EngineConfig,
    ) -> Router {
        assert!(shards >= 2, "sharded router needs at least two shards");
        let summary = summarize(graph);
        let assignment = Arc::new(assign_shards(graph, shards, strategy));
        let delta = Arc::new(DeltaGraph::new(Arc::new(graph.clone())));
        let per_engine_cache = engine_config.cache_entries.div_ceil(shards).max(1);
        let local: Vec<Arc<Engine>> = (0..shards)
            .map(|k| {
                let config = EngineConfig {
                    cache_entries: per_engine_cache,
                    first_session_id: k as u64 + 1,
                    session_id_stride: shards as u64,
                    ..engine_config.clone()
                };
                let view = Arc::new(DeltaShardView::new(
                    Arc::clone(&delta),
                    Arc::clone(&assignment),
                    k as u32,
                ));
                Arc::new(Engine::new_delta_shard(view, config))
            })
            .collect();
        Router {
            shard_rank_requests: (0..local.len()).map(|_| AtomicU64::new(0)).collect(),
            engines: local
                .iter()
                .map(|e| e.clone() as Arc<dyn EngineHandle>)
                .collect(),
            local,
            remote: Vec::new(),
            assignment: Some(assignment),
            delta: Some(delta),
            strategy: Some(strategy),
            summary,
            fanout: Some(Executor::new(shards.min(MAX_FANOUT_LANES))),
            cross_rank_requests: AtomicU64::new(0),
            graph_mutations: AtomicU64::new(0),
        }
    }

    /// A router whose shard engines live in other processes: one
    /// [`RemoteEngine`] replica set per shard, with the same node→shard
    /// assignment a local sharded router would compute (the assignment is
    /// a pure function of the graph, so router and shard servers agree by
    /// construction). No shard views are materialized here — the router
    /// keeps only the global graph and the assignment vector.
    ///
    /// Every replica is probed once at boot: an unreachable replica is a
    /// warning (it may simply not be up yet — the health checker will
    /// recover it), but a replica that answers with the wrong graph shape
    /// is a hard error, because byte-identity with a local deployment
    /// would silently break.
    pub fn remote(
        graph: &DiGraph,
        strategy: PartitionStrategy,
        replica_lists: &[Vec<String>],
        rpc: RemoteConfig,
    ) -> Result<Router, String> {
        let shards = replica_lists.len();
        if shards < 2 {
            return Err(
                "remote mode needs at least two shards (one --remote-shard per shard)".into(),
            );
        }
        let summary = summarize(graph);
        let assignment = assign_shards(graph, shards, strategy);
        let remote: Vec<Arc<RemoteEngine>> = replica_lists
            .iter()
            .enumerate()
            .map(|(k, addrs)| Arc::new(RemoteEngine::new(k as u32, addrs.clone(), rpc.clone())))
            .collect();
        for engine in &remote {
            let mut reachable = 0;
            for (addr, result) in engine.probe_all() {
                match result {
                    Ok(info) => {
                        if info.global_nodes != summary.nodes as u64 {
                            return Err(format!(
                                "replica {addr} of shard {} serves a {}-node graph, \
                                 router loaded {} nodes — wrong graph or wrong cluster",
                                engine.shard(),
                                info.global_nodes,
                                summary.nodes
                            ));
                        }
                        reachable += 1;
                    }
                    Err(e) => logging::log_with(
                        logging::Level::Warn,
                        "router",
                        "replica unreachable at boot",
                        &[
                            ("shard", &engine.shard().to_string()),
                            ("replica", &addr),
                            ("error", &e),
                        ],
                    ),
                }
            }
            if reachable == 0 {
                logging::log_with(
                    logging::Level::Warn,
                    "router",
                    "no replica of shard reachable at boot; serving anyway, health checks will recover it",
                    &[("shard", &engine.shard().to_string())],
                );
            }
        }
        Ok(Router {
            shard_rank_requests: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            engines: remote
                .iter()
                .map(|e| e.clone() as Arc<dyn EngineHandle>)
                .collect(),
            local: Vec::new(),
            remote,
            assignment: Some(Arc::new(assignment)),
            delta: None,
            strategy: Some(strategy),
            summary,
            fanout: Some(Executor::new(shards.min(MAX_FANOUT_LANES))),
            cross_rank_requests: AtomicU64::new(0),
            graph_mutations: AtomicU64::new(0),
        })
    }

    /// The dispatch handles behind this router, shard order (one entry in
    /// single mode).
    pub fn handles(&self) -> &[Arc<dyn EngineHandle>] {
        &self.engines
    }

    /// The in-process engines, shard order — empty in remote mode.
    /// Persistence and store metrics iterate these.
    pub fn local_engines(&self) -> &[Arc<Engine>] {
        &self.local
    }

    /// The remote replica sets, shard order — empty in local mode.
    pub fn remote_engines(&self) -> &[Arc<RemoteEngine>] {
        &self.remote
    }

    /// True when the shard engines live in other processes.
    pub fn is_remote(&self) -> bool {
        !self.remote.is_empty()
    }

    /// Number of shards (1 in single mode).
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// True when the graph is partitioned across multiple engines.
    pub fn is_sharded(&self) -> bool {
        self.assignment.is_some()
    }

    /// The partitioning strategy, in sharded mode.
    pub fn strategy(&self) -> Option<PartitionStrategy> {
        self.strategy
    }

    /// Current graph shape: live (from the shared delta) for in-process
    /// deployments, the boot-time snapshot in remote mode.
    pub fn summary(&self) -> GraphSummary {
        match &self.delta {
            Some(delta) => GraphSummary {
                nodes: delta.num_nodes(),
                edges: delta.num_edges(),
                dangling: delta.num_dangling(),
            },
            None => self.summary,
        }
    }

    /// The global graph at its current epoch, in single mode (shard
    /// engines hold only views).
    pub fn graph(&self) -> Option<Arc<DiGraph>> {
        self.local.first().and_then(|e| e.graph())
    }

    /// The current graph epoch: read off the shared delta when there is
    /// one, otherwise (remote mode) asked of shard 0's replica set.
    pub fn graph_epoch(&self) -> u64 {
        match &self.delta {
            Some(delta) => delta.epoch(),
            None => self.engines.first().map(|e| e.graph_epoch()).unwrap_or(0),
        }
    }

    /// Mutation batches accepted since boot.
    pub fn graph_mutations(&self) -> u64 {
        self.graph_mutations.load(Ordering::Relaxed)
    }

    /// Result-cache counters summed across every engine.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for engine in &self.engines {
            let s = engine.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.invalidations += s.invalidations;
            total.stale_evictions += s.stale_evictions;
            total.entries += s.entries;
            total.capacity += s.capacity;
        }
        total
    }

    /// Open sessions summed across every engine.
    pub fn session_count(&self) -> usize {
        self.engines.iter().map(|e| e.session_count()).sum()
    }

    /// WAL append failures summed across every engine.
    pub fn wal_errors(&self) -> u64 {
        self.engines.iter().map(|e| e.wal_errors()).sum()
    }

    /// True when at least one in-process engine has a durable store open
    /// (remote engines persist on their own hosts).
    pub fn has_store(&self) -> bool {
        self.local.iter().any(|e| e.store().is_some())
    }

    /// `/rank` sub-requests answered by shard `k`.
    pub fn shard_rank_requests(&self, shard: usize) -> u64 {
        self.shard_rank_requests[shard].load(Ordering::Relaxed)
    }

    /// `/rank` requests whose membership spanned more than one shard.
    pub fn cross_rank_requests(&self) -> u64 {
        self.cross_rank_requests.load(Ordering::Relaxed)
    }

    /// Ranks a member list, routing to the owning shard or fanning out
    /// and merging when the membership spans shards.
    pub fn rank(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<RoutedRank, EngineError> {
        let Some(assignment) = &self.assignment else {
            self.shard_rank_requests[0].fetch_add(1, Ordering::Relaxed);
            let outcome = self.engines[0].rank(params, obs)?;
            return Ok(RoutedRank { outcome, shards: 1 });
        };

        let _dispatch = obs.span("router.dispatch");
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.engines.len()];
        for &m in &params.members {
            per_shard[assignment[m as usize] as usize].push(m);
        }
        let touched: Vec<usize> = (0..per_shard.len())
            .filter(|&s| !per_shard[s].is_empty())
            .collect();

        if let [only] = touched[..] {
            self.shard_rank_requests[only].fetch_add(1, Ordering::Relaxed);
            let outcome = self.engines[only].rank(params, obs)?;
            return Ok(RoutedRank { outcome, shards: 1 });
        }
        // Cross-shard merging needs only global aggregates per sub-solve,
        // which ApproxRank and its estimators all satisfy; the exact
        // baselines need global state and cannot span.
        if !matches!(
            params.algorithm,
            Algorithm::ApproxRank | Algorithm::Mc | Algorithm::Push
        ) {
            return Err(EngineError::BadRequest(format!(
                "algorithm {:?} cannot span shards (approxrank, mc, and push only)",
                params.algorithm.name()
            )));
        }
        self.cross_rank_requests.fetch_add(1, Ordering::Relaxed);
        for &s in &touched {
            self.shard_rank_requests[s].fetch_add(1, Ordering::Relaxed);
        }

        // One sub-solve per touched shard, in parallel on the router's own
        // pool. Slots are per-index, so tasks never contend. Each task
        // opens a `router.shard{k}` span on its fan-out thread — the
        // request recorder parents the first span of a foreign thread to
        // the trace root, so the engine's spans nest under it. The
        // caller's trace id is re-entered on each lane so fan-out log
        // lines — and remote sub-calls, which stamp it onto the wire —
        // stay attributable.
        let trace_id = logging::current_trace_id();
        let slots: Vec<Mutex<Option<Result<RankOutcome, EngineError>>>> =
            touched.iter().map(|_| Mutex::new(None)).collect();
        let fanout = self.fanout.as_ref().expect("sharded router has a pool");
        let queue_wait_ns = fanout.run_chunks_timed(touched.len(), |i| {
            let _trace = trace_id.as_deref().map(logging::trace_scope);
            let s = touched[i];
            let _shard_span = obs.span(&format!("router.shard{s}"));
            let solve = Stopwatch::start(obs);
            let sub = RankRequest {
                members: per_shard[s].clone(),
                ..params.clone()
            };
            let answer = self.engines[s].rank(&sub, obs);
            obs.counter(&format!("shard_solve_us_{s}"), solve.elapsed_ns() / 1_000);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(answer);
        });
        if queue_wait_ns > 0 {
            obs.counter("exec_queue_wait_us", queue_wait_ns / 1_000);
        }
        let _merge = obs.span("router.merge");
        let mut outcomes = Vec::with_capacity(touched.len());
        for slot in &slots {
            let answer = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("fan-out slot filled");
            outcomes.push(answer?);
        }
        Ok(RoutedRank {
            outcome: merge(&outcomes),
            shards: touched.len(),
        })
    }

    /// Batch-scheduler counters summed across every engine (remote
    /// handles report zeros — each shard server exports its own).
    pub fn batch_stats(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for engine in &self.engines {
            let s = engine.batch_stats();
            total.rank_leaders += s.rank_leaders;
            total.rank_coalesced += s.rank_coalesced;
            total.keyword_solves += s.keyword_solves;
            total.keyword_columns += s.keyword_columns;
            total.keyword_coalesced += s.keyword_coalesced;
        }
        total
    }

    /// Ranks a member list under a keyword (base-set) personalization,
    /// with the same routing shape as [`Router::rank`]: shard-resident
    /// memberships pass straight through (bit-identical to single-shard),
    /// cross-shard memberships fan out one sub-solve per touched shard —
    /// each solving its resident members against the **full** base set,
    /// which stays global exactly like the Λ aggregates — and merge as a
    /// uniform mixture. The engines share one Λ-collapse among concurrent
    /// keyword queries underneath; the router never sees that.
    pub fn keyword(
        &self,
        params: &KeywordRequest,
        obs: &dyn Observer,
    ) -> Result<RoutedRank, EngineError> {
        let Some(assignment) = &self.assignment else {
            self.shard_rank_requests[0].fetch_add(1, Ordering::Relaxed);
            let result = self.engines[0].keyword_rank(params, obs)?;
            return Ok(RoutedRank {
                outcome: RankOutcome {
                    result,
                    cached: false,
                },
                shards: 1,
            });
        };

        let _dispatch = obs.span("router.dispatch");
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.engines.len()];
        for &m in &params.members {
            per_shard[assignment[m as usize] as usize].push(m);
        }
        let touched: Vec<usize> = (0..per_shard.len())
            .filter(|&s| !per_shard[s].is_empty())
            .collect();

        if let [only] = touched[..] {
            self.shard_rank_requests[only].fetch_add(1, Ordering::Relaxed);
            let result = self.engines[only].keyword_rank(params, obs)?;
            return Ok(RoutedRank {
                outcome: RankOutcome {
                    result,
                    cached: false,
                },
                shards: 1,
            });
        }
        self.cross_rank_requests.fetch_add(1, Ordering::Relaxed);
        for &s in &touched {
            self.shard_rank_requests[s].fetch_add(1, Ordering::Relaxed);
        }
        let trace_id = logging::current_trace_id();
        let slots: Vec<Mutex<Option<Result<CachedResult, EngineError>>>> =
            touched.iter().map(|_| Mutex::new(None)).collect();
        let fanout = self.fanout.as_ref().expect("sharded router has a pool");
        let queue_wait_ns = fanout.run_chunks_timed(touched.len(), |i| {
            let _trace = trace_id.as_deref().map(logging::trace_scope);
            let s = touched[i];
            let _shard_span = obs.span(&format!("router.shard{s}"));
            let solve = Stopwatch::start(obs);
            let sub = KeywordRequest {
                members: per_shard[s].clone(),
                ..params.clone()
            };
            let answer = self.engines[s].keyword_rank(&sub, obs);
            obs.counter(&format!("shard_solve_us_{s}"), solve.elapsed_ns() / 1_000);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(answer);
        });
        if queue_wait_ns > 0 {
            obs.counter("exec_queue_wait_us", queue_wait_ns / 1_000);
        }
        let _merge = obs.span("router.merge");
        let mut outcomes = Vec::with_capacity(touched.len());
        for slot in &slots {
            let answer = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("fan-out slot filled");
            outcomes.push(RankOutcome {
                result: answer?,
                cached: false,
            });
        }
        Ok(RoutedRank {
            outcome: merge(&outcomes),
            shards: touched.len(),
        })
    }

    /// Applies one edge-mutation batch to the live graph, whatever the
    /// deployment shape:
    ///
    /// * **single** — straight through to the one engine.
    /// * **local sharded** — the batch is applied to the shared delta
    ///   once, then every engine absorbs the summary (WAL-logs it and
    ///   repairs its intersecting sessions). `sessions_repaired` is the
    ///   fleet total.
    /// * **remote** — fanned out to *every* shard's replica set (each
    ///   shard server holds its own copy of the live graph). Any shard
    ///   failing to apply is an error: a partial broadcast means the
    ///   cluster diverged, which the operator must reconcile before
    ///   trusting cross-shard answers (see the operations handbook).
    ///
    /// Node inserts (edge endpoints at or beyond the current page count)
    /// are accepted only in single mode — the shard assignment is fixed
    /// at boot, so a page appended later would be owned by nobody.
    pub fn mutate_graph(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        obs: &dyn Observer,
    ) -> Result<MutationOutcome, EngineError> {
        let _span = obs.span("router.mutate");
        if self.assignment.is_some() {
            let n = self.summary().nodes as u64;
            if let Some(&(u, v)) = insert
                .iter()
                .find(|&&(u, v)| u as u64 >= n || v as u64 >= n)
            {
                return Err(EngineError::BadRequest(format!(
                    "edge ({u}, {v}) references a page beyond the current {n}-node graph; \
                     node inserts require a single-shard deployment"
                )));
            }
        }
        let outcome = if self.assignment.is_none() {
            self.engines[0].mutate_graph(insert, delete, obs)?
        } else if let Some(delta) = &self.delta {
            let summary = delta
                .apply(insert, delete)
                .map_err(|e| EngineError::BadRequest(e.0))?;
            let mut outcome = MutationOutcome {
                epoch: summary.epoch,
                inserted: summary.inserted,
                deleted: summary.deleted,
                touched_pages: summary.touched.len(),
                structural: summary.structural,
                sessions_repaired: 0,
            };
            for engine in &self.local {
                outcome.sessions_repaired += engine
                    .absorb_mutation(&summary, insert, delete, obs)
                    .sessions_repaired;
            }
            outcome
        } else {
            // Remote: every shard must apply. Attempt all of them even
            // after a failure so healthy shards are not left behind by
            // iteration order, then surface the first error.
            let mut merged: Option<MutationOutcome> = None;
            let mut first_err: Option<EngineError> = None;
            for engine in &self.engines {
                match engine.mutate_graph(insert, delete, obs) {
                    Ok(o) => match &mut merged {
                        None => merged = Some(o),
                        Some(m) => {
                            m.epoch = m.epoch.max(o.epoch);
                            m.structural |= o.structural;
                            m.sessions_repaired += o.sessions_repaired;
                        }
                    },
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            merged.ok_or_else(|| EngineError::Unavailable("no shard engines configured".into()))?
        };
        self.graph_mutations.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// The engine owning session `id` under the stride scheme; `None` for
    /// id 0 (never issued).
    fn engine_for_session(&self, id: u64) -> Option<&Arc<dyn EngineHandle>> {
        if id == 0 {
            return None;
        }
        let idx = ((id - 1) % self.engines.len() as u64) as usize;
        Some(&self.engines[idx])
    }

    /// Opens a session on the shard owning every member. Memberships
    /// spanning shards are refused — a warm session is one solver, and a
    /// solver lives on one engine.
    pub fn session_create(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<(u64, CachedResult), EngineError> {
        let members = &params.members;
        let engine = match &self.assignment {
            None => &self.engines[0],
            Some(assignment) => {
                let shard = assignment[members[0] as usize];
                if let Some(&stray) = members.iter().find(|&&m| assignment[m as usize] != shard) {
                    return Err(EngineError::BadRequest(format!(
                        "session members span shards ({} is on shard {}, {stray} on shard {}); \
                         a session must fit one shard",
                        members[0], shard, assignment[stray as usize]
                    )));
                }
                &self.engines[shard as usize]
            }
        };
        engine.session_create(params, obs)
    }

    /// Routes a session update to the owning engine.
    pub fn session_update(
        &self,
        id: u64,
        add: &[u32],
        remove: &[u32],
        obs: &dyn Observer,
    ) -> Result<(Vec<u32>, CachedResult), EngineError> {
        match self.engine_for_session(id) {
            Some(engine) => engine.session_update(id, add, remove, obs),
            None => Err(EngineError::NoSuchSession(id)),
        }
    }

    /// A read-only snapshot of session `id`, from its owning engine.
    /// `Ok(None)` means the session does not exist; `Err` means the
    /// owning engine could not be asked (remote replicas down).
    pub fn session_view(&self, id: u64) -> Result<Option<SessionView>, EngineError> {
        match self.engine_for_session(id) {
            Some(engine) => engine.session_view(id),
            None => Ok(None),
        }
    }

    /// Closes session `id`; `Ok(false)` when it did not exist.
    pub fn session_delete(&self, id: u64, obs: &dyn Observer) -> Result<bool, EngineError> {
        match self.engine_for_session(id) {
            Some(engine) => engine.session_delete(id, obs),
            None => Ok(false),
        }
    }
}

/// Merges per-shard ApproxRank distributions as a uniform mixture: each
/// shard's sub-solve is a probability vector over its resident members
/// plus the same global Λ, so `score/k` (and `λ = Σλ_s/k`) is again a
/// distribution over the union. Iterations report the slowest shard;
/// `converged`/`cached` hold only if every shard's sub-answer did.
/// Estimator sub-answers merge their `estimate` blocks too: walks sum,
/// and the mixture's residual is the mean of the per-shard residuals
/// (`‖(1/k)Σπ_s − (1/k)Σp̂_s‖₁ ≤ (1/k)Σ r_s`).
fn merge(outcomes: &[RankOutcome]) -> RankOutcome {
    let k = outcomes.len() as f64;
    let mut scores: Vec<(u32, f64)> = outcomes
        .iter()
        .flat_map(|o| o.result.scores.iter().map(|&(p, s)| (p, s / k)))
        .collect();
    scores.sort_by_key(|&(p, _)| p);
    let lambda = outcomes
        .iter()
        .map(|o| o.result.lambda.unwrap_or(0.0))
        .sum::<f64>()
        / k;
    let estimates: Vec<Estimate> = outcomes.iter().filter_map(|o| o.result.estimate).collect();
    let estimate = (estimates.len() == outcomes.len() && !estimates.is_empty()).then(|| Estimate {
        walks: estimates.iter().map(|e| e.walks).sum(),
        epsilon: estimates[0].epsilon,
        residual: estimates.iter().map(|e| e.residual).sum::<f64>() / k,
    });
    RankOutcome {
        result: CachedResult {
            scores: Arc::new(scores),
            lambda: Some(lambda),
            iterations: outcomes
                .iter()
                .map(|o| o.result.iterations)
                .max()
                .unwrap_or(0),
            converged: outcomes.iter().all(|o| o.result.converged),
            estimate,
        },
        cached: outcomes.iter().all(|o| o.cached),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_engine::EstimatorOptions;
    use approxrank_trace::null;

    fn ring(n: u32) -> DiGraph {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i * 13 + 7) % n)])
            .collect();
        DiGraph::from_edges(n as usize, &edges)
    }

    fn request(members: Vec<u32>) -> RankRequest {
        RankRequest {
            members,
            algorithm: Algorithm::ApproxRank,
            damping: 0.85,
            tolerance: 1e-8,
            estimator: EstimatorOptions::default(),
        }
    }

    fn routers(n: u32) -> (Router, Router) {
        let g = ring(n);
        let single = Router::single(g.clone(), EngineConfig::default());
        let sharded = Router::sharded(&g, 2, PartitionStrategy::Range, EngineConfig::default());
        (single, sharded)
    }

    #[test]
    fn shard_resident_rank_is_bit_identical_to_single() {
        let (single, sharded) = routers(200);
        // Range over 200 nodes: shard 0 owns 0..100.
        let req = request((10..40).collect());
        let a = single.rank(&req, null()).unwrap();
        let b = sharded.rank(&req, null()).unwrap();
        assert_eq!((a.shards, b.shards), (1, 1));
        for ((pa, sa), (pb, sb)) in a
            .outcome
            .result
            .scores
            .iter()
            .zip(b.outcome.result.scores.iter())
        {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
        }
        assert_eq!(
            a.outcome.result.lambda.unwrap().to_bits(),
            b.outcome.result.lambda.unwrap().to_bits()
        );
        assert_eq!(sharded.shard_rank_requests(0), 1);
        assert_eq!(sharded.shard_rank_requests(1), 0);
        assert_eq!(sharded.cross_rank_requests(), 0);
    }

    #[test]
    fn cross_shard_rank_merges_a_distribution() {
        let (_, sharded) = routers(200);
        let members: Vec<u32> = (90..110).collect(); // straddles the 100 boundary
        let routed = sharded.rank(&request(members.clone()), null()).unwrap();
        assert_eq!(routed.shards, 2);
        assert!(!routed.outcome.cached);
        let pages: Vec<u32> = routed
            .outcome
            .result
            .scores
            .iter()
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(pages, members, "merged scores cover the union in order");
        let mass: f64 = routed
            .outcome
            .result
            .scores
            .iter()
            .map(|&(_, s)| s)
            .sum::<f64>()
            + routed.outcome.result.lambda.unwrap();
        assert!((mass - 1.0).abs() < 1e-9, "mixture mass {mass}");
        assert_eq!(sharded.cross_rank_requests(), 1);
        assert_eq!(sharded.shard_rank_requests(0), 1);
        assert_eq!(sharded.shard_rank_requests(1), 1);
        // Same request again: both sub-solves hit their shard caches.
        let again = sharded.rank(&request(members), null()).unwrap();
        assert!(again.outcome.cached);
        assert_eq!(again.outcome.result.scores, routed.outcome.result.scores);
    }

    #[test]
    fn cross_shard_rejects_global_algorithms() {
        let (_, sharded) = routers(200);
        let mut req = request(vec![10, 150]);
        req.algorithm = Algorithm::IdealRank;
        let err = sharded.rank(&req, null()).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("span")));
    }

    #[test]
    fn cross_shard_mc_merges_estimates() {
        let (_, sharded) = routers(200);
        let mut req = request((90..110).collect()); // straddles the 100 boundary
        req.algorithm = Algorithm::Mc;
        let routed = sharded.rank(&req, null()).unwrap();
        assert_eq!(routed.shards, 2);
        let mass: f64 = routed
            .outcome
            .result
            .scores
            .iter()
            .map(|&(_, s)| s)
            .sum::<f64>()
            + routed.outcome.result.lambda.unwrap();
        assert!((mass - 1.0).abs() < 1e-9, "mixture mass {mass}");
        let est = routed
            .outcome
            .result
            .estimate
            .expect("merged mc answer keeps its estimate block");
        // Each shard walks its own 10 resident members with the default
        // per-source budget; the merged block sums the shard totals.
        let per_source = u64::from(req.estimator.walks);
        assert_eq!(est.walks, 20 * per_source);
        assert_eq!(est.epsilon, req.estimator.epsilon);
        assert!(est.residual > 0.0);
    }

    fn keyword_request(members: Vec<u32>) -> KeywordRequest {
        KeywordRequest {
            members,
            base: vec![0, 50, 150],
            damping: 0.85,
            tolerance: 1e-8,
        }
    }

    #[test]
    fn shard_resident_keyword_is_bit_identical_to_single() {
        let (single, sharded) = routers(200);
        let req = keyword_request((10..40).collect());
        let a = single.keyword(&req, null()).unwrap();
        let b = sharded.keyword(&req, null()).unwrap();
        assert_eq!((a.shards, b.shards), (1, 1));
        for ((pa, sa), (pb, sb)) in a
            .outcome
            .result
            .scores
            .iter()
            .zip(b.outcome.result.scores.iter())
        {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
        }
        assert_eq!(sharded.batch_stats().keyword_solves, 1);
    }

    #[test]
    fn cross_shard_keyword_merges_a_distribution() {
        let (_, sharded) = routers(200);
        let members: Vec<u32> = (90..110).collect(); // straddles the 100 boundary
        let routed = sharded
            .keyword(&keyword_request(members.clone()), null())
            .unwrap();
        assert_eq!(routed.shards, 2);
        let pages: Vec<u32> = routed
            .outcome
            .result
            .scores
            .iter()
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(pages, members, "merged scores cover the union in order");
        let mass: f64 = routed
            .outcome
            .result
            .scores
            .iter()
            .map(|&(_, s)| s)
            .sum::<f64>()
            + routed.outcome.result.lambda.unwrap();
        assert!((mass - 1.0).abs() < 1e-9, "mixture mass {mass}");
        assert_eq!(sharded.cross_rank_requests(), 1);
    }

    #[test]
    fn sessions_route_by_stride_and_stay_on_one_shard() {
        let (_, sharded) = routers(200);
        let (id0, _) = sharded
            .session_create(&request(vec![5, 6, 7]), null())
            .unwrap();
        let (id1, _) = sharded
            .session_create(&request(vec![150, 151]), null())
            .unwrap();
        assert_eq!((id0, id1), (1, 2)); // shard 0 strides 1,3,…; shard 1 strides 2,4,…
        assert!(sharded.session_view(id0).unwrap().is_some());
        assert!(sharded.session_view(id1).unwrap().is_some());
        let err = sharded
            .session_create(&request(vec![99, 100]), null())
            .unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("span")));
        let (members, _) = sharded.session_update(id1, &[152], &[], null()).unwrap();
        assert_eq!(members, vec![150, 151, 152]);
        // Adding a foreign page routes to shard 1, which refuses it.
        let err = sharded.session_update(id1, &[5], &[], null()).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("not on shard")));
        assert!(sharded.session_delete(id0, null()).unwrap());
        assert!(!sharded.session_delete(0, null()).unwrap());
        assert_eq!(sharded.session_count(), 1);
    }
}
