//! `approxrank-engine`: the reusable per-graph ranking engine.
//!
//! Everything a ranking service keeps *per graph* — the cold-solve result
//! cache, the warm [`approxrank_core::SubgraphSession`] table, lazily
//! computed global PageRank scores for IdealRank, and the durable-store
//! glue — extracted behind one type, [`Engine`], so the HTTP service, the
//! CLI, and the bench harness all drive the same object instead of each
//! reimplementing the stack.
//!
//! An engine runs over one of three backends:
//!
//! * **Global** — the whole graph behind a live
//!   [`approxrank_delta::DeltaGraph`] overlay. Every algorithm of the
//!   paper's evaluation is available, answers are bit-identical to the
//!   offline `subrank rank` CLI, and [`Engine::mutate_graph`] applies
//!   edge batches with incremental rank maintenance.
//! * **Shard** — one static [`approxrank_graph::Shard`] of a partitioned
//!   graph. Only ApproxRank (plus its estimators) is available (the
//!   Λ-collapse is the one algorithm whose global inputs reduce to two
//!   scalars, see [`approxrank_core::GlobalAggregates`]), and solves for
//!   shard-resident subgraphs are bit-identical to the global backend —
//!   the property the serving layer's shard router builds on.
//! * **DeltaShard** — one shard view over a *shared* live `DeltaGraph`:
//!   the same restriction as Shard, but a mutation applied to the shared
//!   delta propagates to every engine built over it.
//!
//! Session ids are allocated on a stride so `S` engines behind one router
//! hand out disjoint ids: engine `k` of `S` allocates `k+1`, `k+1+S`,
//! `k+1+2S`, … and a router recovers the owning engine as `(id-1) % S`.
//! The single-engine default (`first = 1`, `stride = 1`) degenerates to
//! the classic `1, 2, 3, …`.

#![deny(missing_docs)]

pub mod algorithm;
pub mod batch;
pub mod cache;
mod engine;
mod handle;
pub mod lru;
mod persist;

pub use algorithm::Algorithm;
pub use approxrank_core::Estimate;
pub use approxrank_delta::{DeltaGraph, DeltaShardView, MutationSummary};
pub use batch::BatchStats;
pub use cache::{cache_key, estimator_bits, CacheKey, CacheStats, CachedResult, ShardedCache};
pub use engine::{
    Engine, EngineConfig, EngineError, EngineSession, EstimatorOptions, KeywordRequest,
    MutationOutcome, RankOutcome, RankRequest, SessionSolver, SessionView,
};
pub use handle::EngineHandle;
pub use persist::RecoverySummary;
