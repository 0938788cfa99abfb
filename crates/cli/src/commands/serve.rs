//! `subrank serve` — run the HTTP ranking service, a remote-routing
//! HTTP tier, or a single RPC shard server.
//!
//! The one subcommand covers all three deployment roles:
//!
//! * default — in-process engines behind HTTP (optionally `--shards N`);
//! * `--remote-shard` — the same HTTP tier, but each shard's engine
//!   lives in another process and is reached over the binary RPC
//!   protocol (repeat the flag once per shard, listing replicas);
//! * `--shard-server K` — no HTTP at all: serve shard `K` of the
//!   `--shards` partitioning over RPC for a remote router to call.

use std::sync::Arc;
use std::time::Duration;

use approxrank_engine::{DeltaGraph, DeltaShardView, Engine, EngineConfig};
use approxrank_graph::assign_shards;
use approxrank_rpc::{RemoteConfig, ShardServer};
use approxrank_serve::{on_shutdown_signal, ServeConfig, Server};
use approxrank_trace::logging;

use crate::args::ServeArgs;
use crate::commands::load_graph;

/// Translates the CLI flags into a [`ServeConfig`].
pub fn config_from(args: &ServeArgs) -> ServeConfig {
    ServeConfig {
        addr: args.addr.clone(),
        threads: args.threads.max(1),
        cache_entries: args.cache_entries,
        max_body: args.max_body,
        request_timeout: Duration::from_millis(args.request_timeout_ms),
        accept_queue: ServeConfig::default().accept_queue,
        data_dir: args.data_dir.as_ref().map(std::path::PathBuf::from),
        fsync: args.fsync,
        snapshot_interval: Duration::from_millis(args.snapshot_interval_ms),
        shards: args.shards.max(1),
        partition: args.partition,
        slow_ms: args.slow_ms,
        trace_ring: ServeConfig::default().trace_ring,
        remote_shards: args.remote_shards.clone(),
        rpc: rpc_config_from(args),
        tenant_quota: args.tenant_quota,
        tenant_queue: args.tenant_queue,
        labels: args.labels.as_ref().map(std::path::PathBuf::from),
    }
}

/// Translates the `--rpc-*` flags into a [`RemoteConfig`].
pub fn rpc_config_from(args: &ServeArgs) -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_millis(args.rpc_connect_timeout_ms),
        io_timeout: Duration::from_millis(args.rpc_io_timeout_ms),
        attempts: args.rpc_attempts,
        backoff_base: Duration::from_millis(args.rpc_backoff_ms),
        health_interval: Duration::from_millis(args.rpc_health_interval_ms),
    }
}

/// Emits a startup banner line: structured (JSONL to stderr, like every
/// other log line) so smoke scripts and log shippers see one format.
fn banner(msg: &str) {
    logging::log(logging::Level::Info, "cli", msg);
}

/// Runs the requested serving role until `SIGINT`/`SIGTERM`; returns a
/// drain summary.
pub fn run(args: &ServeArgs) -> Result<String, String> {
    if let Some(level) = args.log_level {
        logging::set_level(level);
    }
    if let Some(k) = args.shard_server {
        return run_shard_server(args, k);
    }
    let graph = load_graph(&args.graph)?;
    let nodes = graph.num_nodes();
    let edges = graph.num_edges();
    let server = Server::bind(graph, config_from(args))
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    let addr = server.local_addr();
    approxrank_serve::shutdown_on_signal(server.handle());
    // The ready line goes to stderr so stdout stays reserved for the
    // final summary (and scripts can wait on the port instead).
    if let Some(dir) = &args.data_dir {
        // Recovery already ran inside `Server::bind`.
        banner(&format!(
            "subrank serve: durable sessions in {dir} ({} recovered)",
            server.state().session_count()
        ));
    }
    banner(&format!(
        "subrank serve: listening on {addr} ({nodes} nodes, {edges} edges, {} worker lanes)",
        args.threads.max(1)
    ));
    if !args.remote_shards.is_empty() {
        banner(&format!(
            "subrank serve: routing to {} remote shards ({} partitioning)",
            args.remote_shards.len(),
            args.partition.name()
        ));
    } else if args.shards > 1 {
        banner(&format!(
            "subrank serve: {} shards ({} partitioning)",
            args.shards,
            args.partition.name()
        ));
    }
    if let Some(slow_ms) = args.slow_ms {
        banner(&format!(
            "subrank serve: slow-query capture at >= {slow_ms} ms"
        ));
    }
    let summary = server.serve();
    Ok(format!(
        "served {} requests over {} connections\n",
        summary.requests, summary.connections
    ))
}

/// Boots shard `k` of the `--shards` partitioning and serves it over
/// RPC until a signal. The engine is configured exactly as a local
/// sharded router would configure engine `k` — same partitioning, same
/// session-id stride — so a remote deployment answers byte-identically
/// to a local one.
fn run_shard_server(args: &ServeArgs, k: u32) -> Result<String, String> {
    let graph = load_graph(&args.graph)?;
    let nodes = graph.num_nodes();
    let shards = args.shards;
    let assignment = Arc::new(assign_shards(&graph, shards, args.partition));
    let resident = assignment.iter().filter(|&&s| s == k).count();
    // Each shard server layers its own DeltaGraph over the full base
    // graph so MUTATE broadcasts from the router land in live overlays
    // on every process (see `Router::mutate_graph`).
    let delta = Arc::new(DeltaGraph::new(Arc::new(graph)));
    let view = Arc::new(DeltaShardView::new(Arc::clone(&delta), assignment, k));
    let config = EngineConfig {
        cache_entries: args.cache_entries,
        fsync: args.fsync,
        first_session_id: k as u64 + 1,
        session_id_stride: shards as u64,
    };
    let engine = Arc::new(Engine::new_delta_shard(view, config));
    if let Some(dir) = &args.data_dir {
        let summary = engine
            .open_store(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open store in {dir}: {e}"))?;
        banner(&format!(
            "subrank shard-server: durable sessions in {dir} ({} recovered)",
            summary.sessions
        ));
    }
    let server = ShardServer::bind(
        &args.addr,
        engine,
        Duration::from_millis(args.snapshot_interval_ms),
    )
    .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let handle = server.handle();
    on_shutdown_signal(move || handle.shutdown());
    banner(&format!(
        "subrank shard-server: shard {k}/{shards} ({} partitioning) listening on {addr} \
         ({resident} resident of {nodes} nodes)",
        args.partition.name()
    ));
    server
        .serve()
        .map_err(|e| format!("shard server failed: {e}"))?;
    Ok(format!(
        "shard {k} drained after {} sessions\n",
        server.engine().session_count()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args() -> ServeArgs {
        ServeArgs {
            graph: "g.edges".into(),
            addr: "127.0.0.1:0".into(),
            threads: 3,
            cache_entries: 128,
            max_body: 2048,
            request_timeout_ms: 750,
            data_dir: Some("/tmp/subrank-data".into()),
            fsync: approxrank_serve::FsyncPolicy::Always,
            snapshot_interval_ms: 12_000,
            shards: 2,
            partition: approxrank_graph::PartitionStrategy::Hash,
            slow_ms: Some(25),
            shard_server: None,
            remote_shards: Vec::new(),
            log_level: None,
            rpc_connect_timeout_ms: 900,
            rpc_io_timeout_ms: 8_000,
            rpc_attempts: 4,
            rpc_backoff_ms: 30,
            rpc_health_interval_ms: 700,
            tenant_quota: 3,
            tenant_queue: 9,
            labels: Some("pages.txt".into()),
        }
    }

    #[test]
    fn flags_map_onto_config() {
        let c = config_from(&args());
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.threads, 3);
        assert_eq!(c.cache_entries, 128);
        assert_eq!(c.max_body, 2048);
        assert_eq!(c.request_timeout, Duration::from_millis(750));
        assert_eq!(
            c.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/subrank-data"))
        );
        assert_eq!(c.fsync, approxrank_serve::FsyncPolicy::Always);
        assert_eq!(c.snapshot_interval, Duration::from_millis(12_000));
        assert_eq!(c.shards, 2);
        assert_eq!(c.partition, approxrank_graph::PartitionStrategy::Hash);
        assert_eq!(c.slow_ms, Some(25));
        assert_eq!(c.trace_ring, ServeConfig::default().trace_ring);
        assert!(c.remote_shards.is_empty());
        assert_eq!(c.tenant_quota, 3);
        assert_eq!(c.tenant_queue, 9);
        assert_eq!(c.labels.as_deref(), Some(std::path::Path::new("pages.txt")));
    }

    #[test]
    fn rpc_flags_map_onto_remote_config() {
        let mut a = args();
        a.remote_shards = vec![vec!["h:1".into()], vec!["h:2".into()]];
        a.data_dir = None;
        let c = config_from(&a);
        assert_eq!(c.remote_shards, a.remote_shards);
        assert_eq!(c.rpc.connect_timeout, Duration::from_millis(900));
        assert_eq!(c.rpc.io_timeout, Duration::from_millis(8_000));
        assert_eq!(c.rpc.attempts, 4);
        assert_eq!(c.rpc.backoff_base, Duration::from_millis(30));
        assert_eq!(c.rpc.health_interval, Duration::from_millis(700));
    }

    #[test]
    fn missing_graph_is_an_error_not_a_panic() {
        let err = run(&ServeArgs {
            graph: "/nonexistent/graph.edges".into(),
            ..args()
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/graph.edges"), "{err}");
    }

    #[test]
    fn shard_server_missing_graph_is_an_error() {
        let err = run(&ServeArgs {
            graph: "/nonexistent/graph.edges".into(),
            shard_server: Some(0),
            ..args()
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/graph.edges"), "{err}");
    }
}
