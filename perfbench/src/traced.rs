//! The traced run, which gives the per-layer numbers.
//!
//! 1. The spawned server at the fixed rate, untraced, as the baseline
//!    for the tracing overhead and the client's own cost.
//! 2. An in-process `Server::bind` with the same configuration, driven
//!    by the same client at the same rate; its counters are read through
//!    public calls on `Server::state()`.
//! 3. A single-threaded replay of a seeded sample of the workload's
//!    requests through the public functions in the order the server
//!    calls them, each call wrapped in a benchmark span: pass A times the
//!    parse, the engine calls and the kernel layers beneath a miss;
//!    pass B reads, runs the whole handler and writes, and separates the
//!    handler's own time from the engine spans it opens. Spans are kept
//!    in memory and written out at the end.

use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use approxrank_core::ApproxRank;
use approxrank_engine::{Algorithm, DeltaGraph, EstimatorOptions, KeywordRequest, RankRequest};
use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_serve::http::{read_request, write_response};
use approxrank_serve::json::{obj, parse, Json};
use approxrank_serve::{handlers, AppState, ServeConfig, Server};
use approxrank_trace::{request::layer_breakdown, Event, Observer};

use crate::bench::{self, Env, Tally};
use crate::check;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::Sample;
use crate::workload::{Op, Stream, Workload, TOLERANCE};

/// Requests the replay draws per workload.
const REPLAY: usize = 200;

/// One benchmark span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    pub req: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A per-span quantity: 1 for a cache hit, bytes written, …
    pub value: f64,
}

impl SpanRec {
    fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

struct Inner {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    req: u32,
}

/// Records benchmark spans, and — as an [`Observer`] — the spans the
/// library opens beneath them on the replay thread.
pub struct Tracer {
    t0: Instant,
    owner: ThreadId,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            owner: std::thread::current().id(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                req: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer lock poisoned by a panic")
    }

    pub fn request(&self, req: u32) {
        self.lock().req = req;
    }

    pub fn open(&self, name: &str) -> usize {
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        let req = inner.req;
        inner.spans.push(SpanRec {
            name: name.to_string(),
            req,
            parent,
            start_ns: now,
            end_ns: now,
            value: 0.0,
        });
        inner.stack.push(id);
        id
    }

    pub fn close(&self, id: usize) {
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        inner.spans[id].end_ns = now;
        while let Some(top) = inner.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    pub fn set(&self, id: usize, value: f64) {
        self.lock().spans[id].value = value;
    }

    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }
}

impl Observer for Tracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        if std::thread::current().id() != self.owner {
            return;
        }
        match event {
            Event::SpanStart { name } => {
                self.open(&name);
            }
            Event::SpanEnd { .. } => {
                let top = self.lock().stack.last().copied();
                if let Some(top) = top {
                    self.close(top);
                }
            }
            _ => {}
        }
    }
}

/// The spans of one replay, reduced.
pub struct Reduced {
    spans: Vec<SpanRec>,
    children: Vec<Vec<usize>>,
}

impl Reduced {
    pub fn new(spans: Vec<SpanRec>) -> Reduced {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        Reduced { spans, children }
    }

    fn named(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    pub fn mean_us(&self, name: &str, pred: impl Fn(&SpanRec) -> bool) -> f64 {
        mean(
            self.named(name)
                .filter(|&i| pred(&self.spans[i]))
                .map(|i| self.spans[i].dur_us()),
        )
    }

    pub fn mean_value(&self, name: &str) -> f64 {
        mean(self.named(name).map(|i| self.spans[i].value))
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed duration of the descendants of `id` that `pred` selects,
    /// outermost only.
    fn beneath(&self, id: usize, pred: &dyn Fn(&str) -> bool) -> f64 {
        self.children[id]
            .iter()
            .map(|&c| {
                if pred(&self.spans[c].name) {
                    self.spans[c].dur_us()
                } else {
                    self.beneath(c, pred)
                }
            })
            .sum()
    }

    /// Per request, the duration of its `name` span less the outermost
    /// descendants `pred` selects.
    pub fn less_by_req(&self, name: &str, pred: &dyn Fn(&str) -> bool) -> HashMap<u32, f64> {
        self.named(name)
            .map(|i| {
                let s = &self.spans[i];
                (s.req, (s.dur_us() - self.beneath(i, pred)).max(0.0))
            })
            .collect()
    }

    /// The time of each span `name` selects that is not the engine's:
    /// its duration less the engine spans beneath it and less `wait`, the
    /// engine time of the same request that opens no span.
    pub fn outside_engine(
        &self,
        name: &dyn Fn(&str) -> bool,
        wait: &HashMap<u32, f64>,
    ) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| name(&self.spans[i].name))
            .map(|i| {
                let s = &self.spans[i];
                let engine = self.beneath(i, &is_engine) + wait.get(&s.req).copied().unwrap_or(0.0);
                (s.dur_us() - engine).max(0.0)
            })
            .collect()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name)
            .map(|i| self.spans[i].dur_us())
            .fold(0.0, |a, b| a + b)
    }

    /// Writes one JSON object per span, tagged with the replay pass;
    /// `parent` indexes the spans of the same pass.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write, pass: &str) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = obj(vec![
                ("pass", Json::Str(pass.into())),
                ("req", Json::Num(s.req as f64)),
                ("name", Json::Str(s.name.clone())),
                ("parent", parent),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("value", Json::Num(s.value)),
            ]);
            writeln!(out, "{}", line.emit())?;
        }
        Ok(())
    }
}

/// Spans of engine work: what the engine and the router open beneath a
/// handler.
fn is_engine(name: &str) -> bool {
    name.starts_with("engine.") || name.starts_with("router.")
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Counters read through `Server::state()`.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    stale_evictions: u64,
    keyword_solves: u64,
    keyword_columns: u64,
    wal_bytes: u64,
    fsyncs: u64,
}

impl Counters {
    fn read(state: &AppState) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let cache = state.cache_stats();
        let batch = state.router.batch_stats();
        let mut c = Counters {
            hits: cache.hits,
            misses: cache.misses,
            stale_evictions: cache.stale_evictions,
            keyword_solves: batch.keyword_solves,
            keyword_columns: batch.keyword_columns,
            ..Counters::default()
        };
        for engine in state.router.local_engines() {
            if let Some(store) = engine.store() {
                let s = store.stats();
                c.wal_bytes += s.wal_bytes.load(Relaxed);
                c.fsyncs += s.fsyncs.load(Relaxed);
            }
        }
        c
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            stale_evictions: self.stale_evictions - before.stale_evictions,
            keyword_solves: self.keyword_solves - before.keyword_solves,
            keyword_columns: self.keyword_columns - before.keyword_columns,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            fsyncs: self.fsyncs - before.fsyncs,
        }
    }
}

/// The configuration `subrank serve` runs with by default.
fn config(data_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

fn fresh_dir(env: &Env, name: &str) -> Result<Option<std::path::PathBuf>, String> {
    if !env.workload.durable() {
        return Ok(None);
    }
    let dir = env.work.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Some(dir))
}

pub fn run(env: &Env) -> Result<Report, String> {
    let w = env.workload;
    let mut report = Report::new(env, true);
    let mut rng = Rng::new(env.seed ^ 0x7eace);
    let mut tally = Tally::default();

    // 1. The spawned server, untraced.
    let mut stream = Stream::new(w, env.seed, &env.graph);
    let server = env.serve()?;
    let pid = server.pid().to_string();
    let mut answers = bench::warm_up(env, server.addr, &mut stream, &mut rng, &mut tally)?;
    let fixed = bench::fixed_phase(
        env,
        server.addr,
        Some(&pid),
        &mut stream,
        &mut rng,
        &mut tally,
        &mut answers,
        None,
    )?;
    server.stop();
    let (server_cpu, client_cpu) = (fixed.all.server_cpu, fixed.all.client_cpu);
    let wall = fixed.all.result.wall.as_secs_f64();
    let p50 = fixed.quiet.reads().median().unwrap_or(0.0);
    let late = Sample::new(fixed.all.result.lateness_ms());
    let writes = fixed.all.writes();

    // 2. The in-process server.
    let mut stream = Stream::new(w, env.seed, &env.graph);
    let dir = fresh_dir(env, "inproc-data")?;
    let srv = Server::bind(env.graph.clone(), config(dir.as_deref()))
        .map_err(|e| format!("in-process bind: {e}"))?;
    let (state, handle, addr) = (srv.state(), srv.handle(), srv.local_addr());
    let serving = std::thread::spawn(move || srv.serve());
    let inproc = (|| -> Result<_, String> {
        bench::warm_up(env, addr, &mut stream, &mut rng, &mut tally)?;
        let before = Counters::read(&state);
        let mut unchecked = Vec::new();
        let ran = bench::fixed_phase(
            env,
            addr,
            None,
            &mut stream,
            &mut rng,
            &mut tally,
            &mut unchecked,
            None,
        )?;
        Ok((ran, Counters::read(&state).since(before)))
    })();
    handle.shutdown();
    serving.join().map_err(|_| "in-process server panicked")?;
    let (inproc, delta) = inproc?;
    let counts = tally.counts;
    let traces = state.traces.snapshot();
    let breakdown = layer_breakdown(&traces);
    let server_ns: u64 = breakdown.iter().map(|l| l.total_ns).sum();
    let other_ns: u64 = breakdown
        .iter()
        .filter(|l| l.layer == "other")
        .map(|l| l.total_ns)
        .sum();
    let pool = state.pool_stats();
    drop(state);

    // 3. The replay.
    let Replayed {
        calls,
        handler,
        sweep_edges,
        multi_edge_cols,
        writes: (store, writes_replayed),
    } = replay(env)?;
    let (spans, handler) = (Reduced::new(calls), Reduced::new(handler));
    let spans_path = env.work.parent().unwrap_or(&env.work).join(format!(
        "spans-{}-seed{}.jsonl",
        w.name(),
        env.seed
    ));
    std::fs::File::create(&spans_path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            spans.write_jsonl(&mut out, "calls")?;
            handler.write_jsonl(&mut out, "handler")?;
            out.flush()
        })
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    report.fact("spans", &spans_path.display().to_string());

    let (wrong, _) = check::check_all(&env.graph, &answers);
    let n = REPLAY;
    // The keyword gather window waits without a span; pass A measures it
    // per request, and the handler pass counts it as the engine's.
    let gather_wait = spans.less_by_req("engine.keyword", &|s: &str| s == "engine.keyword_solve");
    let request_us = handler.total_us("request");
    // Serve and store: each replayed request less the engine's part, plus
    // the WAL appends the engine makes on a write.
    let serve_store_us = handler
        .outside_engine(&|s: &str| s == "request", &gather_wait)
        .iter()
        .sum::<f64>()
        + handler.total_us("store.wal_append");

    report.metric(
        "serve.read_us",
        handler.mean_us("serve.read", |_| true),
        "us",
        n,
    );
    report.metric(
        "serve.handle_self_us",
        mean(
            handler
                .outside_engine(&|s: &str| s == "serve.handle", &gather_wait)
                .into_iter(),
        ),
        "us",
        n,
    );
    report.metric(
        "serve.write_us",
        handler.mean_us("serve.write", |_| true),
        "us",
        n,
    );
    report.metric(
        "serve.response_kb",
        handler.mean_value("serve.write") / 1024.0,
        "KiB",
        n,
    );
    report.metric(
        "serve.other_frac",
        ratio(other_ns as f64, server_ns as f64),
        "ratio",
        traces.len(),
    );
    report.metric(
        "store.json_parse_us",
        spans.mean_us("store.json_parse", |_| true),
        "us",
        n,
    );
    // The handler's answer: its `http.*` span, which opens once the body
    // is parsed, less the engine call beneath it.
    report.metric(
        "store.json_emit_us",
        mean(
            handler
                .outside_engine(&|s: &str| s.starts_with("http."), &gather_wait)
                .into_iter(),
        ),
        "us",
        n,
    );
    report.metric(
        "store.wal_append_us",
        spans.mean_us("store.wal_append", |_| true),
        "us",
        spans.count("store.wal_append"),
    );
    report.metric(
        "store.wal_bytes_per_write",
        ratio(store.wal_bytes as f64, writes_replayed as f64),
        "bytes",
        writes_replayed as usize,
    );
    report.metric(
        "store.fsyncs",
        store.fsyncs as f64,
        "count",
        writes_replayed as usize,
    );
    report.metric(
        "engine.hit_us",
        spans.mean_us("engine.rank", |s| s.value == 1.0),
        "us",
        n,
    );
    report.metric(
        "engine.miss_us",
        spans.mean_us("engine.rank", |s| s.value == 0.0),
        "us",
        n,
    );
    report.metric(
        "engine.hit_ratio",
        ratio(delta.hits as f64, (delta.hits + delta.misses) as f64),
        "ratio",
        (delta.hits + delta.misses) as usize,
    );
    report.metric(
        "engine.stale_evictions",
        delta.stale_evictions as f64,
        "count",
        1,
    );
    report.metric(
        "engine.keyword_us",
        spans.mean_us("engine.keyword", |_| true),
        "us",
        n,
    );
    report.metric(
        "engine.batch_occupancy",
        ratio(delta.keyword_columns as f64, delta.keyword_solves as f64),
        "columns",
        delta.keyword_solves as usize,
    );
    report.metric(
        "engine.gather_wait_us",
        mean(gather_wait.values().copied()),
        "us",
        n,
    );
    report.metric(
        "graph.extract_us",
        spans.mean_us("graph.extract", |_| true),
        "us",
        spans.count("graph.extract"),
    );
    report.metric(
        "graph.boundary_edges",
        spans.mean_value("graph.extract"),
        "count",
        spans.count("graph.extract"),
    );
    report.metric(
        "core.lambda_build_us",
        spans.mean_us("core.lambda_build", |_| true),
        "us",
        spans.count("core.lambda_build"),
    );
    report.metric(
        "core.solve_us",
        spans.mean_us("core.solve", |_| true),
        "us",
        spans.count("core.solve"),
    );
    report.metric(
        "core.iterations",
        spans.mean_value("core.solve"),
        "count",
        spans.count("core.solve"),
    );
    report.metric(
        "pagerank.ns_per_edge_sweep",
        ratio(spans.total_us("core.solve") * 1e3, sweep_edges),
        "ns",
        spans.count("core.solve"),
    );
    report.metric(
        "pagerank.multi_ns_per_edge_col",
        ratio(
            spans.total_us("pagerank.solve_multi") * 1e3,
            multi_edge_cols,
        ),
        "ns",
        spans.count("pagerank.solve_multi"),
    );
    report.metric(
        "delta.apply_us",
        spans.mean_us("delta.apply", |_| true),
        "us",
        spans.count("delta.apply"),
    );
    report.metric(
        "delta.materialize_us",
        spans.mean_us("delta.materialize", |s| s.value == 1.0),
        "us",
        spans.count("delta.materialize"),
    );
    report.metric(
        "delta.materializations_per_write",
        ratio(
            spans
                .named("delta.materialize")
                .filter(|&i| spans.spans[i].value == 1.0)
                .count() as f64,
            spans.count("delta.materialize") as f64,
        ),
        "ratio",
        spans.count("delta.materialize"),
    );
    let threads = ServeConfig::default().threads as f64;
    report.metric(
        "exec.lane_busy_frac",
        ratio(server_cpu, threads * wall),
        "ratio",
        1,
    );
    report.metric(
        "exec.imbalance",
        pool.map_or(0.0, |p| p.imbalance()),
        "ratio",
        1,
    );
    report.metric(
        "client.late_p99_ms",
        late.tail(0.99).unwrap_or(0.0),
        "ms",
        late.len(),
    );
    report.metric("client.cpu_frac", ratio(client_cpu, wall), "ratio", 1);
    let p50_traced = inproc.quiet.reads().median().unwrap_or(0.0);
    report.metric(
        "trace.overhead_frac",
        ratio(p50_traced, p50) - 1.0,
        "ratio",
        inproc.quiet.reads().len(),
    );
    report.metric(
        "layers.serve_store_frac",
        ratio(serve_store_us, request_us),
        "ratio",
        n,
    );
    report.metric(
        "layers.graph_core_pagerank_frac",
        ratio(spans.total_us("decompose"), request_us),
        "ratio",
        n,
    );
    report.info(
        "write_p50_ms",
        writes.median().unwrap_or(0.0),
        "ms",
        writes.len(),
    );
    report.info(
        "write_p90_ms",
        writes.tail(0.9).unwrap_or(0.0),
        "ms",
        writes.len(),
    );
    report.metric(
        "fail_frac",
        ratio(counts.not_ok() as f64, counts.attempted as f64),
        "ratio",
        counts.attempted as usize,
    );
    report.info("p50_ms.untraced", p50, "ms", fixed.quiet.reads().len());
    report.info(
        "p50_ms.in_process",
        p50_traced,
        "ms",
        inproc.quiet.reads().len(),
    );
    report.info("wrong_answers", wrong as f64, "count", answers.len());
    report.finish(counts, wrong, true);
    Ok(report)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What the replay produced besides its spans.
struct Replayed {
    /// Pass A: the parse, the engine calls and the kernel layers.
    calls: Vec<SpanRec>,
    /// Pass B: read, handler and write, with the engine's spans.
    handler: Vec<SpanRec>,
    /// Σ iterations × extended-graph edges over the singleton solves.
    sweep_edges: f64,
    /// Σ iterations × edges × columns over the multi-column solves.
    multi_edge_cols: f64,
    /// Store counters over the replayed writes, and their number.
    writes: (Counters, u64),
}

/// Edges one sweep of the extended graph touches: the local edges plus
/// each page's edge to and from Λ.
fn extended_edges(sub: &Subgraph) -> f64 {
    (sub.local_graph().num_edges() + 2 * sub.len() + 1) as f64
}

fn rank_request(op: &Op) -> RankRequest {
    RankRequest {
        members: op.members(),
        algorithm: Algorithm::ApproxRank,
        damping: 0.85,
        tolerance: TOLERANCE,
        estimator: EstimatorOptions::default(),
    }
}

fn new_state(env: &Env, dir: Option<&Path>) -> Result<AppState, String> {
    let state = AppState::new(env.graph.clone(), config(dir))?;
    if let Some(dir) = dir {
        approxrank_serve::persist::open_store(&state, dir).map_err(|e| format!("store: {e}"))?;
    }
    Ok(state)
}

/// Warms a replay state the way the server is warmed: every hot key once.
fn warm(state: &AppState, stream: &Stream) -> Result<(), String> {
    for &start in stream.hot_starts() {
        let op = Op::Rank {
            start,
            len: crate::workload::HOT_SPAN,
            top: 0,
        };
        state
            .router
            .rank(&rank_request(&op), approxrank_trace::null())
            .map_err(|e| format!("{e:?}"))?;
    }
    Ok(())
}

/// Replays a seeded sample of the workload, single-threaded.
fn replay(env: &Env) -> Result<Replayed, String> {
    let w = env.workload;
    let reqs = Stream::new(w, env.seed ^ 0xa11ce, &env.graph).draw(REPLAY);
    let hot = Stream::new(w, env.seed ^ 0xa11ce, &env.graph);
    let tracer = Tracer::new();
    let null = approxrank_trace::null();
    let agg = check::aggregates(&env.graph);
    let mut sweep_edges = 0.0;
    let mut multi_edge_cols = 0.0;

    // Pass A: the parse and the engine call, one by one, on one state.
    let state = new_state(env, fresh_dir(env, "replay-a")?.as_deref())?;
    let mut graphs = Graphs::new(&state)?;
    let delta = Arc::clone(&graphs.delta);
    let store_before = Counters::read(&state);
    warm(&state, &hot)?;
    for (r, req) in reqs.iter().enumerate() {
        tracer.request(r as u32);
        let raw = req.op.render();
        let request = read_request(&mut BufReader::new(&raw[..]), 1 << 20)
            .map_err(|e| format!("replay read: {e:?}"))?;
        let text = String::from_utf8(request.body).map_err(|_| "body is not utf-8")?;
        let root = tracer.open("calls");
        tracer.span("store.json_parse", || parse(&text))?;
        match req.op {
            Op::Rank { .. } => {
                let id = tracer.open("engine.rank");
                let routed = state
                    .router
                    .rank(&rank_request(&req.op), null)
                    .map_err(|e| format!("{e:?}"))?;
                tracer.close(id);
                tracer.set(id, if routed.outcome.cached { 1.0 } else { 0.0 });
            }
            Op::Keyword { base, .. } => {
                let id = tracer.open("engine.keyword");
                let params = KeywordRequest {
                    members: req.op.members(),
                    base: base.to_vec(),
                    damping: 0.85,
                    tolerance: TOLERANCE,
                };
                state
                    .router
                    .keyword(&params, &tracer)
                    .map_err(|e| format!("{e:?}"))?;
                tracer.close(id);
            }
            Op::Toggle { .. } => {
                write(&tracer, &state, &mut graphs, &req.op)?;
            }
        }
        tracer.close(root);

        // Kernel layers, timed on their own for the same membership.
        let kernel = match req.op {
            Op::Rank { .. } => tracer
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == "engine.rank")
                .is_some_and(|s| s.value == 0.0),
            Op::Keyword { .. } => true,
            Op::Toggle { .. } => false,
        };
        if kernel {
            let root = tracer.open("decompose");
            let graph = delta.compacted();
            let members = req.op.members();
            let id = tracer.open("graph.extract");
            let sub = Subgraph::extract(
                graph.as_ref(),
                NodeSet::from_sorted(graph.num_nodes(), members),
            );
            tracer.close(id);
            tracer.set(id, sub.boundary().in_edges.len() as f64);
            let options = check::options(TOLERANCE);
            let ranker = ApproxRank::new(options.clone());
            let ext = tracer.span("core.lambda_build", || {
                ranker.extended_graph_aggregated(agg, &sub)
            });
            let edges = extended_edges(&sub);
            match req.op {
                Op::Keyword { start, base, .. } => {
                    // The pair's two columns, as the gather window forms them.
                    let mut columns = vec![base.to_vec()];
                    columns.extend(reqs.iter().find_map(|o| match o.op {
                        Op::Keyword {
                            start: s, base: b, ..
                        } if s == start && b != base => Some(b.to_vec()),
                        _ => None,
                    }));
                    let ps: Vec<Vec<f64>> = columns
                        .iter()
                        .map(|b| {
                            ext.collapse_sparse_personalization(
                                sub.nodes(),
                                b,
                                1.0 / b.len() as f64,
                            )
                        })
                        .collect();
                    let id = tracer.open("pagerank.solve_multi");
                    let results = ext.solve_multi(&options, &ps, null);
                    tracer.close(id);
                    let sweeps = results.iter().map(|r| r.iterations).max().unwrap_or(0) as f64;
                    multi_edge_cols += sweeps * edges * ps.len() as f64;
                }
                _ => {
                    let id = tracer.open("core.solve");
                    let result = ext.solve(&options);
                    tracer.close(id);
                    tracer.set(id, result.iterations as f64);
                    sweep_edges += result.iterations as f64 * edges;
                }
            }
            tracer.close(root);
        }
    }
    let writes = if w == Workload::MixedWrite {
        let acked = reqs.iter().filter(|r| r.op.is_write()).count() as u64;
        (Counters::read(&state).since(store_before), acked)
    } else {
        write_probe(env, &tracer, reqs.len() as u32)?
    };
    drop(state);

    // Pass B: what the server does with each request, on a second state
    // prepared the same way: read it, run the whole handler (which opens
    // the engine's spans beneath it), write the answer into a sink.
    let handler = Tracer::new();
    let state = new_state(env, fresh_dir(env, "replay-b")?.as_deref())?;
    let graphs_b = Graphs::new(&state)?;
    warm(&state, &hot)?;
    for (r, req) in reqs.iter().enumerate() {
        handler.request(r as u32);
        let raw = req.op.render();
        let root = handler.open("request");
        let request = handler
            .span("serve.read", || {
                read_request(&mut BufReader::new(&raw[..]), 1 << 20)
            })
            .map_err(|e| format!("replay read: {e:?}"))?;
        let (_, response) = handler.span("serve.handle", || {
            handlers::route(&state, &request, &handler)
        });
        if response.status != 200 {
            return Err(format!(
                "replayed {} answered {}",
                req.op.path(),
                response.status
            ));
        }
        let mut sink = Vec::with_capacity(response.body.len() + 256);
        let id = handler.open("serve.write");
        write_response(&mut sink, &response).map_err(|e| format!("replay write: {e}"))?;
        handler.close(id);
        handler.set(id, response.body.len() as f64);
        handler.close(root);
        if req.op.is_write() {
            // As in pass A: the rebuild a write causes is the delta
            // layer's, not the next read's handler.
            graphs_b.delta.compacted();
        }
    }
    Ok(Replayed {
        calls: tracer.spans(),
        handler: handler.spans(),
        sweep_edges,
        multi_edge_cols,
        writes,
    })
}

/// The live graph of a replay state: its base, and the graph the last
/// write left, to tell a rebuilt CSR from a reused one.
struct Graphs {
    delta: Arc<DeltaGraph>,
    base: Arc<DiGraph>,
    last: Arc<DiGraph>,
}

impl Graphs {
    fn new(state: &AppState) -> Result<Graphs, String> {
        let delta = state.router.local_engines()[0]
            .delta()
            .cloned()
            .ok_or("engine has no live graph")?;
        let base = delta.compacted();
        Ok(Graphs {
            last: Arc::clone(&base),
            base,
            delta,
        })
    }
}

/// One toggle through `Router::mutate_graph`, then the CSR the next cold
/// read will need, materialized through `DeltaGraph::compacted`.
fn write(tracer: &Tracer, state: &AppState, graphs: &mut Graphs, op: &Op) -> Result<(), String> {
    let Op::Toggle { src, dst, insert } = *op else {
        unreachable!("writes only");
    };
    let edge = [(src, dst)];
    let id = tracer.open("delta.apply");
    let (insert, delete): (&[_], &[_]) = if insert { (&edge, &[]) } else { (&[], &edge) };
    state
        .router
        .mutate_graph(insert, delete, tracer)
        .map_err(|e| format!("{e:?}"))?;
    tracer.close(id);
    let id = tracer.open("delta.materialize");
    let graph = graphs.delta.compacted();
    tracer.close(id);
    let rebuilt = !Arc::ptr_eq(&graph, &graphs.last) && !Arc::ptr_eq(&graph, &graphs.base);
    tracer.set(id, if rebuilt { 1.0 } else { 0.0 });
    graphs.last = graph;
    Ok(())
}

/// The write path for workloads without writes: `mixed_write`'s writes
/// for the same seed, replayed on a durable state of their own, so that
/// every traced run measures the delta and WAL layers. Returns the store
/// counters over the writes and how many there were.
fn write_probe(env: &Env, tracer: &Tracer, first: u32) -> Result<(Counters, u64), String> {
    let dir = env.work.join("replay-writes");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let state = new_state(env, Some(&dir))?;
    let mut graphs = Graphs::new(&state)?;
    let before = Counters::read(&state);
    let writes: Vec<Op> = Stream::new(Workload::MixedWrite, env.seed ^ 0xa11ce, &env.graph)
        .draw(REPLAY)
        .into_iter()
        .map(|r| r.op)
        .filter(Op::is_write)
        .collect();
    for (k, op) in writes.iter().enumerate() {
        tracer.request(first + k as u32);
        let root = tracer.open("write_probe");
        write(tracer, &state, &mut graphs, op)?;
        tracer.close(root);
    }
    Ok((Counters::read(&state).since(before), writes.len() as u64))
}
