//! The untraced run: boot, warm up, hold the fixed rate, search for
//! capacity, self-check the client, and check the answers.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use approxrank_graph::DiGraph;

use crate::check;
use crate::client::{self, Abort, PhaseResult};
use crate::report::Report;
use crate::rng::Rng;
use crate::server::{self, Spawned};
use crate::stats::{self, Counts, RateSearch, Sample};
use crate::workload::{Op, Req, Stream, Workload, CONNS, WRITE_EVERY};

/// Timed server boots per round; `setup_s` is the median over all
/// rounds. A round runs before the run, after each fixed-rate block and
/// after the run: a shared host's speed drifts in stretches of seconds,
/// and boots spread across the run sample more of it than boots in one
/// stretch.
const BOOTS_PER_ROUND: usize = 4;
/// Answers per run kept for the bitwise check.
const CHECKED: usize = 200;
/// Capacity search: first growth factor while bracketing, the bracket
/// width at which it stops, the most trials it may run, and the trials
/// a run's budget is sized for.
const SEARCH_GROW: f64 = 1.1;
const SEARCH_STEP: f64 = 0.03;
const SEARCH_TRIALS: usize = 12;
const SEARCH_PLANNED: f64 = 7.0;
/// Closed-loop self-check tolerance.
const SELF_CHECK: f64 = 0.2;
/// A capacity trial during which the hypervisor took more than this
/// share of the machine's CPU time (steal) measured the host, not the
/// server: it is run again, within a retry budget of this share of the
/// run.
const QUIET: f64 = 0.01;
const RETRY_SHARE: f64 = 0.25;
/// The fixed-rate phase runs as this many consecutive blocks, and its
/// gated figures come from the `QUIET_BLOCKS` during which the
/// hypervisor stole the least CPU time: a burst of steal on a shared
/// host then moves the figures only if it covers most of the phase.
const BLOCKS: usize = 5;
const QUIET_BLOCKS: usize = 3;

/// What one invocation works with.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub bin: PathBuf,
    pub graph_path: PathBuf,
    pub graph: DiGraph,
    pub work: PathBuf,
}

impl Env {
    /// Spawns the server with a data directory and a log of its own;
    /// returns it with its boot time in seconds.
    fn spawn(&self) -> Result<(Spawned, f64), String> {
        static SERIAL: AtomicUsize = AtomicUsize::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        let data = self
            .workload
            .durable()
            .then(|| self.work.join(format!("data-{serial}")));
        if let Some(dir) = &data {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let log = self.work.join(format!("server-{serial}.log"));
        let (server, took) = server::boot(&self.bin, &self.graph_path, data.as_deref(), &log)
            .map_err(|e| format!("boot: {e}"))?;
        Ok((server, took.as_secs_f64()))
    }

    /// Boots the server that serves the run.
    pub fn serve(&self) -> Result<Spawned, String> {
        self.spawn().map(|(server, _)| server)
    }

    /// Boots and stops the server `boots` times; returns each boot time.
    pub fn timed_boots(&self, boots: usize) -> Result<Vec<f64>, String> {
        (0..boots)
            .map(|_| {
                let (server, took) = self.spawn()?;
                server.stop();
                Ok(took)
            })
            .collect()
    }

    /// Requests each phase sends at `rate` for `secs`, at least `floor`.
    fn sized(rate: f64, secs: f64, floor: usize) -> usize {
        ((rate * secs) as usize).max(floor)
    }
}

/// A phase's requests plus what came of them.
pub struct Ran {
    pub reqs: Vec<Req>,
    pub result: PhaseResult,
    /// Share of the machine's CPU time stolen during the phase.
    pub steal: f64,
    /// CPU seconds the server's threads and this process spent.
    pub server_cpu: f64,
    pub client_cpu: f64,
}

impl Ran {
    /// Consecutive phases as one: requests and records end to end, CPU
    /// and wall summed, steal weighted by wall.
    fn join(blocks: &[&Ran]) -> Ran {
        let mut ran = Ran {
            reqs: Vec::new(),
            result: PhaseResult {
                records: Vec::new(),
                counts: Counts::default(),
                wall: Duration::ZERO,
                aborted: false,
            },
            steal: 0.0,
            server_cpu: 0.0,
            client_cpu: 0.0,
        };
        for b in blocks {
            ran.reqs.extend_from_slice(&b.reqs);
            ran.result.records.extend_from_slice(&b.result.records);
            ran.result.counts.add(b.result.counts);
            ran.result.wall += b.result.wall;
            ran.result.aborted |= b.result.aborted;
            ran.steal += b.steal * b.result.wall.as_secs_f64();
            ran.server_cpu += b.server_cpu;
            ran.client_cpu += b.client_cpu;
        }
        ran.steal /= ran.result.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        ran
    }

    pub fn reads(&self) -> Sample {
        Sample::new(self.result.latencies_ms(&self.reqs, false))
    }

    pub fn writes(&self) -> Sample {
        Sample::new(self.result.latencies_ms(&self.reqs, true))
    }

    /// Kept answers as `(op, body)` for the checker.
    pub fn answers(&self) -> Vec<(Op, Vec<u8>)> {
        self.reqs
            .iter()
            .zip(&self.result.records)
            .filter_map(|(r, rec)| rec.body.clone().map(|b| (r.op.clone(), b)))
            .collect()
    }

    /// Writes the server acknowledged.
    pub fn acked_writes(&self) -> u64 {
        self.reqs
            .iter()
            .zip(&self.result.records)
            .filter(|(r, rec)| r.op.is_write() && matches!(rec.done, Some((200, _))))
            .count() as u64
    }

    /// Whether lateness grew across the phase: the last third of sends
    /// ran later than the first third by more than a tenth of `limit`.
    pub fn lateness_grew(&self, limit_ms: f64) -> bool {
        let late = self.result.lateness_ms();
        let third = late.len() / 3;
        if third == 0 {
            return false;
        }
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        mean(&late[late.len() - third..]) > mean(&late[..third]) + 0.1 * limit_ms
    }
}

/// Runs one open-loop phase, keeping a seeded sample of `keep` read
/// answers, and returns unsent requests to the stream. With the
/// server's `pid`, records the CPU it and this process spent.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    addr: SocketAddr,
    pid: Option<&str>,
    stream: &mut Stream,
    rate: f64,
    n: usize,
    keep: usize,
    abort: Option<Abort>,
    rng: &mut Rng,
) -> Result<Ran, String> {
    let reqs = stream.phase(rate, n);
    // A seeded sample of `keep` distinct reads (a partial Fisher-Yates).
    let mut kept = vec![false; reqs.len()];
    let mut reads: Vec<usize> = (0..reqs.len())
        .filter(|&i| !reqs[i].op.is_write())
        .collect();
    for k in 0..keep.min(reads.len()) {
        let j = k + rng.below((reads.len() - k) as u64) as usize;
        reads.swap(k, j);
        kept[reads[k]] = true;
    }
    let server_cpu = || pid.map_or(0.0, server::thread_cpu_seconds);
    let (steal0, total0) = server::host_ticks();
    let (cpu0, me0) = (server_cpu(), server::cpu_seconds("self"));
    let result =
        client::open_loop(addr, &reqs, &kept, abort).map_err(|e| format!("client: {e}"))?;
    let (cpu1, me1) = (server_cpu(), server::cpu_seconds("self"));
    let (steal1, total1) = server::host_ticks();
    for (req, rec) in reqs.iter().zip(&result.records) {
        if rec.late_ns.is_none() {
            stream.unsend(&req.op);
        }
    }
    Ok(Ran {
        reqs,
        result,
        steal: (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        server_cpu: cpu1 - cpu0,
        client_cpu: me1 - me0,
    })
}

/// Runs `attempt` until it is not disturbed by steal or the retry
/// budget is spent. Every attempt counts in the tally.
fn settled(
    budget: &mut Duration,
    tally: &mut Tally,
    mut attempt: impl FnMut() -> Result<Ran, String>,
) -> Result<Ran, String> {
    loop {
        let ran = attempt()?;
        tally.absorb(&ran);
        if ran.steal <= QUIET || ran.result.wall > *budget {
            return Ok(ran);
        }
        *budget -= ran.result.wall;
        tally.retries += 1;
    }
}

/// Sends every `rank_hot` key once, one at a time, keeping the answers.
pub fn touch_keys(addr: SocketAddr, stream: &Stream) -> Result<Vec<(Op, Vec<u8>)>, String> {
    stream
        .hot_starts()
        .iter()
        .map(|&start| {
            let op = Op::Rank {
                start,
                len: crate::workload::HOT_SPAN,
                top: 0,
            };
            match server::request(addr, &op.render()) {
                Ok((200, body)) => Ok((op, body)),
                Ok((status, _)) => Err(format!("warm-up answered {status}")),
                Err(e) => Err(format!("warm-up: {e}")),
            }
        })
        .collect()
}

/// Requests and acknowledged writes, summed over a run's phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub counts: Counts,
    pub acked: u64,
    /// Phases run again because steal disturbed them.
    pub retries: u64,
}

impl Tally {
    pub fn absorb(&mut self, ran: &Ran) {
        self.counts.add(ran.result.counts);
        self.acked += ran.acked_writes();
    }
}

/// Warm-up: every hot key once, then a short stretch at the fixed rate.
/// Returns the key answers, taken before any write.
pub fn warm_up(
    env: &Env,
    addr: SocketAddr,
    stream: &mut Stream,
    rng: &mut Rng,
    tally: &mut Tally,
) -> Result<Vec<(Op, Vec<u8>)>, String> {
    let keys = touch_keys(addr, stream)?;
    let rate = env.workload.fixed_rps();
    let n = Env::sized(rate, 0.05 * env.seconds, 50);
    tally.absorb(&phase(addr, None, stream, rate, n, 0, None, rng)?);
    Ok(keys)
}

/// The fixed-rate phase, whole and in its quietest blocks.
pub struct Fixed {
    pub all: Ran,
    /// The `QUIET_BLOCKS` blocks with the least steal, in run order.
    pub quiet: Ran,
}

/// The fixed-rate phase: enough requests for a supported p99 of reads
/// (and p90 of writes), or half the run, whichever is more, sent in
/// [`BLOCKS`] blocks. Answers are kept for the checker except on
/// `mixed_write`, whose reads run against a mutated graph; it is checked
/// once every toggle is undone. With `boots`, a round of timed boots
/// follows each block, while the server under test idles.
#[allow(clippy::too_many_arguments)]
pub fn fixed_phase(
    env: &Env,
    addr: SocketAddr,
    pid: Option<&str>,
    stream: &mut Stream,
    rng: &mut Rng,
    tally: &mut Tally,
    answers: &mut Vec<(Op, Vec<u8>)>,
    mut boots: Option<&mut Vec<f64>>,
) -> Result<Fixed, String> {
    let rate = env.workload.fixed_rps();
    let read_share = if env.workload == Workload::MixedWrite {
        1.0 - 1.0 / WRITE_EVERY as f64
    } else {
        1.0
    };
    let floor = (stats::min_samples(0.99) as f64 * 1.1 / read_share).ceil() as usize;
    let n = Env::sized(rate, 0.5 * env.seconds, floor).div_ceil(BLOCKS);
    let keep = if env.workload == Workload::MixedWrite {
        0
    } else {
        CHECKED.div_ceil(BLOCKS)
    };
    let mut blocks = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let ran = phase(addr, pid, stream, rate, n, keep, None, rng)?;
        tally.absorb(&ran);
        answers.extend(ran.answers());
        blocks.push(ran);
        if let Some(boots) = boots.as_deref_mut() {
            boots.extend(env.timed_boots(BOOTS_PER_ROUND)?);
        }
    }
    let steal: Vec<f64> = blocks.iter().map(|b| b.steal).collect();
    let quiet = stats::smallest(&steal, QUIET_BLOCKS);
    Ok(Fixed {
        all: Ran::join(&blocks.iter().collect::<Vec<_>>()),
        quiet: Ran::join(&quiet.iter().map(|&i| &blocks[i]).collect::<Vec<_>>()),
    })
}

/// The untraced run.
pub fn run(env: &Env) -> Result<Report, String> {
    let w = env.workload;
    let mut report = Report::new(env, false);
    let mut stream = Stream::new(w, env.seed, &env.graph);
    let mut rng = Rng::new(env.seed ^ 0x5eed);
    let mut setups = env.timed_boots(BOOTS_PER_ROUND)?;
    let server = env.serve()?;
    let addr = server.addr;
    let pid = server.pid().to_string();
    let mut tally = Tally::default();
    let mut answers = warm_up(env, addr, &mut stream, &mut rng, &mut tally)?;

    // Fixed rate, before the capacity search so that the server's state
    // (and its peak memory) does not depend on how many trials ran.
    let fixed = fixed_phase(
        env,
        addr,
        Some(&pid),
        &mut stream,
        &mut rng,
        &mut tally,
        &mut answers,
        Some(&mut setups),
    )?;
    let rss = server::peak_rss_mb(&pid);

    // Capacity: the search starts from the capacity measured when the
    // benchmark was added, and the trials it usually needs share 45% of
    // the run.
    let limit = w.limit_ms();
    let trial_secs = 0.45 * env.seconds / SEARCH_PLANNED;
    let mut budget = Duration::from_secs_f64(RETRY_SHARE * env.seconds);
    let mut search = RateSearch::new(w.base_capacity(), SEARCH_GROW, SEARCH_STEP, SEARCH_TRIALS);
    // Below an eighth of the seed's capacity a miss says more about the
    // host than the server: the search stops there.
    let floor = w.base_capacity() / 8.0;
    let mut trials = Vec::new();
    while let Some(rate) = search.next_rate().filter(|&r| r >= floor) {
        let n = Env::sized(rate, trial_secs, 100);
        let abort = Abort {
            limit_ns: (limit * 1e6) as u64,
            allowed: stats::beyond(n, 0.99),
        };
        let mut trial = || -> Result<bool, String> {
            let ran = settled(&mut budget, &mut tally, || {
                phase(addr, None, &mut stream, rate, n, 0, Some(abort), &mut rng)
            })?;
            let p99 = ran.reads().quantile(0.99).unwrap_or(f64::INFINITY);
            let met = !ran.result.aborted
                && ran.result.counts.not_ok() == 0
                && p99 <= limit
                && !ran.lateness_grew(limit);
            trials.push(format!("{rate:.1}:{}", if met { "met" } else { "missed" }));
            Ok(met)
        };
        // Noise only ever slows a trial down, so a miss is confirmed by a
        // second trial at the same rate before the search believes it.
        let met = trial()? || trial()?;
        search.record(rate, met);
    }

    // Closed-loop self-check of the client on rank_hot.
    let mut self_check_ok = true;
    if w == Workload::RankHot {
        let reqs = stream.draw(256);
        let per_conn: Vec<Vec<Vec<u8>>> = (0..CONNS)
            .map(|c| {
                reqs.iter()
                    .filter(|r| r.conn == c)
                    .map(|r| r.op.render())
                    .collect()
            })
            .collect();
        let (n, wall, total, failed) =
            client::closed_loop(addr, &per_conn, Duration::from_secs_f64(0.05 * env.seconds))
                .map_err(|e| format!("closed loop: {e}"))?;
        tally.counts.add(Counts {
            attempted: n + failed,
            ok: n,
            failed,
            refused: 0,
        });
        let rps = n as f64 / wall.as_secs_f64();
        let predicted = CONNS as f64 / (total.as_secs_f64() / n.max(1) as f64);
        self_check_ok = failed == 0 && (rps / predicted - 1.0).abs() <= SELF_CHECK;
        report.info("client.closed_rps", rps, "1/s", n as usize);
        report.info("client.closed_predicted_rps", predicted, "1/s", n as usize);
    }

    // mixed_write: undo every toggle; then the graph must be the base
    // graph again, at an epoch equal to the acknowledged writes.
    let mut epoch_ok = true;
    if w == Workload::MixedWrite {
        for (src, dst) in stream.inserted_toggles() {
            let op = Op::Toggle {
                src,
                dst,
                insert: false,
            };
            tally.counts.attempted += 1;
            match server::request(addr, &op.render()) {
                Ok((200, _)) => {
                    tally.counts.ok += 1;
                    tally.acked += 1;
                }
                _ => tally.counts.failed += 1,
            }
        }
        let epoch = graph_epoch(addr)?;
        epoch_ok = epoch == tally.acked;
        report.info("graph.epoch", epoch as f64, "count", 1);
        report.info("graph.acked_writes", tally.acked as f64, "count", 1);
        answers.extend(touch_keys(addr, &stream)?);
    }
    server.stop();
    setups.extend(env.timed_boots(BOOTS_PER_ROUND)?);

    let (wrong, score_err) = check::check_all(&env.graph, &answers);
    // The gated figures come from the quiet blocks, the rest from all.
    let reads = fixed.quiet.reads();
    let writes = fixed.all.writes();
    let ok = fixed.quiet.result.counts.ok.max(1) as f64;
    let counts = tally.counts;
    let setup = Sample::new(setups.clone()).median().unwrap_or(0.0);
    report.metric("setup_s", setup, "s", setups.len());
    let p50 = reads.median().unwrap_or(0.0);
    let cpu = fixed.quiet.server_cpu * 1e6 / ok;
    report.info("capacity_rps", search.capacity(), "1/s", search.trials());
    report.metric("p50_ms", p50, "ms", reads.len());
    let all_reads = fixed.all.result.latencies_ms(&fixed.all.reqs, false);
    let p99 = stats::blocked_tail(&all_reads, 0.99);
    report.info("p99_ms", p99.unwrap_or(0.0), "ms", all_reads.len());
    report.metric("server_cpu_us_per_req", cpu, "us", ok as usize);
    report.info("rss_mb", rss, "MiB", 1);
    // The gated quality guard is in digits: a run-to-run wobble of the
    // error moves it little, and a looser convergence (a tenfold error)
    // costs a whole digit.
    report.metric("score_digits", -score_err.log10(), "digits", answers.len());
    report.info("score_err", score_err, "ratio", answers.len());
    if w == Workload::MixedWrite {
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
    }
    report.info(
        "fail_frac",
        counts.not_ok() as f64 / counts.attempted.max(1) as f64,
        "ratio",
        counts.attempted as usize,
    );
    let late = Sample::new(fixed.all.result.lateness_ms());
    report.info(
        "client.late_p99_ms",
        late.tail(0.99).unwrap_or(0.0),
        "ms",
        late.len(),
    );
    report.info(
        "client.cpu_frac",
        fixed.all.client_cpu / fixed.all.result.wall.as_secs_f64(),
        "ratio",
        1,
    );
    report.info("host.steal_frac", fixed.all.steal, "ratio", BLOCKS);
    report.info(
        "host.steal_frac.quiet",
        fixed.quiet.steal,
        "ratio",
        QUIET_BLOCKS,
    );
    report.info("retries", tally.retries as f64, "count", 1);
    report.info("fixed_rps", w.fixed_rps(), "1/s", 1);
    report.info("wrong_answers", wrong as f64, "count", answers.len());
    report.fact("capacity_trials", &trials.join(" "));
    let boots: Vec<String> = setups.iter().map(|t| format!("{t:.4}")).collect();
    report.fact("boots", &boots.join(" "));
    report.finish(counts, wrong, self_check_ok && epoch_ok);
    Ok(report)
}

/// The server's graph epoch, from `GET /stats` (parsed off the clock).
pub fn graph_epoch(addr: SocketAddr) -> Result<u64, String> {
    let (status, body) = server::get(addr, "/stats").map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("stats answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|_| "stats body is not utf-8")?;
    let json = approxrank_store::json::parse(&text)?;
    json.get("graph")
        .and_then(|g| g.get("epoch"))
        .and_then(|e| e.as_u64())
        .ok_or_else(|| "stats has no graph.epoch".to_string())
}

/// Removes the run's scratch directory when the run ends.
pub struct WorkDir(pub PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl WorkDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}
