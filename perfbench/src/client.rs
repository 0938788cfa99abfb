//! The load client: raw HTTP/1.1 bytes over keep-alive connections, one
//! thread per connection, responses framed by `Content-Length` alone.
//! Nothing on the timed path parses JSON.
//!
//! The open loop sends each request when it is due, pipelining behind
//! any answer still outstanding, so a slow answer delays the requests
//! queued behind it and each latency is timed from the due time.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::Counts;
use crate::workload::{Req, CONNS};

/// How long a phase waits for outstanding answers once it stops sending.
const DRAIN: Duration = Duration::from_secs(5);
/// Largest response head the framer accepts.
const MAX_HEAD: usize = 8 << 10;

/// One framed response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    pub status: u16,
    pub body_start: usize,
    pub len: usize,
}

/// Frames the response at the start of `buf`: `Ok(None)` until it has
/// fully arrived, `Err` when the bytes are not a response.
pub fn frame(buf: &[u8]) -> Result<Option<Frame>, String> {
    let Some(end) = find(&buf[..buf.len().min(MAX_HEAD)], b"\r\n\r\n") else {
        return if buf.len() >= MAX_HEAD {
            Err("response head too long".into())
        } else {
            Ok(None)
        };
    };
    let head = &buf[..end];
    if head.len() < 12 || !head.starts_with(b"HTTP/1.1 ") {
        return Err("not an HTTP/1.1 status line".into());
    }
    let status = std::str::from_utf8(&head[9..12])
        .ok()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("bad status code")?;
    let mut length = None;
    for line in head.split(|&b| b == b'\n').skip(1) {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.len() > 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            length = std::str::from_utf8(&line[15..])
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok());
            if length.is_none() {
                return Err("bad Content-Length".into());
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let body_start = end + 4;
    Ok((buf.len() >= body_start + length).then_some(Frame {
        status,
        body_start,
        len: body_start + length,
    }))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// What one request came to.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// How late the client wrote it, past its due time.
    pub late_ns: Option<u64>,
    /// Status and latency from the due time; `None` if never answered.
    pub done: Option<(u16, u64)>,
    /// The body, when the plan asked to keep it for the checker.
    pub body: Option<Vec<u8>>,
}

/// Stops a trial early once more answers missed the limit than its
/// 99th percentile allows: the trial has failed already.
#[derive(Clone, Copy, Debug)]
pub struct Abort {
    pub limit_ns: u64,
    pub allowed: usize,
}

/// The outcome of one phase, indexed like its requests.
pub struct PhaseResult {
    pub records: Vec<Record>,
    pub counts: Counts,
    pub wall: Duration,
    pub aborted: bool,
}

impl PhaseResult {
    /// Latencies in ms of answered 200s, reads or writes.
    pub fn latencies_ms(&self, reqs: &[Req], writes: bool) -> Vec<f64> {
        self.records
            .iter()
            .zip(reqs)
            .filter(|(_, r)| r.op.is_write() == writes)
            .filter_map(|(rec, _)| match rec.done {
                Some((200, ns)) => Some(ns as f64 / 1e6),
                _ => None,
            })
            .collect()
    }

    /// Client lateness in ms of every request sent, in due order.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.late_ns.map(|ns| ns as f64 / 1e6))
            .collect()
    }
}

/// Classifies one record into the phase counts.
fn tally(counts: &mut Counts, rec: &Record) {
    if rec.late_ns.is_none() {
        return;
    }
    counts.attempted += 1;
    match rec.done {
        Some((200, _)) => counts.ok += 1,
        Some((429 | 503, _)) => counts.refused += 1,
        _ => counts.failed += 1,
    }
}

struct Shared {
    stop: AtomicBool,
    slow: AtomicUsize,
}

/// Runs `reqs` open loop against `addr`. `keep[i]` asks for request
/// `i`'s body.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    keep: &[bool],
    abort: Option<Abort>,
) -> std::io::Result<PhaseResult> {
    let rendered: Vec<Vec<u8>> = reqs.iter().map(|r| r.op.render()).collect();
    let streams = (0..CONNS)
        .map(|_| TcpStream::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let shared = Shared {
        stop: AtomicBool::new(false),
        slow: AtomicUsize::new(0),
    };
    // A short lead lets both threads start before the first due time.
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut records = vec![Record::default(); reqs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                let mine: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].conn == conn).collect();
                let (shared, rendered) = (&shared, &rendered);
                scope.spawn(move || drive(stream, &mine, reqs, rendered, keep, t0, abort, shared))
            })
            .collect();
        for handle in handles {
            for (i, rec) in handle.join().expect("client thread panicked") {
                records[i] = rec;
            }
        }
    });
    let mut counts = Counts::default();
    for rec in &records {
        tally(&mut counts, rec);
    }
    Ok(PhaseResult {
        records,
        counts,
        wall: t0.elapsed(),
        aborted: shared.stop.load(Ordering::Relaxed),
    })
}

/// One connection's send/receive loop.
#[allow(clippy::too_many_arguments)]
fn drive(
    mut stream: TcpStream,
    mine: &[usize],
    reqs: &[Req],
    rendered: &[Vec<u8>],
    keep: &[bool],
    t0: Instant,
    abort: Option<Abort>,
    shared: &Shared,
) -> Vec<(usize, Record)> {
    // A request written but never answered keeps `done: None` and
    // counts as failed; one never written is not attempted.
    let mut recs: Vec<Record> = vec![Record::default(); mine.len()];
    raise_priority();
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        return Vec::new();
    }
    let fd = stream.as_raw_fd();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut wpos = 0;
    let mut rbuf = vec![0u8; 256 << 10];
    let (mut rstart, mut rend) = (0usize, 0usize);
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut drain_until: Option<Instant> = None;
    let mut closed = false;
    'run: loop {
        let since = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
        let now = since(Instant::now());
        let stopped = shared.stop.load(Ordering::Relaxed);
        while !stopped && next < mine.len() && reqs[mine[next]].due_ns <= now {
            let i = mine[next];
            wbuf.extend_from_slice(&rendered[i]);
            recs[next].late_ns = Some(now - reqs[i].due_ns);
            inflight.push_back(next);
            next += 1;
        }
        while wpos < wbuf.len() {
            match stream.write(&wbuf[wpos..]) {
                Ok(0) => break 'run,
                Ok(k) => wpos += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break 'run,
            }
        }
        if wpos == wbuf.len() {
            wbuf.clear();
            wpos = 0;
        }
        loop {
            if rbuf.len() - rend < 64 << 10 {
                rbuf.copy_within(rstart..rend, 0);
                rend -= rstart;
                rstart = 0;
                if rbuf.len() - rend < 64 << 10 {
                    rbuf.resize(rbuf.len() * 2, 0);
                }
            }
            match stream.read(&mut rbuf[rend..]) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(k) => rend += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break 'run,
            }
        }
        let arrived = since(Instant::now());
        loop {
            match frame(&rbuf[rstart..rend]) {
                Ok(None) => break,
                Ok(Some(f)) => {
                    let Some(j) = inflight.pop_front() else {
                        break 'run;
                    };
                    let i = mine[j];
                    let lat = arrived.saturating_sub(reqs[i].due_ns);
                    recs[j].done = Some((f.status, lat));
                    if keep[i] {
                        recs[j].body = Some(rbuf[rstart + f.body_start..rstart + f.len].to_vec());
                    }
                    rstart += f.len;
                    if let Some(a) = abort {
                        let missed =
                            f.status != 200 || (!reqs[i].op.is_write() && lat > a.limit_ns);
                        if missed && shared.slow.fetch_add(1, Ordering::Relaxed) + 1 > a.allowed {
                            shared.stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => break 'run,
            }
        }
        if closed {
            break;
        }
        let sending = !shared.stop.load(Ordering::Relaxed) && next < mine.len();
        if !sending && inflight.is_empty() && wbuf.is_empty() {
            break;
        }
        let timeout = if sending {
            Duration::from_nanos(
                reqs[mine[next]]
                    .due_ns
                    .saturating_sub(since(Instant::now())),
            )
        } else {
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            left
        };
        wait(fd, !wbuf.is_empty(), timeout);
    }
    mine.iter().copied().zip(recs).collect()
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

extern "C" {
    fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
}

/// Asks for a higher scheduling priority (nice -10) for the calling
/// client thread, so that it wakes on time while the server's lanes
/// keep both cores busy; it uses a few percent of one core. Without the
/// privilege the call fails and the thread keeps its priority.
fn raise_priority() {
    const PRIO_PROCESS: c_int = 0;
    // SAFETY: setpriority takes plain integers; `who = 0` names the
    // calling thread on Linux. A failure (no privilege) only leaves the
    // priority unchanged.
    unsafe {
        setpriority(PRIO_PROCESS, 0, -10);
    }
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// Sleeps until `fd` is readable (or writable, with `out`) or `timeout`
/// passes, at timer rather than scheduler-tick resolution.
fn wait(fd: c_int, out: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if out { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is
    // 1, matching the single pollfd; a null sigmask leaves the signal mask
    // unchanged. The result only decides when the loop re-polls its
    // non-blocking socket, so an error return needs no handling.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Closed loop: each connection sends its next request only after the
/// previous answer arrived. Returns (answers, wall time, summed
/// latency); failures end the loop early and are counted.
pub fn closed_loop(
    addr: SocketAddr,
    per_conn: &[Vec<Vec<u8>>],
    duration: Duration,
) -> std::io::Result<(u64, Duration, Duration, u64)> {
    let streams = per_conn
        .iter()
        .map(|_| TcpStream::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let results: Vec<(u64, Duration, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(per_conn)
            .map(|(mut stream, reqs)| {
                scope.spawn(move || {
                    raise_priority();
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(DRAIN));
                    let (mut n, mut total, mut failed) = (0u64, Duration::ZERO, 0u64);
                    let mut buf = vec![0u8; 256 << 10];
                    for req in reqs.iter().cycle() {
                        if start.elapsed() >= duration {
                            break;
                        }
                        let t = Instant::now();
                        if stream.write_all(req).is_err() {
                            failed += 1;
                            break;
                        }
                        let mut filled = 0;
                        let status = loop {
                            match frame(&buf[..filled]) {
                                Ok(Some(f)) => break Some(f.status),
                                Ok(None) => {}
                                Err(_) => break None,
                            }
                            if filled == buf.len() {
                                buf.resize(buf.len() * 2, 0);
                            }
                            match stream.read(&mut buf[filled..]) {
                                Ok(0) | Err(_) => break None,
                                Ok(k) => filled += k,
                            }
                        };
                        total += t.elapsed();
                        if status != Some(200) {
                            failed += 1;
                            break;
                        }
                        n += 1;
                    }
                    (n, total, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let n = results.iter().map(|r| r.0).sum();
    let total = results.iter().map(|r| r.1).sum();
    let failed = results.iter().map(|r| r.2).sum();
    Ok((n, wall, total, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn frames_by_content_length_only() {
        let r =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(
            frame(r),
            Ok(Some(Frame {
                status: 200,
                body_start: 70,
                len: 75
            }))
        );
        assert_eq!(frame(&r[..74]), Ok(None));
        assert_eq!(frame(&r[..30]), Ok(None));
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(frame(b"SMTP 200\r\n\r\n").is_err());
    }

    /// A fake server: answers the requests on each connection with a
    /// 200, a 503 and a 400, leaves two unanswered, and hangs up.
    fn fake_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let conns: Vec<TcpStream> = (0..CONNS).map(|_| listener.accept().unwrap().0).collect();
            std::thread::scope(|s| {
                for stream in conns {
                    s.spawn(move || {
                        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                        let mut writer = stream;
                        for k in 0.. {
                            let mut len = 0;
                            loop {
                                let mut line = String::new();
                                if reader.read_line(&mut line).unwrap() == 0 {
                                    return;
                                }
                                if let Some(v) = line.strip_prefix("Content-Length: ") {
                                    len = v.trim().parse().unwrap();
                                }
                                if line == "\r\n" {
                                    break;
                                }
                            }
                            let mut body = vec![0; len];
                            reader.read_exact(&mut body).unwrap();
                            let status = match k {
                                0 => "200 OK",
                                1 => "503 Service Unavailable",
                                2 => "400 Bad Request",
                                3 => continue,
                                _ => return,
                            };
                            let msg = format!("HTTP/1.1 {status}\r\nContent-Length: 2\r\n\r\n{{}}");
                            writer.write_all(msg.as_bytes()).unwrap();
                        }
                    });
                }
            });
        });
        (addr, handle)
    }

    #[test]
    fn every_attempted_request_is_ok_failed_or_refused() {
        let (addr, server) = fake_server();
        let reqs: Vec<Req> = (0..10)
            .map(|k| Req {
                op: Op::Rank {
                    start: k,
                    len: 2,
                    top: 0,
                },
                conn: (k % 2) as usize,
                due_ns: 0,
            })
            .collect();
        let keep = vec![true; reqs.len()];
        let result = open_loop(addr, &reqs, &keep, None).unwrap();
        server.join().unwrap();
        let c = result.counts;
        assert!(c.balanced(), "{c:?}");
        assert_eq!(c.attempted, 10);
        assert_eq!(c.ok, 2);
        assert_eq!(c.refused, 2);
        assert_eq!(c.failed, 6, "one 400 and two unanswered per connection");
        assert_eq!(result.records[0].body.as_deref(), Some(&b"{}"[..]));
    }
}
