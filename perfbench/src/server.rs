//! The server under test as a child process, and what `/proc` says
//! about it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::frame;

/// How long a boot may take before the run gives up.
const BOOT_LIMIT: Duration = Duration::from_secs(60);
/// `/proc` reports CPU time in ticks of 1/100 s on Linux.
const TICKS_PER_S: f64 = 100.0;

/// A running `subrank serve`.
pub struct Spawned {
    child: Child,
    pub addr: SocketAddr,
}

impl Spawned {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the server and waits for it to exit.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A free loopback port (released before the server binds it).
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Spawns `subrank serve` with the default flags (plus a data directory
/// when given) and returns it once `/healthz` answers 200, with the time
/// from spawn to that answer.
pub fn boot(
    bin: &Path,
    graph: &Path,
    data_dir: Option<&Path>,
    log: &Path,
) -> std::io::Result<(Spawned, Duration)> {
    let addr: SocketAddr = format!("127.0.0.1:{}", free_port()?)
        .parse()
        .expect("loopback address");
    let mut cmd = Command::new(bin);
    cmd.arg("serve")
        .arg("--graph")
        .arg(graph)
        .args(["--addr", &addr.to_string()]);
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir).args(["--fsync", "interval"]);
    }
    let started = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(log)?)
        .spawn()?;
    let mut server = Spawned { child, addr };
    loop {
        if let Ok((200, _)) = get(addr, "/healthz") {
            return Ok((server, started.elapsed()));
        }
        if let Some(status) = server.child.try_wait()? {
            return Err(std::io::Error::other(format!(
                "server exited during boot ({status}); see {}",
                log.display()
            )));
        }
        if started.elapsed() > BOOT_LIMIT {
            return Err(std::io::Error::other("server did not become healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One request on a fresh connection; returns status and body.
pub fn request(addr: SocketAddr, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(raw)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    loop {
        match frame(&buf).map_err(std::io::Error::other)? {
            Some(f) => return Ok((f.status, buf[f.body_start..f.len].to_vec())),
            None => {
                let k = stream.read(&mut chunk)?;
                if k == 0 {
                    return Err(std::io::Error::other("connection closed mid-response"));
                }
                buf.extend_from_slice(&chunk[..k]);
            }
        }
    }
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// CPU seconds the live threads of process `pid` have run, summed from
/// `/proc/<pid>/task/*/schedstat` (nanoseconds, unlike the tick counts
/// of `/proc/<pid>/stat`). The server's threads live as long as it does.
pub fn thread_cpu_seconds(pid: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|text| text.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

/// User plus system CPU seconds a process has used, from
/// `/proc/<pid>/stat` (`"self"` for this process).
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Steal and total CPU ticks of the whole machine, from `/proc/stat`:
/// steal is time the hypervisor gave this machine's CPUs to another.
pub fn host_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_memory() {
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds("self") > 0.0);
        assert!(thread_cpu_seconds("self") > 0.0);
        assert!(peak_rss_mb("self") > 0.0);
        assert!(host_ticks().1 > 0);
    }
}
