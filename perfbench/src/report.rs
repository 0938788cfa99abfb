//! Output: every metric with its unit and sample count, the host facts,
//! a machine-readable copy, and the one-line result the last line of
//! standard output carries.

use std::path::Path;

use approxrank_store::json::{obj, Json};

use crate::bench::Env;
use crate::stats::Counts;

pub const DATASET: &str = "subrank gen --dataset politics --pages 200000 --seed 7";

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    fn json(&self) -> Json {
        obj(vec![
            ("value", Json::Num(finite(self.value))),
            ("unit", Json::Str(self.unit.into())),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

pub struct Report {
    /// The metrics the result line carries: end-to-end untraced,
    /// per-layer traced.
    metrics: Vec<Metric>,
    /// Everything else worth reading, printed and saved but not part of
    /// the result line.
    info: Vec<Metric>,
    facts: Vec<(String, String)>,
    counts: Counts,
    wrong_answers: u64,
    checks_ok: bool,
}

impl Report {
    pub fn new(env: &Env, traced: bool) -> Report {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown (not a git checkout)".into());
        let flush = if env.workload.durable() {
            "--data-dir <fresh> --fsync interval (100 ms)"
        } else {
            "none (in-memory server)"
        };
        let facts = vec![
            ("workload".into(), env.workload.name().into()),
            ("seed".into(), env.seed.to_string()),
            ("seconds".into(), env.seconds.to_string()),
            ("trace".into(), (traced as u8).to_string()),
            ("nproc".into(), nproc.to_string()),
            ("git_sha".into(), sha),
            ("dataset".into(), DATASET.into()),
            ("flush_policy".into(), flush.into()),
            (
                "server".into(),
                "subrank serve --threads 2 --cache-entries 4096 --batch-window-ms 2 (defaults)"
                    .into(),
            ),
            (
                "client".into(),
                "open loop, 2 keep-alive connections, 2 threads, raw HTTP".into(),
            ),
        ];
        Report {
            metrics: Vec::new(),
            info: Vec::new(),
            facts,
            counts: Counts::default(),
            wrong_answers: 0,
            checks_ok: false,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn fact(&mut self, name: &str, value: &str) {
        self.facts.push((name.into(), value.into()));
    }

    /// Records the run's request counts, the answers the checker
    /// rejected, and whether the run's other checks passed.
    pub fn finish(&mut self, counts: Counts, wrong_answers: usize, checks_ok: bool) {
        self.counts = counts;
        self.wrong_answers = wrong_answers as u64;
        self.checks_ok = checks_ok;
    }

    pub fn correct(&self) -> bool {
        self.checks_ok
            && self.wrong_answers == 0
            && self.counts.not_ok() == 0
            && self.counts.balanced()
    }

    fn json(&self) -> Json {
        let group =
            |ms: &[Metric]| Json::Obj(ms.iter().map(|m| (m.name.clone(), m.json())).collect());
        obj(vec![
            (
                "facts",
                Json::Obj(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.counts.attempted as f64)),
            ("ok", Json::Num(self.counts.ok as f64)),
            ("failed", Json::Num(self.counts.failed as f64)),
            ("refused", Json::Num(self.counts.refused as f64)),
            ("metrics", group(&self.metrics)),
            ("info", group(&self.info)),
        ])
    }

    /// Writes the machine-readable copy.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.json().emit() + "\n")
    }

    /// Prints the readable report, then the result line last.
    pub fn print(&self) {
        for (k, v) in &self.facts {
            println!("# {k}: {v}");
        }
        println!(
            "# {:<34} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in self.metrics.iter().chain(&self.info) {
            let v = finite(m.value);
            // Small values keep their significant digits.
            let value = if v != 0.0 && v.abs() < 0.01 {
                format!("{v:.6e}")
            } else {
                format!("{v:.6}")
            };
            println!(
                "{:<36} {:>16} {:<6} {:>8}",
                m.name, value, m.unit, m.samples
            );
        }
        println!(
            "# requests: attempted {} ok {} failed {} refused {}",
            self.counts.attempted, self.counts.ok, self.counts.failed, self.counts.refused
        );
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj(vec![
                            ("value", Json::Num(finite(m.value))),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.counts.attempted.max(1) as f64)),
            (
                "failed",
                Json::Num((self.counts.not_ok() + self.wrong_answers) as f64),
            ),
            ("metrics", metrics),
        ]);
        println!("{}", line.emit());
    }
}
