//! The four workloads: what each request asks for, which connection it
//! goes on, and when it is due. Everything here is a pure function of
//! the seed and the graph, so a seed names the exact request stream.

use std::io::Write as _;

use approxrank_graph::DiGraph;

use crate::rng::Rng;

/// Pages per `rank_hot` key.
pub const HOT_SPAN: u32 = 500;
/// Distinct `rank_hot` keys.
pub const HOT_KEYS: usize = 64;
/// Zipf exponent of `rank_hot` key popularity.
pub const HOT_ZIPF: f64 = 1.1;
/// Pages per `rank_cold` membership.
pub const COLD_SPAN: u32 = 5_000;
/// Pages per `keyword_pair` membership.
pub const PAIR_SPAN: u32 = 2_000;
/// Scores returned per `rank_cold` / `keyword_pair` answer.
pub const TOP: u32 = 50;
/// Tolerance every request asks for (the server's default).
pub const TOLERANCE: f64 = 1e-5;
/// `mixed_write`: every this-many-th request is a write.
pub const WRITE_EVERY: u64 = 10;
/// `mixed_write`: edges the writes toggle in turn.
pub const TOGGLE_EDGES: usize = 16;
/// Client connections (and client threads).
pub const CONNS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RankHot,
    RankCold,
    KeywordPair,
    MixedWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RankHot,
        Workload::RankCold,
        Workload::KeywordPair,
        Workload::MixedWrite,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RankHot => "rank_hot",
            Workload::RankCold => "rank_cold",
            Workload::KeywordPair => "keyword_pair",
            Workload::MixedWrite => "mixed_write",
        }
    }

    /// The `p99_ms` limit the capacity search holds the server to.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::RankHot => 5.0,
            Workload::RankCold => 25.0,
            Workload::KeywordPair => 25.0,
            Workload::MixedWrite => 100.0,
        }
    }

    /// The frozen offered rate (requests/s) of the fixed-rate phase,
    /// about half the capacity measured when the benchmark was added.
    pub fn fixed_rps(self) -> f64 {
        match self {
            Workload::RankHot => 1_200.0,
            Workload::RankCold => 170.0,
            Workload::KeywordPair => 130.0,
            Workload::MixedWrite => 75.0,
        }
    }

    /// The capacity measured when the benchmark was added, where the
    /// search starts.
    pub fn base_capacity(self) -> f64 {
        match self {
            Workload::RankHot => 2_600.0,
            Workload::RankCold => 340.0,
            Workload::KeywordPair => 260.0,
            Workload::MixedWrite => 160.0,
        }
    }

    /// Whether the server runs with a data directory.
    pub fn durable(self) -> bool {
        self == Workload::MixedWrite
    }
}

/// One request, before it is rendered to bytes.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `POST /rank` over pages `start .. start + len`.
    Rank { start: u32, len: u32, top: u32 },
    /// `POST /keyword` over pages `start .. start + len` with a base set.
    Keyword {
        start: u32,
        len: u32,
        base: [u32; 2],
        top: u32,
    },
    /// `POST /graph/edges` inserting or deleting one edge.
    Toggle { src: u32, dst: u32, insert: bool },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Toggle { .. })
    }

    /// The membership a read ranks, as a sorted id list.
    pub fn members(&self) -> Vec<u32> {
        match *self {
            Op::Rank { start, len, .. } | Op::Keyword { start, len, .. } => {
                (start..start + len).collect()
            }
            Op::Toggle { .. } => Vec::new(),
        }
    }

    /// The request body, written by hand: the client never calls a JSON
    /// codec.
    pub fn body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match *self {
            Op::Rank { start, len, top } => {
                out.extend_from_slice(b"{\"members\":");
                push_range(&mut out, start, len);
                write!(out, ",\"top\":{top},\"tolerance\":{TOLERANCE:e}}}").expect("vec write");
            }
            Op::Keyword {
                start,
                len,
                base,
                top,
            } => {
                out.extend_from_slice(b"{\"members\":");
                push_range(&mut out, start, len);
                write!(
                    out,
                    ",\"base\":[{},{}],\"top\":{top},\"tolerance\":{TOLERANCE:e}}}",
                    base[0], base[1]
                )
                .expect("vec write");
            }
            Op::Toggle { src, dst, insert } => {
                let field = if insert { "insert" } else { "delete" };
                write!(out, "{{\"{field}\":[[{src},{dst}]]}}").expect("vec write");
            }
        }
        out
    }

    pub fn path(&self) -> &'static str {
        match self {
            Op::Rank { .. } => "/rank",
            Op::Keyword { .. } => "/keyword",
            Op::Toggle { .. } => "/graph/edges",
        }
    }

    /// The whole HTTP/1.1 request as raw bytes.
    pub fn render(&self) -> Vec<u8> {
        let body = self.body();
        let mut out = Vec::with_capacity(body.len() + 96);
        write!(
            out,
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.path(),
            body.len()
        )
        .expect("vec write");
        out.extend_from_slice(&body);
        out
    }
}

fn push_range(out: &mut Vec<u8>, start: u32, len: u32) {
    out.push(b'[');
    for (i, id) in (start..start + len).enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write!(out, "{id}").expect("vec write");
    }
    out.push(b']');
}

/// A request placed on the schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub op: Op,
    /// Which client connection sends it.
    pub conn: usize,
    /// When it is due, from the start of its phase.
    pub due_ns: u64,
}

/// Visits `0..m` in a seeded order without repeats: `j ↦ (a·j + b) mod m`
/// with `gcd(a, m) = 1` is a bijection on `0..m`. With `a` near `m`
/// times the golden ratio's fraction, any run of consecutive `j` spreads
/// evenly over `0..m` (a Weyl sequence), so every seed samples the whole
/// graph rather than one region of it.
#[derive(Clone, Debug)]
pub struct Permutation {
    a: u64,
    b: u64,
    m: u64,
}

impl Permutation {
    pub fn new(m: u64, rng: &mut Rng) -> Permutation {
        assert!(m > 0, "empty permutation");
        let golden = (m as f64 * 0.618_033_988_749_895) as u64;
        let mut a = (golden + rng.below(m / 1_000 + 1)).clamp(1, m);
        while gcd(a, m) != 1 {
            a = a % m + 1;
        }
        Permutation {
            a,
            b: rng.below(m),
            m,
        }
    }

    pub fn at(&self, j: u64) -> u64 {
        ((self.a as u128 * (j % self.m) as u128 + self.b as u128) % self.m as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The seeded request stream of one workload. Phases draw from it in
/// turn, so memberships that must not repeat never repeat within a run.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    /// Requests drawn so far (reads and writes).
    issued: u64,
    /// Memberships drawn so far (`rank_cold`, `keyword_pair`).
    fresh: u64,
    perm: Permutation,
    hot_starts: Vec<u32>,
    hot_cdf: Vec<f64>,
    toggles: Vec<(u32, u32)>,
    toggle_visits: Vec<u64>,
    writes: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, graph: &DiGraph) -> Stream {
        let pages = graph.num_nodes() as u64;
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(workload as u64));
        let span = match workload {
            Workload::RankCold => COLD_SPAN,
            Workload::KeywordPair => PAIR_SPAN,
            Workload::RankHot | Workload::MixedWrite => HOT_SPAN,
        } as u64;
        assert!(pages > span, "graph too small for the workload");
        let perm = Permutation::new(pages - span + 1, &mut rng);
        let mut hot_starts = Vec::new();
        let mut hot_cdf = Vec::new();
        if matches!(workload, Workload::RankHot | Workload::MixedWrite) {
            let keys = Permutation::new(pages - span + 1, &mut rng);
            hot_starts = (0..HOT_KEYS as u64).map(|j| keys.at(j) as u32).collect();
            let weights: Vec<f64> = (1..=HOT_KEYS)
                .map(|r| 1.0 / (r as f64).powf(HOT_ZIPF))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            hot_cdf = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect();
        }
        let toggles = if workload == Workload::MixedWrite {
            pick_toggles(graph, &hot_starts, &mut rng)
        } else {
            Vec::new()
        };
        Stream {
            workload,
            rng,
            issued: 0,
            fresh: 0,
            perm,
            toggle_visits: vec![0; toggles.len()],
            hot_starts,
            hot_cdf,
            toggles,
            writes: 0,
        }
    }

    /// The `rank_hot` / `mixed_write` key memberships, as start pages.
    pub fn hot_starts(&self) -> &[u32] {
        &self.hot_starts
    }

    /// Toggle edges currently inserted: deleting them restores the base
    /// graph.
    pub fn inserted_toggles(&self) -> Vec<(u32, u32)> {
        self.toggles
            .iter()
            .zip(&self.toggle_visits)
            .filter(|(_, &v)| v % 2 == 1)
            .map(|(&e, _)| e)
            .collect()
    }

    /// Takes back a drawn request that was never sent (a trial stopped
    /// early), so the toggle state matches what the server saw. Unsent
    /// requests are a suffix of each connection's sequence, and an
    /// edge's writes all share a connection.
    pub fn unsend(&mut self, op: &Op) {
        if let Op::Toggle { src, dst, .. } = *op {
            let edge = self
                .toggles
                .iter()
                .position(|&e| e == (src, dst))
                .expect("toggle edge");
            self.toggle_visits[edge] -= 1;
        }
    }

    fn hot_op(&mut self) -> Op {
        let u = self.rng.unit();
        let key = self.hot_cdf.partition_point(|&c| c <= u).min(HOT_KEYS - 1);
        Op::Rank {
            start: self.hot_starts[key],
            len: HOT_SPAN,
            top: 0,
        }
    }

    fn fresh_start(&mut self) -> u32 {
        let start = self.perm.at(self.fresh) as u32;
        self.fresh += 1;
        start
    }

    /// The next arrival: one request, or a `keyword_pair` pair that is
    /// due at the same instant, one on each connection.
    fn next_arrival(&mut self) -> Vec<(Op, usize)> {
        let k = self.issued;
        let out = match self.workload {
            Workload::RankHot => vec![(self.hot_op(), (k % 2) as usize)],
            Workload::RankCold => {
                let start = self.fresh_start();
                vec![(
                    Op::Rank {
                        start,
                        len: COLD_SPAN,
                        top: TOP,
                    },
                    (k % 2) as usize,
                )]
            }
            Workload::KeywordPair => {
                let start = self.fresh_start();
                let a = self.base_pair(start, None);
                let b = self.base_pair(start, Some(a));
                [a, b]
                    .into_iter()
                    .enumerate()
                    .map(|(conn, base)| {
                        (
                            Op::Keyword {
                                start,
                                len: PAIR_SPAN,
                                base,
                                top: TOP,
                            },
                            conn,
                        )
                    })
                    .collect()
            }
            Workload::MixedWrite => {
                if k % WRITE_EVERY == WRITE_EVERY - 1 {
                    let edge = (self.writes % self.toggles.len() as u64) as usize;
                    self.writes += 1;
                    let (src, dst) = self.toggles[edge];
                    let insert = self.toggle_visits[edge].is_multiple_of(2);
                    self.toggle_visits[edge] += 1;
                    // An edge's insert and delete share a connection, so
                    // the server sees them in order.
                    vec![(Op::Toggle { src, dst, insert }, edge % CONNS)]
                } else {
                    vec![(self.hot_op(), (k % 2) as usize)]
                }
            }
        };
        self.issued += out.len() as u64;
        out
    }

    fn base_pair(&mut self, start: u32, not: Option<[u32; 2]>) -> [u32; 2] {
        loop {
            let x = start + self.rng.below(PAIR_SPAN as u64) as u32;
            let y = start + self.rng.below(PAIR_SPAN as u64) as u32;
            if x == y {
                continue;
            }
            let base = [x.min(y), x.max(y)];
            if Some(base) != not {
                return base;
            }
        }
    }

    /// `n` requests at `rate` requests/s on a seeded Poisson schedule.
    pub fn phase(&mut self, rate: f64, n: usize) -> Vec<Req> {
        let per_arrival = if self.workload == Workload::KeywordPair {
            2.0
        } else {
            1.0
        };
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n + 1);
        while out.len() < n {
            t += self.rng.exp_gap(rate / per_arrival);
            let due_ns = (t * 1e9) as u64;
            for (op, conn) in self.next_arrival() {
                out.push(Req { op, conn, due_ns });
            }
        }
        out
    }

    /// `n` requests with no schedule, for closed-loop and warm-up use.
    pub fn draw(&mut self, n: usize) -> Vec<Req> {
        let mut out = Vec::with_capacity(n + 1);
        while out.len() < n {
            for (op, conn) in self.next_arrival() {
                out.push(Req {
                    op,
                    conn,
                    due_ns: 0,
                });
            }
        }
        out
    }
}

/// Chooses the edges `mixed_write` toggles: absent from the base graph,
/// half inside a read membership and half outside every one. The inside
/// edges fall in the most popular keys, one key each, so every seed
/// invalidates about the same share of the reads.
fn pick_toggles(graph: &DiGraph, hot_starts: &[u32], rng: &mut Rng) -> Vec<(u32, u32)> {
    let pages = graph.num_nodes() as u64;
    let in_key = |p: u32| hot_starts.iter().any(|&s| p >= s && p < s + HOT_SPAN);
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(TOGGLE_EDGES);
    while out.len() < TOGGLE_EDGES {
        let (src, dst) = if out.len().is_multiple_of(2) {
            // `hot_starts` is in popularity order.
            let s = hot_starts[out.len() / 2];
            (
                s + rng.below(HOT_SPAN as u64) as u32,
                s + rng.below(HOT_SPAN as u64) as u32,
            )
        } else {
            let (a, b) = (rng.below(pages) as u32, rng.below(pages) as u32);
            if in_key(a) || in_key(b) {
                continue;
            }
            (a, b)
        };
        if src != dst && !graph.has_edge(src, dst) && !out.contains(&(src, dst)) {
            out.push((src, dst));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn graph() -> DiGraph {
        let n = 30_000u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
        DiGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_memberships() {
        let g = graph();
        for w in Workload::ALL {
            let a = Stream::new(w, 5, &g).phase(300.0, 400);
            let b = Stream::new(w, 5, &g).phase(300.0, 400);
            assert_eq!(a, b, "{}", w.name());
            let c = Stream::new(w, 6, &g).phase(300.0, 400);
            let members =
                |reqs: &[Req]| -> Vec<Vec<u32>> { reqs.iter().map(|r| r.op.members()).collect() };
            assert_ne!(members(&a), members(&c), "{}", w.name());
        }
    }

    #[test]
    fn fresh_memberships_never_repeat_within_a_run() {
        let g = graph();
        for w in [Workload::RankCold, Workload::KeywordPair] {
            let mut s = Stream::new(w, 11, &g);
            let mut seen = HashSet::new();
            for phase in 0..4 {
                for pair in
                    s.phase(500.0, 2_000)
                        .chunks(if w == Workload::KeywordPair { 2 } else { 1 })
                {
                    let m = pair[0].op.members();
                    assert!(pair.iter().all(|r| r.op.members() == m));
                    assert!(
                        seen.insert(m),
                        "{} repeated a membership in phase {phase}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn permutation_spreads_over_the_range() {
        // Any 100 consecutive draws leave no tenth of the range empty.
        let mut rng = Rng::new(8);
        for _ in 0..20 {
            let p = Permutation::new(195_001, &mut rng);
            let start = rng.below(10_000);
            let mut deciles = [0; 10];
            for j in start..start + 100 {
                deciles[(p.at(j) * 10 / 195_001) as usize] += 1;
            }
            assert!(deciles.iter().all(|&d| d >= 5), "{deciles:?}");
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng::new(3);
        for m in [1u64, 2, 7, 360, 1_001] {
            let p = Permutation::new(m, &mut rng);
            let hits: HashSet<u64> = (0..m).map(|j| p.at(j)).collect();
            assert_eq!(hits.len() as u64, m);
        }
    }

    #[test]
    fn keyword_pairs_share_an_instant_and_differ_in_base() {
        let g = graph();
        let reqs = Stream::new(Workload::KeywordPair, 2, &g).phase(400.0, 200);
        for pair in reqs.chunks(2) {
            assert_eq!(pair[0].due_ns, pair[1].due_ns);
            assert_eq!((pair[0].conn, pair[1].conn), (0, 1));
            assert_ne!(pair[0].op, pair[1].op);
        }
    }

    #[test]
    fn toggles_alternate_and_stay_on_one_connection() {
        let g = graph();
        let mut s = Stream::new(Workload::MixedWrite, 9, &g);
        let reqs = s.phase(200.0, 1_000);
        let writes: Vec<&Req> = reqs.iter().filter(|r| r.op.is_write()).collect();
        assert_eq!(writes.len(), 100);
        let mut state: std::collections::HashMap<(u32, u32), (bool, usize)> = Default::default();
        for r in writes {
            let Op::Toggle { src, dst, insert } = r.op else {
                unreachable!()
            };
            assert!(!g.has_edge(src, dst));
            let prev = state.insert((src, dst), (insert, r.conn));
            match prev {
                None => assert!(insert),
                Some((was, conn)) => {
                    assert_ne!(was, insert);
                    assert_eq!(conn, r.conn);
                }
            }
        }
        let inside = s
            .toggles
            .iter()
            .filter(|&&(a, _)| s.hot_starts.iter().any(|&h| a >= h && a < h + HOT_SPAN))
            .count();
        assert!(inside >= TOGGLE_EDGES / 2);
        // 100 writes over 16 edges: the first 4 edges saw 7 visits and
        // are left inserted.
        assert_eq!(s.inserted_toggles(), s.toggles[..4].to_vec());
    }

    #[test]
    fn bodies_are_valid_json_for_the_server() {
        for op in [
            Op::Rank {
                start: 3,
                len: 4,
                top: 0,
            },
            Op::Keyword {
                start: 10,
                len: 3,
                base: [10, 12],
                top: 50,
            },
            Op::Toggle {
                src: 1,
                dst: 2,
                insert: false,
            },
        ] {
            let body = String::from_utf8(op.body()).unwrap();
            approxrank_store::json::parse(&body).unwrap();
            let raw = op.render();
            assert!(raw.ends_with(body.as_bytes()));
        }
        let body = String::from_utf8(
            Op::Rank {
                start: 3,
                len: 3,
                top: 0,
            }
            .body(),
        )
        .unwrap();
        assert_eq!(body, "{\"members\":[3,4,5],\"top\":0,\"tolerance\":1e-5}");
    }
}
