//! The answer checker, run off the clock: served `scores` must equal,
//! byte for byte, the same solve made through the library, and the
//! distance to a tight-tolerance solve of the same request is the
//! `score_err` quality guard: the relative L1 distance over the listed
//! pages, averaged over the distinct requests checked. (The mean over
//! distinct requests, rather than the largest, keeps it steady from seed
//! to seed; a looser convergence still moves it by orders of magnitude.)
//! The run reports it as `score_err` and, gated, as `score_digits`
//! (`-log10(score_err)`).

use std::collections::{BTreeMap, BTreeSet};

use approxrank_core::{ApproxRank, GlobalAggregates, GlobalPrecomputation, RankScores};
use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_pagerank::PageRankOptions;
use approxrank_store::json::{obj, Json};

use crate::workload::{Op, TOLERANCE};

/// Tolerance of the reference that `score_err` is measured against.
pub const REFERENCE_TOLERANCE: f64 = 1e-12;

/// The options a server request with this tolerance runs under.
pub fn options(tolerance: f64) -> PageRankOptions {
    PageRankOptions::paper()
        .with_damping(0.85)
        .with_tolerance(tolerance)
}

pub fn aggregates(graph: &DiGraph) -> GlobalAggregates {
    GlobalAggregates::from(&GlobalPrecomputation::compute(graph))
}

/// The library solve a read request asks for: the same entry points the
/// engine calls.
pub fn solve(graph: &DiGraph, agg: GlobalAggregates, op: &Op, tolerance: f64) -> RankScores {
    let members = op.members();
    let subgraph = Subgraph::extract(graph, NodeSet::from_sorted(graph.num_nodes(), members));
    let ranker = ApproxRank::new(options(tolerance));
    match op {
        Op::Rank { .. } => ranker.rank_subgraph(graph, &subgraph),
        Op::Keyword { base, .. } => ranker
            .rank_keyword_multi_aggregated_observed(
                agg,
                &subgraph,
                &[base.to_vec()],
                approxrank_trace::null(),
            )
            .pop()
            .expect("one column"),
        Op::Toggle { .. } => unreachable!("writes have no scores"),
    }
}

/// `(page, score)` in the order an answer lists them: score descending,
/// page ascending, cut to `top` (0 keeps all).
pub fn ranked(members: &[u32], scores: &[f64], top: u32) -> Vec<(u32, f64)> {
    let mut pairs: Vec<(u32, f64)> = members
        .iter()
        .copied()
        .zip(scores.iter().copied())
        .collect();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if top > 0 {
        pairs.truncate(top as usize);
    }
    pairs
}

/// The `"scores":[…]` bytes an answer must contain.
pub fn scores_bytes(pairs: &[(u32, f64)]) -> Vec<u8> {
    let arr = Json::Arr(
        pairs
            .iter()
            .map(|&(page, score)| {
                obj(vec![
                    ("page", Json::Num(page as f64)),
                    ("score", Json::Num(score)),
                ])
            })
            .collect(),
    );
    format!("\"scores\":{}", arr.emit()).into_bytes()
}

fn top_of(op: &Op) -> u32 {
    match *op {
        Op::Rank { top, .. } | Op::Keyword { top, .. } => top,
        Op::Toggle { .. } => 0,
    }
}

/// What checking one distinct request found.
pub struct Verdict {
    /// The `"scores"` bytes a correct answer carries.
    pub expected: Vec<u8>,
    /// L1 distance, over the listed pages, to the tight reference,
    /// divided by the reference's L1 mass on those pages.
    pub rel_l1: f64,
}

/// Solves `op` at the served tolerance and at [`REFERENCE_TOLERANCE`].
pub fn verdict(graph: &DiGraph, agg: GlobalAggregates, op: &Op) -> Verdict {
    let members = op.members();
    let served = solve(graph, agg, op, TOLERANCE);
    let tight = solve(graph, agg, op, REFERENCE_TOLERANCE);
    let listed = ranked(&members, &served.local_scores, top_of(op));
    let (mut diff, mut mass) = (0.0, 0.0);
    for &(page, score) in &listed {
        let local = members
            .binary_search(&page)
            .expect("listed page is a member");
        diff += (score - tight.local_scores[local]).abs();
        mass += tight.local_scores[local].abs();
    }
    Verdict {
        expected: scores_bytes(&listed),
        rel_l1: diff / mass,
    }
}

/// Whether `body` carries exactly the expected scores.
pub fn matches(body: &[u8], expected: &[u8]) -> bool {
    body.windows(expected.len()).any(|w| w == expected)
}

/// Checks `(op, body)` answers, solving each distinct op once on two
/// threads. Returns (wrong answers, `score_err`).
pub fn check_all(graph: &DiGraph, answers: &[(Op, Vec<u8>)]) -> (usize, f64) {
    let agg = aggregates(graph);
    let distinct: Vec<&Op> = answers
        .iter()
        .map(|(op, _)| op)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let verdicts: BTreeMap<Op, Verdict> = std::thread::scope(|scope| {
        let halves: Vec<_> = distinct
            .chunks(distinct.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&op| (op.clone(), verdict(graph, agg, op)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    let wrong = answers
        .iter()
        .filter(|(op, body)| !matches(body, &verdicts[op].expected))
        .count();
    let err = verdicts.values().map(|v| v.rel_l1).sum::<f64>() / verdicts.len().max(1) as f64;
    (wrong, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> DiGraph {
        let n = 3_000u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| [(u, (u * 7 + 3) % n), (u, (u * 13 + 1) % n)])
            .collect();
        DiGraph::from_edges(n as usize, &edges)
    }

    fn answer(graph: &DiGraph, op: &Op) -> Vec<u8> {
        let v = verdict(graph, aggregates(graph), op);
        let mut body = b"{\"algorithm\":\"approxrank\",".to_vec();
        body.extend_from_slice(&v.expected);
        body.push(b'}');
        body
    }

    #[test]
    fn accepts_exact_answers_and_rejects_a_corrupted_one() {
        let g = graph();
        let rank = Op::Rank {
            start: 100,
            len: 300,
            top: 0,
        };
        let kw = Op::Keyword {
            start: 500,
            len: 200,
            base: [510, 520],
            top: 50,
        };
        let good = vec![
            (rank.clone(), answer(&g, &rank)),
            (kw.clone(), answer(&g, &kw)),
        ];
        let (wrong, err) = check_all(&g, &good);
        assert_eq!(wrong, 0);
        assert!(err > 0.0 && err < 1e-2, "{err}");

        // Flip one digit of one score.
        let mut bad = good.clone();
        let body = &mut bad[0].1;
        let at = body.windows(8).position(|w| w == b"\"score\":").unwrap() + 12;
        body[at] = if body[at] == b'1' { b'2' } else { b'1' };
        assert_eq!(check_all(&g, &bad).0, 1);
    }

    #[test]
    fn listing_order_is_score_then_page() {
        let pairs = ranked(&[1, 2, 3, 4], &[0.1, 0.3, 0.3, 0.2], 3);
        assert_eq!(pairs, vec![(2, 0.3), (3, 0.3), (4, 0.2)]);
    }
}
