//! ApproxRank (paper §IV): the practical solution when external PageRank
//! scores are unknown.
//!
//! `Λ`'s row treats all external pages as equally important (Equation 7):
//! `E_approx = [1/(N−n), …, 1/(N−n)]`. Everything else — the local block,
//! the `to_lambda` column, the personalization vector — is identical to
//! IdealRank, so the error analysis of §IV-C applies verbatim (see
//! [`crate::theory`]).

use approxrank_exec::{Executor, Partition};
use approxrank_graph::{DiGraph, Subgraph};
use approxrank_pagerank::{emit_exec_stats, PageRankOptions, PageRankResult};
use approxrank_trace::Observer;

use crate::extended::ExtendedLocalGraph;
use crate::par::boundary_partition;
use crate::precompute::{GlobalAggregates, GlobalPrecomputation};
use crate::ranker::{RankScores, SubgraphRanker};

/// The ApproxRank algorithm.
#[derive(Clone, Debug, Default)]
pub struct ApproxRank {
    /// Solver settings (damping, tolerance, iteration cap).
    pub options: PageRankOptions,
}

impl ApproxRank {
    /// Creates an ApproxRank solver with explicit options.
    pub fn new(options: PageRankOptions) -> Self {
        ApproxRank { options }
    }

    /// Builds `A_approx` for `subgraph`, scanning the global graph's
    /// degree array once for the external dangling-page count. For
    /// multi-subgraph workloads, precompute that count once with
    /// [`GlobalPrecomputation`] and use
    /// [`ApproxRank::extended_graph_precomputed`].
    pub fn extended_graph(&self, global: &DiGraph, subgraph: &Subgraph) -> ExtendedLocalGraph {
        let pre = GlobalPrecomputation::compute(global);
        self.extended_graph_precomputed(&pre, subgraph)
    }

    /// An executor sized from `self.options.threads`, clamped so tiny
    /// subgraphs never pay for idle workers.
    fn executor(&self, subgraph: &Subgraph) -> Executor {
        Executor::new(self.options.threads.min(subgraph.len().max(1)))
    }

    /// Builds `A_approx` using precomputed global aggregates; runs in
    /// `O(n + boundary)` — no pass over the global graph (the
    /// precomputation fast path of §IV-B's last paragraph).
    pub fn extended_graph_precomputed(
        &self,
        pre: &GlobalPrecomputation,
        subgraph: &Subgraph,
    ) -> ExtendedLocalGraph {
        self.extended_graph_precomputed_on(pre, subgraph, &self.executor(subgraph))
    }

    /// [`Self::extended_graph_precomputed`] on a caller-supplied executor:
    /// the dangling census, the Λ-row accumulation over the boundary
    /// in-edges, and the CSR assembly all fan out over the pool. The chunk
    /// grid depends only on the subgraph, so the collapsed matrix is
    /// bit-identical at any thread count.
    pub fn extended_graph_precomputed_on(
        &self,
        pre: &GlobalPrecomputation,
        subgraph: &Subgraph,
        exec: &Executor,
    ) -> ExtendedLocalGraph {
        assert_eq!(
            pre.num_nodes(),
            subgraph.global_nodes(),
            "precomputation is for a different graph"
        );
        self.extended_graph_aggregated_on(GlobalAggregates::from(pre), subgraph, exec)
    }

    /// Builds `A_approx` from just the two global scalars a shard carries
    /// ([`GlobalAggregates`]): the Λ-collapse reads nothing else of the
    /// global graph, so a per-shard subgraph view plus these scalars yields
    /// the same matrix — bit-for-bit — as the full-graph path.
    pub fn extended_graph_aggregated(
        &self,
        agg: GlobalAggregates,
        subgraph: &Subgraph,
    ) -> ExtendedLocalGraph {
        self.extended_graph_aggregated_on(agg, subgraph, &self.executor(subgraph))
    }

    /// [`Self::extended_graph_aggregated`] on a caller-supplied executor.
    pub fn extended_graph_aggregated_on(
        &self,
        agg: GlobalAggregates,
        subgraph: &Subgraph,
        exec: &Executor,
    ) -> ExtendedLocalGraph {
        let n = subgraph.len();
        let big_n = subgraph.global_nodes();
        assert_eq!(agg.num_nodes, big_n, "aggregates are for a different graph");
        if big_n == n {
            return ExtendedLocalGraph::new_on(subgraph, vec![0.0; n], 0.0, exec);
        }
        let num_ext = (big_n - n) as f64;
        let node_part = Partition::uniform(n, Partition::auto_chunks(n));

        // Dangling pages among the external set = global dangling count
        // minus the subgraph's own dangling pages.
        let degs = subgraph.global_out_degrees();
        let local_dangling = exec
            .map_reduce(
                &node_part,
                |_, range| degs[range].iter().filter(|&&d| d == 0).count(),
                |a, b| a + b,
            )
            .unwrap_or(0);
        let ext_dangling = (agg.num_dangling - local_dangling) as f64;

        // Λ → k: uniform-weighted boundary in-flow plus dangling share.
        // Each chunk owns a disjoint target range (see `boundary_partition`),
        // so every `from_lambda` entry is accumulated by exactly one task,
        // in edge order — the same order a serial scan uses.
        let edges = &subgraph.boundary().in_edges;
        let (edge_part, target_part) = boundary_partition(edges, n);
        let mut from_lambda = vec![0.0f64; n];
        let boundary_flow = exec
            .map_chunks(
                &mut from_lambda,
                &target_part,
                |c, trange, slot| {
                    let mut flow = 0.0;
                    for e in &edges[edge_part.range(c)] {
                        let w = 1.0 / e.source_out_degree as f64;
                        slot[e.target_local as usize - trange.start] += w;
                        flow += w;
                    }
                    flow
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        let inv_big_n = 1.0 / big_n as f64;
        let per_local_dangling = ext_dangling * inv_big_n;
        exec.for_each_chunk(&mut from_lambda, &node_part, |_, _, slot| {
            for f in slot {
                *f = (*f + per_local_dangling) / num_ext;
            }
        });
        // Each non-dangling external page's row sums to 1; its local share
        // is counted in boundary_flow, the rest stays external. Dangling
        // external pages send (N−n)/N of their uniform row to Λ.
        let nondangling_ext = num_ext - ext_dangling;
        let lambda_self =
            ((nondangling_ext - boundary_flow) + ext_dangling * num_ext * inv_big_n) / num_ext;
        ExtendedLocalGraph::new_on(subgraph, from_lambda, lambda_self, exec)
    }

    /// Runs ApproxRank, returning local scores plus `Λ`'s score.
    pub fn rank_subgraph(&self, global: &DiGraph, subgraph: &Subgraph) -> RankScores {
        self.rank_subgraph_observed(global, subgraph, approxrank_trace::null())
    }

    /// [`Self::rank_subgraph`] with telemetry: a `collapse_lambda` span
    /// around the `A_approx` assembly, solver events from the power
    /// iteration, and a `normalize` span around the score split.
    pub fn rank_subgraph_observed(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        obs: &dyn Observer,
    ) -> RankScores {
        let exec = self.executor(subgraph);
        let ext = {
            let _span = obs.span("collapse_lambda");
            let pre = GlobalPrecomputation::compute(global);
            self.extended_graph_precomputed_on(&pre, subgraph, &exec)
        };
        let scores = Self::solve_scores(&ext, &self.options, subgraph.len(), obs);
        emit_exec_stats(&exec, obs);
        scores
    }

    /// Runs ApproxRank with precomputed global aggregates.
    pub fn rank_subgraph_precomputed(
        &self,
        pre: &GlobalPrecomputation,
        subgraph: &Subgraph,
    ) -> RankScores {
        self.rank_subgraph_precomputed_observed(pre, subgraph, approxrank_trace::null())
    }

    /// [`Self::rank_subgraph_precomputed`] with telemetry.
    pub fn rank_subgraph_precomputed_observed(
        &self,
        pre: &GlobalPrecomputation,
        subgraph: &Subgraph,
        obs: &dyn Observer,
    ) -> RankScores {
        let exec = self.executor(subgraph);
        let ext = {
            let _span = obs.span("collapse_lambda");
            self.extended_graph_precomputed_on(pre, subgraph, &exec)
        };
        let scores = Self::solve_scores(&ext, &self.options, subgraph.len(), obs);
        emit_exec_stats(&exec, obs);
        scores
    }

    /// Runs ApproxRank from shard-carried global scalars alone.
    pub fn rank_subgraph_aggregated(
        &self,
        agg: GlobalAggregates,
        subgraph: &Subgraph,
    ) -> RankScores {
        self.rank_subgraph_aggregated_observed(agg, subgraph, approxrank_trace::null())
    }

    /// [`Self::rank_subgraph_aggregated`] with telemetry.
    pub fn rank_subgraph_aggregated_observed(
        &self,
        agg: GlobalAggregates,
        subgraph: &Subgraph,
        obs: &dyn Observer,
    ) -> RankScores {
        let exec = self.executor(subgraph);
        let ext = {
            let _span = obs.span("collapse_lambda");
            self.extended_graph_aggregated_on(agg, subgraph, &exec)
        };
        let scores = Self::solve_scores(&ext, &self.options, subgraph.len(), obs);
        emit_exec_stats(&exec, obs);
        scores
    }

    /// A batch of *keyword* queries over one subgraph: one Λ-collapse,
    /// then one [`Self::rank_keyword_on`] solve per base set. Each answer
    /// is exactly what a singleton request for its base set computes.
    ///
    /// Every base set must be strictly sorted, non-empty, and within the
    /// global graph.
    pub fn rank_keyword_multi_aggregated_observed(
        &self,
        agg: GlobalAggregates,
        subgraph: &Subgraph,
        bases: &[Vec<u32>],
        obs: &dyn Observer,
    ) -> Vec<RankScores> {
        let exec = self.executor(subgraph);
        let ext = {
            let _span = obs.span("collapse_lambda");
            self.extended_graph_aggregated_on(agg, subgraph, &exec)
        };
        emit_exec_stats(&exec, obs);
        bases
            .iter()
            .map(|base| self.rank_keyword_on(&ext, subgraph, base, obs))
            .collect()
    }

    /// Scores one *keyword* query on an already built collapse: the
    /// personalization teleports uniformly into the base set
    /// (ObjectRank-style, `1/|B|` per base page; base pages outside the
    /// subgraph contribute their share to `Λ` — see
    /// [`ExtendedLocalGraph::collapse_sparse_personalization`]). The
    /// collapse reads neither damping nor tolerance, so one `ext` serves
    /// keyword queries under any options.
    ///
    /// `base` must be strictly sorted, non-empty, and within the global
    /// graph.
    pub fn rank_keyword_on(
        &self,
        ext: &ExtendedLocalGraph,
        subgraph: &Subgraph,
        base: &[u32],
        obs: &dyn Observer,
    ) -> RankScores {
        assert!(!base.is_empty(), "keyword base set must be non-empty");
        let p =
            ext.collapse_sparse_personalization(subgraph.nodes(), base, 1.0 / base.len() as f64);
        split_lambda(ext.solve_personalized_observed(&self.options, &p, obs))
    }

    fn solve_scores(
        ext: &ExtendedLocalGraph,
        options: &PageRankOptions,
        n: usize,
        obs: &dyn Observer,
    ) -> RankScores {
        let result = ext.solve_observed(options, obs);
        let _span = obs.span("normalize");
        let scores = split_lambda(result);
        debug_assert_eq!(scores.local_scores.len(), n);
        scores
    }
}

/// Splits an `n + 1`-state solution into local scores and `Λ`'s score.
fn split_lambda(result: PageRankResult) -> RankScores {
    let mut scores = result.scores;
    let lambda = scores.pop().expect("n+1 states");
    RankScores {
        local_scores: scores,
        lambda_score: Some(lambda),
        iterations: result.iterations,
        converged: result.converged,
        estimate: None,
    }
}

impl SubgraphRanker for ApproxRank {
    fn name(&self) -> &'static str {
        "ApproxRank"
    }

    fn rank(&self, global: &DiGraph, subgraph: &Subgraph) -> RankScores {
        self.rank_subgraph(global, subgraph)
    }

    fn rank_observed(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        obs: &dyn Observer,
    ) -> RankScores {
        self.rank_subgraph_observed(global, subgraph, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::NodeSet;
    use approxrank_pagerank::pagerank;

    fn figure4() -> DiGraph {
        DiGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 4),
                (0, 6),
                (1, 3),
                (2, 1),
                (2, 3),
                (3, 0),
                (4, 2),
                (4, 5),
                (4, 6),
                (5, 2),
                (5, 6),
                (6, 2),
                (6, 3),
            ],
        )
    }

    fn tight() -> PageRankOptions {
        PageRankOptions::paper().with_tolerance(1e-13)
    }

    #[test]
    fn figure6_matrix_entries() {
        // The worked example of §IV-B, end-to-end through ApproxRank.
        let g = figure4();
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let e = ApproxRank::default().extended_graph(&g, &sub);
        assert!((e.to_lambda()[0] - 0.5).abs() < 1e-12, "(A,Λ) = 1/2");
        assert!(
            (e.from_lambda()[2] - 4.0 / 9.0).abs() < 1e-12,
            "(Λ,C) = 4/9"
        );
        assert!((e.lambda_self() - 7.0 / 18.0).abs() < 1e-12, "(Λ,Λ) = 7/18");
        assert!(e.max_row_sum_error() < 1e-12);
    }

    #[test]
    fn approx_close_to_truth_on_figure4() {
        let g = figure4();
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let approx = ApproxRank::new(tight());
        let r = approx.rank_subgraph(&g, &sub);
        assert!(r.converged);
        let restricted = sub.nodes().restrict(&truth.scores);
        let l1: f64 = r
            .local_scores
            .iter()
            .zip(&restricted)
            .map(|(a, b)| (a - b).abs())
            .sum();
        // Theorem 2 bound with ε=0.85: ‖E−E_approx‖₁·ε/(1−ε) ≥ l1; on this
        // tiny graph the uniform assumption is decent.
        assert!(l1 < 0.2, "L1 {l1}");
        // Ordering is fully preserved on this example.
        let rank = |v: &[f64]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
            idx
        };
        assert_eq!(rank(&r.local_scores), rank(&restricted));
    }

    #[test]
    fn precomputed_path_identical() {
        let g = figure4();
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let approx = ApproxRank::new(tight());
        let pre = GlobalPrecomputation::compute(&g);
        let a = approx.rank_subgraph(&g, &sub);
        let b = approx.rank_subgraph_precomputed(&pre, &sub);
        assert_eq!(a, b);
    }

    #[test]
    fn aggregated_path_identical() {
        // The shard-serving contract: two global scalars reproduce the
        // full-graph solve bit-for-bit.
        let g = figure4();
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let approx = ApproxRank::new(tight());
        let a = approx.rank_subgraph(&g, &sub);
        let b = approx.rank_subgraph_aggregated(GlobalAggregates::compute(&g), &sub);
        assert_eq!(a, b);
    }

    #[test]
    fn keyword_batch_matches_personalized_solves_bitwise() {
        // One collapse, k base sets: each answer is exactly a singleton
        // personalized solve on the same collapse.
        let g = figure4();
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let approx = ApproxRank::new(tight());
        let agg = GlobalAggregates::compute(&g);
        let ext = approx.extended_graph_aggregated(agg, &sub);
        // {2, 3, 5} straddles the subgraph boundary.
        let bases = [vec![2u32, 3, 5], vec![0], vec![2, 3, 5]];
        let batch = approx.rank_keyword_multi_aggregated_observed(
            agg,
            &sub,
            &bases,
            approxrank_trace::null(),
        );
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], batch[2]);
        for (base, answer) in bases.iter().zip(&batch) {
            let p = ext.collapse_sparse_personalization(sub.nodes(), base, 1.0 / base.len() as f64);
            let single = ext.solve_personalized(&tight(), &p);
            let mut bits: Vec<u64> = answer.local_scores.iter().map(|x| x.to_bits()).collect();
            bits.push(answer.lambda_score.unwrap().to_bits());
            let expect: Vec<u64> = single.scores.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, expect);
            assert_eq!(answer.iterations, single.iterations);
        }
        assert_ne!(batch[0], batch[1]);
    }

    #[test]
    #[should_panic(expected = "aggregates are for a different graph")]
    fn aggregated_rejects_wrong_graph_size() {
        let g = figure4();
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1]));
        let agg = GlobalAggregates {
            num_nodes: 9,
            num_dangling: 0,
        };
        ApproxRank::default().extended_graph_aggregated(agg, &sub);
    }

    #[test]
    fn matrix_stochastic_with_dangling() {
        // Dangling pages both local (2) and external (5).
        let g = DiGraph::from_edges(6, &[(0, 1), (0, 3), (1, 2), (3, 1), (3, 4), (4, 0), (4, 5)]);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(6, [0, 1, 2]));
        let e = ApproxRank::default().extended_graph(&g, &sub);
        assert!(e.max_row_sum_error() < 1e-12);
        let r = ApproxRank::new(tight()).rank_subgraph(&g, &sub);
        let total = r.local_mass() + r.lambda_score.unwrap();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn thread_count_does_not_change_scores() {
        // A few hundred nodes so the chunk grid actually splits; scores
        // must match bit-for-bit between threads ∈ {1, 2, 7}.
        let n = 360u32;
        let mut edges = Vec::new();
        for i in 0..n {
            if i % 17 == 2 {
                continue; // dangling
            }
            edges.push((i, (i * 13 + 5) % n));
            edges.push((i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push((i, (i % 11) * 7));
            }
        }
        let g = DiGraph::from_edges(n as usize, &edges);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(n as usize, 40..260u32));
        let reference = ApproxRank::new(tight()).rank_subgraph(&g, &sub);
        for threads in [2usize, 7] {
            let r = ApproxRank::new(tight().with_threads(threads)).rank_subgraph(&g, &sub);
            assert_eq!(reference, r, "threads={threads}");
        }
    }

    #[test]
    fn whole_graph_reduces_to_pagerank() {
        let g = figure4();
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, 0..7));
        let r = ApproxRank::new(tight()).rank_subgraph(&g, &sub);
        for k in 0..7 {
            assert!((r.local_scores[k] - truth.scores[k]).abs() < 1e-8);
        }
        assert!(r.lambda_score.unwrap() < 1e-8);
    }
}
