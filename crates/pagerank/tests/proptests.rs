//! Property-based tests for the PageRank engine.

use approxrank_graph::DiGraph;
use approxrank_pagerank::authority::{authority_flow, FlowModel};
use approxrank_pagerank::{pagerank, pagerank_with_start, PageRankOptions, WeightedDiGraph};
use proptest::prelude::*;

fn graphs() -> impl Strategy<Value = DiGraph> {
    (2usize..50).prop_flat_map(|n| {
        let edge = (0u32..n as u32, 0u32..n as u32);
        proptest::collection::vec(edge, 0..180).prop_map(move |es| DiGraph::from_edges(n, &es))
    })
}

fn tight() -> PageRankOptions {
    PageRankOptions::paper().with_tolerance(1e-12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scores_are_a_probability_distribution(g in graphs()) {
        let r = pagerank(&g, &tight());
        prop_assert!(r.converged);
        prop_assert!((r.total_mass() - 1.0).abs() < 1e-8);
        let n = g.num_nodes() as f64;
        for &s in &r.scores {
            // Teleport floor: every page keeps at least (1−ε)/N.
            prop_assert!(s >= 0.15 / n - 1e-12, "score {s} below teleport floor");
            prop_assert!(s < 1.0);
        }
    }

    #[test]
    fn fixed_point_is_stable(g in graphs()) {
        let r = pagerank(&g, &tight());
        let n = g.num_nodes();
        let p = vec![1.0 / n as f64; n];
        let again = pagerank_with_start(&g, &tight(), &p, &r.scores);
        prop_assert!(again.iterations <= 2, "restarting at the fixed point");
        for (a, b) in r.scores.iter().zip(&again.scores) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_equals_serial(g in graphs()) {
        let serial = pagerank(&g, &tight());
        for threads in [2usize, 5] {
            let par = pagerank(&g, &tight().with_threads(threads));
            prop_assert_eq!(serial.iterations, par.iterations);
            for (a, b) in serial.scores.iter().zip(&par.scores) {
                prop_assert_eq!(a, b, "bit-identical per-node summation");
            }
        }
    }

    #[test]
    fn more_in_links_never_hurt(g in graphs(), extra in 0u32..40) {
        // Adding an in-link to a page never decreases its score.
        let n = g.num_nodes();
        prop_assume!(n >= 3);
        let target = extra % n as u32;
        let source = (extra + 1) % n as u32;
        prop_assume!(source != target);
        prop_assume!(!g.has_edge(source, target));
        prop_assume!(g.out_degree(source) == 0); // dangling → gains a link
        let before = pagerank(&g, &tight());
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.push((source, target));
        let g2 = DiGraph::from_edges(n, &edges);
        let after = pagerank(&g2, &tight());
        // The dangling page previously spread 1/n to `target`; now it sends
        // its whole mass there.
        prop_assert!(after.scores[target as usize] >= before.scores[target as usize] - 1e-9);
    }

    #[test]
    fn authority_flow_stochastic_matches_pagerank(g in graphs()) {
        let w = WeightedDiGraph::from_unweighted(&g);
        let n = g.num_nodes();
        let p = vec![1.0 / n as f64; n];
        let a = authority_flow(&w, &tight(), &p, FlowModel::Stochastic);
        let b = pagerank(&g, &tight());
        for (x, y) in a.scores.iter().zip(&b.scores) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn damping_sweep_converges(g in graphs(), damping in 0.05f64..0.95) {
        let o = PageRankOptions::default()
            .with_damping(damping)
            .with_tolerance(1e-10);
        let r = pagerank(&g, &o);
        prop_assert!(r.converged);
        prop_assert!((r.total_mass() - 1.0).abs() < 1e-7);
    }
}
