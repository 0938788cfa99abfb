//! Percentiles, request accounting, and the capacity search's rule.

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(q · n)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples that lie beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Fewest samples whose `q` percentile has at least ten samples beyond
/// it — the rule for reporting a tail.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= 10).expect("q < 1")
}

/// The `q` percentile of `values` (in arrival order) as the median over
/// consecutive blocks, each large enough for the tail rule: a stall that
/// hits one block moves one block's tail, not the reported one. `None`
/// when even one block is too small.
pub fn blocked_tail(values: &[f64], q: f64) -> Option<f64> {
    let blocks = values.len() / min_samples(q);
    if blocks == 0 {
        return None;
    }
    let size = values.len() / blocks;
    let mut tails: Vec<f64> = values
        .chunks(size)
        .take(blocks)
        .map(|block| {
            let mut b = block.to_vec();
            b.sort_by(f64::total_cmp);
            percentile(&b, q).expect("non-empty block")
        })
        .collect();
    tails.sort_by(f64::total_cmp);
    let mid = tails.len() / 2;
    Some(if tails.len() % 2 == 1 {
        tails[mid]
    } else {
        (tails[mid - 1] + tails[mid]) / 2.0
    })
}

/// Indices of the `k` smallest of `values` (the first on ties), in
/// index order.
pub fn smallest(values: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order.truncate(k);
    order.sort_unstable();
    order
}

/// A latency sample with its count, reported only where the tail rule
/// holds.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q` percentile whatever the sample size.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted, q)
    }

    pub fn median(&self) -> Option<f64> {
        percentile(&self.sorted, 0.5)
    }

    /// The `q` percentile, or `None` when fewer than ten samples lie
    /// beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        (beyond(self.sorted.len(), q) >= 10)
            .then(|| percentile(&self.sorted, q))
            .flatten()
    }
}

/// What happened to the requests of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests written to a connection.
    pub attempted: u64,
    /// Answered 200 with a well-framed body.
    pub ok: u64,
    /// Answered with an error status, badly framed, or never answered.
    pub failed: u64,
    /// Answered 429 or 503: the server declined the work.
    pub refused: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// Every attempted request is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.failed + self.refused
    }

    /// Failed or refused, the share counted by `fail_frac`.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.refused
    }
}

/// The capacity search: grow the offered rate by `grow` until a trial
/// misses the limit (or shrink until one meets it), squaring the factor
/// (up to 2) after each move so a large change is bracketed in a few
/// trials; then bisect geometrically until the bracket is finer
/// than `step`.
#[derive(Clone, Debug)]
pub struct RateSearch {
    pass: Option<f64>,
    fail: Option<f64>,
    next: f64,
    grow: f64,
    step: f64,
    trials: usize,
    max_trials: usize,
}

impl RateSearch {
    pub fn new(start: f64, grow: f64, step: f64, max_trials: usize) -> RateSearch {
        assert!(start > 0.0 && grow > 1.0 && step > 0.0);
        RateSearch {
            pass: None,
            fail: None,
            next: start,
            grow,
            step,
            trials: 0,
            max_trials,
        }
    }

    /// The rate to try next, or `None` once the search has stopped.
    pub fn next_rate(&self) -> Option<f64> {
        if self.trials >= self.max_trials {
            return None;
        }
        match (self.pass, self.fail) {
            (Some(lo), Some(hi)) if hi / lo <= 1.0 + self.step => None,
            _ => Some(self.next),
        }
    }

    pub fn record(&mut self, rate: f64, met: bool) {
        self.trials += 1;
        if met {
            self.pass = Some(self.pass.map_or(rate, |p| p.max(rate)));
        } else {
            self.fail = Some(self.fail.map_or(rate, |f| f.min(rate)));
        }
        self.next = match (self.pass, self.fail) {
            (Some(lo), Some(hi)) => (lo * hi).sqrt(),
            (Some(lo), None) => lo * self.grow,
            (None, Some(hi)) => hi / self.grow,
            (None, None) => unreachable!("a trial was just recorded"),
        };
        if self.trials > 1 {
            self.grow = (self.grow * self.grow).min(2.0);
        }
    }

    /// The highest rate that met the limit (0 when none did).
    pub fn capacity(&self) -> f64 {
        self.pass.unwrap_or(0.0)
    }

    pub fn trials(&self) -> usize {
        self.trials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_keeps_the_quietest_in_order() {
        let steal = [0.05, 0.0, 0.2, 0.01, 0.0];
        assert_eq!(smallest(&steal, 3), vec![1, 3, 4]);
        assert_eq!(smallest(&steal, 9), vec![0, 1, 2, 3, 4]);
        assert!(smallest(&[], 3).is_empty());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        let s = Sample::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.median(), Some(2.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.99), 1_000);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let s = Sample::new((0..999).map(f64::from).collect());
        assert_eq!(s.tail(0.99), None);
        let s = Sample::new((0..1_000).map(f64::from).collect());
        assert_eq!(s.tail(0.99), Some(989.0));
        assert_eq!(s.tail(0.5), Some(499.0));
    }

    #[test]
    fn blocked_tails_take_the_median_block() {
        assert_eq!(blocked_tail(&[1.0; 999], 0.99), None);
        // One block: the plain nearest-rank p99.
        let v: Vec<f64> = (0..1_500).map(f64::from).collect();
        assert_eq!(blocked_tail(&v, 0.99), Some(1_484.0));
        // Three blocks of 1000, one hit by a stall: the stall is ignored.
        let mut v = vec![1.0; 3_000];
        for x in &mut v[1_000..1_100] {
            *x = 50.0;
        }
        assert_eq!(blocked_tail(&v, 0.99), Some(1.0));
        // Two blocks: the mean of the two.
        let mut v = vec![1.0; 2_000];
        v[1_500..].iter_mut().for_each(|x| *x = 3.0);
        assert_eq!(blocked_tail(&v, 0.99), Some(2.0));
    }

    #[test]
    fn rate_search_stops_when_the_bracket_is_finer_than_a_step() {
        // A server that meets the limit up to 1000 req/s, searched from
        // near, below, and above it.
        for start in [950.0, 400.0, 2_500.0] {
            let mut search = RateSearch::new(start, 1.1, 0.03, 30);
            let mut rates = Vec::new();
            while let Some(rate) = search.next_rate() {
                rates.push(rate);
                search.record(rate, rate <= 1_000.0);
            }
            let cap = search.capacity();
            assert!(cap <= 1_000.0 && cap > 1_000.0 / 1.03, "{start}: {cap}");
            assert!(search.trials() <= 12, "{start}: {rates:?}");
        }
        // From a good estimate, the search takes few trials.
        let mut search = RateSearch::new(950.0, 1.1, 0.03, 30);
        while let Some(rate) = search.next_rate() {
            search.record(rate, rate <= 1_000.0);
        }
        assert!(search.trials() <= 5, "{}", search.trials());
    }

    #[test]
    fn rate_search_gives_up_after_its_trial_budget() {
        let mut search = RateSearch::new(100.0, 1.5, 0.03, 5);
        while let Some(rate) = search.next_rate() {
            search.record(rate, false);
        }
        assert_eq!(search.trials(), 5);
        assert_eq!(search.capacity(), 0.0);
    }

    #[test]
    fn counts_balance() {
        let mut total = Counts::default();
        total.add(Counts {
            attempted: 10,
            ok: 7,
            failed: 2,
            refused: 1,
        });
        total.add(Counts {
            attempted: 5,
            ok: 5,
            failed: 0,
            refused: 0,
        });
        assert!(total.balanced());
        assert_eq!(total.not_ok(), 3);
        assert!(!Counts {
            attempted: 3,
            ok: 1,
            failed: 1,
            refused: 0
        }
        .balanced());
    }
}
