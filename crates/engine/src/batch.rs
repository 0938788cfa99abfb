//! The `BatchScheduler`: request coalescing for the engine's cold path.
//!
//! One mechanism, used twice: an in-flight table keyed on *what a
//! computation reads*, so sharing is always bit-safe. The first arrival
//! for a key leads and computes; concurrent arrivals with the same key
//! follow and receive the leader's value verbatim.
//!
//! * **Rank dedup** — `/rank` requests with the same [`CacheKey`]
//!   (algorithm, options, membership, effective graph epoch) share one
//!   cold solve. The cache key pins every solver input, so a follower's
//!   answer is byte-identical to the solve it would have run itself.
//! * **Shared Λ-collapse** — keyword requests over the same (effective
//!   epoch, membership) share one extraction and Λ-collapse. The
//!   collapse reads neither damping, tolerance, nor the base set, so
//!   every request — leader or follower — then solves its own base set
//!   on the shared structure.
//!
//! Leaders publish through a lease guard: if a leader panics or errors,
//! followers receive a cloned error instead of hanging.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use approxrank_core::ExtendedLocalGraph;
use approxrank_graph::Subgraph;

use crate::cache::{CacheKey, CachedResult};
use crate::engine::EngineError;

/// Point-in-time scheduler counters for `/stats` and `/metrics`.
///
/// Amortization reads off directly: `keyword_columns / keyword_solves`
/// is how many keyword requests each Λ-collapse served, and
/// `rank_coalesced / rank_leaders` is how many duplicate solves the
/// in-flight table absorbed per cold one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Cold rank solves that led an in-flight entry.
    pub rank_leaders: u64,
    /// Rank requests served by another request's in-flight solve.
    pub rank_coalesced: u64,
    /// Λ-collapses built for keyword requests (one per leader of the
    /// collapse table).
    pub keyword_solves: u64,
    /// Keyword requests answered on those collapses (leaders and
    /// followers alike).
    pub keyword_columns: u64,
    /// Keyword requests that shared another request's collapse instead
    /// of building one.
    pub keyword_coalesced: u64,
}

/// A one-shot broadcast cell: the leader publishes once, any number of
/// followers wait.
pub(crate) struct Flight<V> {
    state: Mutex<Option<Result<V, EngineError>>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<V, EngineError>) {
        let mut state = lock(&self.state);
        if state.is_none() {
            *state = Some(result);
        }
        self.cv.notify_all();
    }
}

impl<V: Clone> Flight<V> {
    pub(crate) fn wait(&self) -> Result<V, EngineError> {
        let mut state = lock(&self.state);
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Where a request landed in an in-flight table.
pub(crate) enum Slot<'a, K: Hash + Eq, V> {
    /// This request computes; it must call [`Lease::finish`].
    Leader(Lease<'a, K, V>),
    /// Another request is already computing the identical key.
    Follower(Arc<Flight<V>>),
}

/// The leader's obligation to publish: dropping it without
/// [`Lease::finish`] (a panic mid-computation) broadcasts
/// `Unavailable` so followers never hang.
pub(crate) struct Lease<'a, K: Hash + Eq, V> {
    table: &'a InFlight<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    done: bool,
}

impl<K: Hash + Eq, V> Lease<'_, K, V> {
    pub(crate) fn finish(mut self, result: Result<V, EngineError>) {
        self.done = true;
        self.table.remove(&self.key, &self.flight);
        self.flight.publish(result);
    }
}

impl<K: Hash + Eq, V> Drop for Lease<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            self.table.remove(&self.key, &self.flight);
            self.flight.publish(Err(EngineError::Unavailable(
                "in-flight leader aborted".into(),
            )));
        }
    }
}

/// Computations in progress, one [`Flight`] per key, plus how many
/// requests led and followed.
pub(crate) struct InFlight<K, V> {
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
    leaders: AtomicU64,
    followers: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> InFlight<K, V> {
    fn new() -> Self {
        InFlight {
            flights: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
        }
    }

    /// Claims or joins the in-flight entry for `key`.
    pub(crate) fn join(&self, key: K) -> Slot<'_, K, V> {
        let mut map = lock(&self.flights);
        if let Some(flight) = map.get(&key) {
            self.followers.fetch_add(1, Ordering::Relaxed);
            return Slot::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        map.insert(key.clone(), Arc::clone(&flight));
        drop(map);
        self.leaders.fetch_add(1, Ordering::Relaxed);
        Slot::Leader(Lease {
            table: self,
            key,
            flight,
            done: false,
        })
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.leaders.load(Ordering::Relaxed),
            self.followers.load(Ordering::Relaxed),
        )
    }
}

impl<K: Hash + Eq, V> InFlight<K, V> {
    /// Removes `key`'s flight *if it is still this flight* (a successor
    /// leader may have re-inserted the key already).
    fn remove(&self, key: &K, flight: &Arc<Flight<V>>) {
        let mut map = lock(&self.flights);
        if map.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            map.remove(key);
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// What keyword requests share: the extracted subgraph and its
/// Λ-collapse, keyed by (effective graph epoch, membership).
pub(crate) type Collapse = Arc<(Subgraph, ExtendedLocalGraph)>;

/// The engine's coalescing state: the rank in-flight table and the
/// keyword collapse table, plus the `batch_*` counters.
pub(crate) struct BatchScheduler {
    pub(crate) rank: InFlight<CacheKey, CachedResult>,
    pub(crate) collapse: InFlight<(u64, Vec<u32>), Collapse>,
    keyword_answers: AtomicU64,
}

impl BatchScheduler {
    pub(crate) fn new() -> Self {
        BatchScheduler {
            rank: InFlight::new(),
            collapse: InFlight::new(),
            keyword_answers: AtomicU64::new(0),
        }
    }

    /// Counts one keyword request answered on a shared collapse.
    pub(crate) fn record_keyword_answer(&self) {
        self.keyword_answers.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> BatchStats {
        let (rank_leaders, rank_coalesced) = self.rank.counts();
        let (keyword_solves, keyword_coalesced) = self.collapse.counts();
        BatchStats {
            rank_leaders,
            rank_coalesced,
            keyword_solves,
            keyword_columns: self.keyword_answers.load(Ordering::Relaxed),
            keyword_coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;

    fn result(tag: usize) -> CachedResult {
        CachedResult {
            scores: Arc::new(vec![(tag as u32, 1.0)]),
            lambda: None,
            iterations: tag,
            converged: true,
            estimate: None,
        }
    }

    #[test]
    fn followers_receive_the_leaders_result() {
        let sched = Arc::new(BatchScheduler::new());
        let key = cache_key(0, 0.85, 1e-8, 0, 0, &[1, 2, 3]);
        let Slot::Leader(lease) = sched.rank.join(key.clone()) else {
            panic!("first arrival must lead");
        };
        let follower = match sched.rank.join(key.clone()) {
            Slot::Follower(f) => f,
            Slot::Leader(_) => panic!("second arrival must follow"),
        };
        let waiter = {
            let follower = Arc::clone(&follower);
            std::thread::spawn(move || follower.wait())
        };
        lease.finish(Ok(result(9)));
        assert_eq!(waiter.join().unwrap().unwrap().iterations, 9);
        // The flight is gone: the next arrival leads again.
        assert!(matches!(sched.rank.join(key), Slot::Leader(_)));
        let s = sched.stats();
        assert_eq!((s.rank_leaders, s.rank_coalesced), (2, 1));
    }

    #[test]
    fn dropped_lease_unblocks_followers_with_unavailable() {
        let sched = BatchScheduler::new();
        let key = cache_key(0, 0.85, 1e-8, 0, 0, &[4]);
        let Slot::Leader(lease) = sched.rank.join(key.clone()) else {
            panic!();
        };
        let Slot::Follower(follower) = sched.rank.join(key) else {
            panic!();
        };
        drop(lease); // leader panicked / aborted
        assert!(matches!(follower.wait(), Err(EngineError::Unavailable(_))));
    }

    #[test]
    fn failed_collapse_reaches_followers_and_frees_the_key() {
        let sched = BatchScheduler::new();
        let key = (3u64, vec![1u32, 2, 3]);
        let Slot::Leader(lease) = sched.collapse.join(key.clone()) else {
            panic!("first arrival must lead");
        };
        let Slot::Follower(follower) = sched.collapse.join(key.clone()) else {
            panic!("second arrival must follow");
        };
        lease.finish(Err(EngineError::Unavailable("build failed".into())));
        assert!(matches!(follower.wait(), Err(EngineError::Unavailable(_))));
        // A different epoch or membership never joins; the freed key leads.
        assert!(matches!(
            sched.collapse.join((4, vec![1, 2, 3])),
            Slot::Leader(_)
        ));
        assert!(matches!(sched.collapse.join(key), Slot::Leader(_)));
        let s = sched.stats();
        assert_eq!((s.keyword_solves, s.keyword_coalesced), (3, 1));
    }
}
