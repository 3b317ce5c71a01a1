//! A single-flight memo: each key is computed at most once at a time, and
//! threads that want a key already being computed wait for that flight
//! instead of starting their own.
//!
//! Waiting does not idle a pool thread. The leader computes inside its
//! flight's [`rayon::Signal::scope`], so the parallel calls it makes
//! descend from the flight, and a waiter spends its wait working through
//! their blocks ([`rayon::Signal::wait`]). A waiter helps only with that
//! descending work, never with unrelated queued jobs, so it cannot stack a
//! job that needs a flight suspended further down its own stack.
//!
//! A leader that panics releases its flight: its slot is removed and its
//! waiters wake, and the first of them to come back takes over as the new
//! leader. No waiter is left waiting on a computation that will never
//! finish.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One computation in progress: its completion signal and, once the
/// leader succeeds, its value.
struct Flight<V> {
    signal: rayon::Signal,
    value: OnceLock<V>,
}

enum Slot<V> {
    Ready(V),
    InFlight(Arc<Flight<V>>),
}

/// A process-wide map from keys to computed values with single-flight
/// computation (see the [module docs](self)).
///
/// ```
/// use vdbench_core::memo::Memo;
///
/// static SQUARES: Memo<u64, u64> = Memo::new();
/// assert_eq!(SQUARES.get_or_compute(7, || 49), (49, true));
/// // The second request is a hit: the closure does not run.
/// assert_eq!(SQUARES.get_or_compute(7, || unreachable!()), (49, false));
/// ```
pub struct Memo<K, V> {
    slots: Mutex<HashMap<K, Slot<V>, BuildHasherDefault<DefaultHasher>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

impl<K, V> Memo<K, V> {
    /// An empty memo (usable in a `static`).
    #[must_use]
    pub const fn new() -> Self {
        Memo {
            slots: Mutex::new(HashMap::with_hasher(BuildHasherDefault::new())),
        }
    }

    /// Forgets every entry. A computation in flight still completes and
    /// hands its value to its waiters, but the value is not retained.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The slot map. It is never locked across a computation, so a
    /// panicking leader cannot poison it; the recovery is for form.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>, BuildHasherDefault<DefaultHasher>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// The value for `key`, computed by `compute` unless it is already
    /// known or being computed by another thread. The flag is `true` when
    /// this call ran `compute`.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        loop {
            let flight = {
                let mut slots = self.lock();
                match slots.get(&key) {
                    Some(Slot::Ready(value)) => return (value.clone(), false),
                    Some(Slot::InFlight(flight)) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight {
                            signal: rayon::Signal::new(),
                            value: OnceLock::new(),
                        });
                        slots.insert(key.clone(), Slot::InFlight(Arc::clone(&flight)));
                        drop(slots);
                        return (self.lead(key, &flight, compute), true);
                    }
                }
            };
            flight.signal.wait();
            if let Some(value) = flight.value.get() {
                return (value.clone(), false);
            }
            // The leader panicked and released the key: take over, or
            // wait on whoever took over first.
        }
    }

    /// Computes `key` as the leader of `flight` and publishes the value.
    fn lead(&self, key: K, flight: &Arc<Flight<V>>, compute: impl FnOnce() -> V) -> V {
        /// Ends the flight on every exit path: a panicking leader leaves
        /// no value behind, so its waiters retry.
        struct Land<'a, K: Eq + Hash, V: Clone> {
            memo: &'a Memo<K, V>,
            key: Option<K>,
            flight: &'a Arc<Flight<V>>,
        }
        impl<K: Eq + Hash, V: Clone> Drop for Land<'_, K, V> {
            fn drop(&mut self) {
                let Some(key) = self.key.take() else { return };
                {
                    let mut slots = self.memo.lock();
                    // After a `clear` the slot may be gone or belong to a
                    // newer flight; only our own is replaced.
                    if matches!(slots.get(&key), Some(Slot::InFlight(f)) if Arc::ptr_eq(f, self.flight))
                    {
                        match self.flight.value.get() {
                            Some(value) => {
                                slots.insert(key, Slot::Ready(value.clone()));
                            }
                            None => {
                                slots.remove(&key);
                            }
                        }
                    }
                }
                self.flight.signal.raise();
            }
        }
        let land = Land {
            memo: self,
            key: Some(key),
            flight,
        };
        let value = flight.signal.scope(compute);
        let _ = flight.value.set(value.clone());
        drop(land);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn computes_once_and_counts_hits() {
        let memo: Memo<&str, u32> = Memo::new();
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::Relaxed);
            42
        };
        assert_eq!(memo.get_or_compute("a", compute), (42, true));
        assert_eq!(memo.get_or_compute("a", compute), (42, false));
        assert_eq!(memo.get_or_compute("b", compute), (42, true));
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        memo.clear();
        assert_eq!(memo.get_or_compute("a", compute), (42, true));
        assert_eq!(runs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_requests_share_one_flight() {
        let memo: Memo<u8, Arc<u64>> = Memo::new();
        let runs = AtomicUsize::new(0);
        let results: Vec<(Arc<u64>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_compute(1, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(30));
                            Arc::new(9)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(results.iter().filter(|(_, computed)| *computed).count(), 1);
        assert!(results.iter().all(|(v, _)| Arc::ptr_eq(v, &results[0].0)));
    }

    #[test]
    fn clear_during_a_flight_still_answers_its_waiters() {
        let memo: Memo<u8, u32> = Memo::new();
        let waiter_got = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                memo.get_or_compute(3, || {
                    std::thread::sleep(Duration::from_millis(40));
                    7
                })
            });
            std::thread::sleep(Duration::from_millis(10));
            let waiter = s.spawn(|| memo.get_or_compute(3, || 8));
            std::thread::sleep(Duration::from_millis(10));
            memo.clear();
            assert_eq!(leader.join().unwrap(), (7, true));
            waiter.join().unwrap()
        });
        match waiter_got {
            // Joined the cleared flight: answered by it, and the value
            // was not retained.
            (7, false) => assert_eq!(memo.get_or_compute(3, || 9), (9, true)),
            // Arrived after the clear: computed afresh and kept.
            (8, true) => assert_eq!(memo.get_or_compute(3, || 9), (8, false)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
