//! The single-flight memo on the persistent pool: waiters help with the
//! leader's nested parallel work without deadlocking, and a panicking
//! leader hands its key to a waiter instead of stranding it.
//!
//! Every scenario runs under a watchdog, so a scheduling deadlock fails
//! the test instead of hanging the suite.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::time::Duration;
use vdbench_core::Memo;

/// Pins `RAYON_NUM_THREADS` for one test; the variable is process-wide.
fn width(n: usize) -> MutexGuard<'static, ()> {
    static ENV: Mutex<()> = Mutex::new(());
    let guard = ENV
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    guard
}

/// Runs `f` on its own thread and fails if it has not finished in time.
fn watchdog(limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in {limit:?}: deadlock"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("watched scenario panicked"),
    }
}

fn pause() {
    std::thread::sleep(Duration::from_micros(50));
}

/// The leader of a key runs a nested parallel call while sibling items
/// (directly, and from inside nested calls of their own) wait on the same
/// key. Waiters may help only with the leader's descendant work; helping
/// with any queued job would let the leader, while waiting for its own
/// nested call, pick up a sibling block that needs the key it is still
/// computing further down its own stack.
#[test]
fn memo_leader_nested_call_with_waiting_siblings_never_deadlocks() {
    let _w = width(3);
    watchdog(Duration::from_secs(60), || {
        for round in 0..200u64 {
            let memo: Memo<u64, u64> = Memo::new();
            let computed = AtomicUsize::new(0);
            let lead = || {
                computed.fetch_add(1, Ordering::Relaxed);
                let parts: Vec<u64> = (0..24usize)
                    .into_par_iter()
                    .map(|i| {
                        pause();
                        i as u64 + round
                    })
                    .collect();
                parts.into_iter().sum()
            };
            let expected: u64 = (0..24).map(|i| i + round).sum();
            let out: Vec<u64> = (0..6usize)
                .into_par_iter()
                .map(|i| {
                    if i % 2 == 0 {
                        memo.get_or_compute(round, lead).0
                    } else {
                        let seen: Vec<u64> = (0..8usize)
                            .into_par_iter()
                            .map(|_| {
                                pause();
                                memo.get_or_compute(round, lead).0
                            })
                            .collect();
                        assert!(seen.iter().all(|&v| v == expected));
                        seen[0]
                    }
                })
                .collect();
            assert_eq!(out, vec![expected; 6]);
            assert_eq!(computed.load(Ordering::Relaxed), 1, "single flight");
        }
    });
}

/// A leader that panics — here inside a nested parallel call its waiters
/// are helping with — releases the key: exactly one waiter takes over,
/// and every waiter gets that value.
#[test]
fn panicking_leader_hands_the_key_to_a_waiter() {
    let _w = width(3);
    watchdog(Duration::from_secs(60), || {
        for _ in 0..20 {
            let memo: Memo<u8, u64> = Memo::new();
            let takeovers = AtomicUsize::new(0);
            let started = Barrier::new(4);
            std::thread::scope(|s| {
                let leader = s.spawn(|| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        memo.get_or_compute(1, || {
                            started.wait();
                            let parts: Vec<u64> = (0..32usize)
                                .into_par_iter()
                                .map(|i| {
                                    std::thread::sleep(Duration::from_micros(200));
                                    assert_ne!(i, 20, "leader fails mid-flight");
                                    i as u64
                                })
                                .collect();
                            parts.into_iter().sum()
                        })
                    }))
                });
                let waiters: Vec<_> = (0..3)
                    .map(|_| {
                        s.spawn(|| {
                            started.wait();
                            memo.get_or_compute(1, || {
                                takeovers.fetch_add(1, Ordering::Relaxed);
                                7
                            })
                        })
                    })
                    .collect();
                assert!(
                    leader.join().unwrap().is_err(),
                    "the leader's panic reaches it"
                );
                let got: Vec<(u64, bool)> =
                    waiters.into_iter().map(|w| w.join().unwrap()).collect();
                assert!(got.iter().all(|&(v, _)| v == 7), "{got:?}");
                assert_eq!(got.iter().filter(|&&(_, computed)| computed).count(), 1);
            });
            assert_eq!(takeovers.load(Ordering::Relaxed), 1);
            assert_eq!(
                memo.get_or_compute(1, || 8),
                (7, false),
                "the takeover is kept"
            );
        }
    });
}
