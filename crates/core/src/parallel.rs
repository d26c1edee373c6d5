//! Dependency-free data parallelism for experiment sweeps.
//!
//! The experiment matrix (mixes × policies × configurations) is
//! embarrassingly parallel: every simulation is deterministic and
//! independent. [`par_map`] fans a task list out over scoped OS threads
//! with work stealing (an atomic cursor), and returns results in input
//! order — so a sweep's output is bit-identical no matter how many
//! threads run it, including one.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why a sweep cell failed without producing a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The worker panicked (a real bug or an injected fault); the panic
    /// was caught on the worker and isolated to this cell.
    Panic,
    /// The cell exceeded its wall-clock budget (the `--cell-timeout`
    /// watchdog, or a request deadline in the sweep server) and was
    /// abandoned between simulation slices.
    Timeout,
}

impl CellErrorKind {
    /// Past-tense verb for reports (`panicked` / `timed out`).
    pub fn verb(self) -> &'static str {
        match self {
            CellErrorKind::Panic => "panicked",
            CellErrorKind::Timeout => "timed out",
        }
    }
}

/// A sweep cell that failed: the cell index plus the failure kind and
/// message, carried in the result lattice instead of tearing down the
/// whole sweep (see [`par_map_isolated`]).
#[derive(Clone, Debug)]
pub struct CellError {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Panic or wall-clock timeout.
    pub kind: CellErrorKind,
    /// The panic message (`"non-string panic payload"` when the payload
    /// was not a string), or a description of the exhausted budget.
    pub message: String,
}

impl CellError {
    /// A watchdog/deadline expiry for item `index`.
    pub fn timeout(index: usize, message: impl Into<String>) -> CellError {
        CellError {
            index,
            kind: CellErrorKind::Timeout,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} {}: {}",
            self.index,
            self.kind.verb(),
            self.message
        )
    }
}

/// Renders a caught panic payload as the message a [`CellError`]
/// carries.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolves a requested worker count: `0` means all available cores.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Maps `f` over `items` on up to `threads` OS threads (`0` = all
/// cores), returning results in input order.
///
/// Tasks are claimed from an atomic cursor, so long and short tasks
/// balance automatically. The calling thread is one of the workers: it
/// spawns `workers - 1` threads and claims tasks alongside them, so a
/// sweep's share of work reuses the caller's stack and heap. With one
/// worker (or one item) this degrades to a plain serial map — same
/// results, same order.
///
/// # Panics
///
/// Propagates the first panic raised by `f`, on the caller or on any
/// worker, after every spawned worker has been joined.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            out.push((i, f(i, &items[i])));
        }
        out
    };
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    // A panic in the caller's own share unwinds out of the scope, which
    // joins every spawned worker before it propagates.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mine = claim();
        for pairs in std::iter::once(Ok(mine)).chain(handles.into_iter().map(|h| h.join())) {
            match pairs {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// [`par_map`] with panic isolation: a panic in `f` is caught on the
/// worker, converted into a [`CellError`], and returned in that item's
/// slot — every other item still completes, on this worker and all
/// others. This is the crash-safe sweep entry point: one bad cell must
/// not cost the sweep the healthy ones.
///
/// `f` runs under [`std::panic::catch_unwind`]; shared state it touches
/// must therefore tolerate a panic between any two complete updates
/// (the `Runner`'s shared caches do — see [`crate::lock`]).
pub fn par_map_isolated<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, CellError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(threads, items, |i, t| {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|payload| CellError {
            index: i,
            kind: CellErrorKind::Panic,
            message: panic_message(payload),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(8, &items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(1, &items, |i, &x| x.wrapping_mul(31) ^ i as u64);
        let parallel = par_map(4, &items, |i, &x| x.wrapping_mul(31) ^ i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn index_is_passed_through() {
        let items = ["a", "b", "c"];
        let out = par_map(2, &items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn isolated_panics_fail_only_their_cell() {
        let items: Vec<u64> = (0..20).collect();
        let out = par_map_isolated(4, &items, |_, &x| {
            if x % 7 == 3 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, i);
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 2);
            }
        }
    }

    #[test]
    fn isolated_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..23).collect();
        let run = |threads| {
            par_map_isolated(threads, &items, |_, &x| {
                if x == 5 {
                    panic!("five");
                }
                x + 1
            })
        };
        let (serial, parallel) = (run(1), run(4));
        for (a, b) in serial.iter().zip(&parallel) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!((x.index, &x.message), (y.index, &y.message)),
                _ => panic!("serial/parallel outcome mismatch"),
            }
        }
    }

    /// The caller claims items too: with two workers and a barrier that
    /// two items must reach together, one of them runs on the calling
    /// thread. A panic in the caller's share propagates, and only after
    /// the spawned worker has finished its item.
    #[test]
    fn caller_runs_a_share_and_its_panic_propagates() {
        use std::sync::Barrier;
        use std::thread::ThreadId;

        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let ran_on: Vec<ThreadId> = par_map(2, &[0, 1], |_, _| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1], "the two items ran on two threads");
        assert!(ran_on.contains(&caller), "one item ran on the caller");

        let barrier = Barrier::new(2);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, &[0, 1], |_, _| {
                barrier.wait();
                if std::thread::current().id() == caller {
                    panic!("caller's share");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the caller's panic propagates");
        assert_eq!(panic_message(payload), "caller's share");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            1,
            "the worker was joined first"
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, &[1, 2, 3, 4, 5], |_, &x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
