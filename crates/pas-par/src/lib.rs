//! Deterministic parallel runtime for the PAS pipeline.
//!
//! Every hot loop in the workspace — corpus generation, embedding, dedup,
//! Algorithm 1 generation, suite evaluation, table regeneration — is a map
//! over independent items. This crate provides that map as a shared
//! primitive with a hard determinism contract:
//!
//! 1. **Ordered results.** [`par_map`] returns results in item order no
//!    matter which worker computed them or when it finished.
//! 2. **Per-item seeds.** Randomized work must not share a sequential RNG
//!    across items (the draw order would depend on scheduling). Instead,
//!    [`par_map_seeded`] hands each item its own seed derived from
//!    `(base_seed, item_index)` via [`derive_seed`], so item `i` sees the
//!    same RNG stream at any thread count.
//! 3. **Ordered reduction.** Aggregates (token counters, reports) are
//!    folded from the ordered result vector *after* the parallel region,
//!    never accumulated through shared mutable state.
//!
//! Under this contract, outputs are bit-for-bit identical at `--threads 1`
//! and `--threads N` — enforced end-to-end by `tests/parallel_determinism.rs`
//! at the workspace root.
//!
//! The thread count is a process-wide setting ([`set_threads`]), defaulting
//! to [`std::thread::available_parallelism`], resolved once per process.
//!
//! # Workers
//!
//! A parallel call runs on one process-wide pool of helper threads, and the
//! calling thread works as one of them. Every worker claims items from a
//! shared atomic cursor (dynamic load balancing — item costs in this
//! workspace vary wildly, e.g. regeneration loops) and buffers
//! `(index, result)` pairs that are re-assembled in item order at the end.
//! The caller never waits for a helper to start: if none wakes in time it
//! computes every item itself, and at the end it waits only for helpers
//! that have joined, which by then hold at most one item each. Helpers are
//! spawned on first need, up to `threads() - 1`, and park on a condition
//! variable between calls; they never spin.
//!
//! - **One call at a time.** A call that finds the pool busy with another
//!   thread's call, or that is nested inside a worker, maps serially on its
//!   own thread. It does not queue. Results are identical either way; only
//!   the scheduling changes.
//! - **Panics.** Every call of `f`, on any worker, runs under
//!   [`std::panic::catch_unwind`]. The first panic stops the cursor and is
//!   re-raised in the caller once every helper has left the call, so a
//!   helper never unwinds and the pool stays usable.
//! - **Lifetimes.** A call lends the helpers a pointer to work that borrows
//!   `items`, `f` and the caller's stack, with the lifetime erased. The call
//!   cannot return, not even by unwinding, until it has withdrawn that
//!   pointer and every helper that picked it up has finished with it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Process-wide worker-count override; 0 means "use available parallelism".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on a pool helper, and on a caller while it works through its
    /// own call. A nested `par_map` (e.g. per-item judging inside a parallel
    /// table cell) runs serially instead of asking a pool that is busy with
    /// its parent — results are identical either way, only the scheduling
    /// changes.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker count for all subsequent parallel calls.
/// `0` restores the default (available parallelism).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count parallel calls will use.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Available parallelism, resolved once: std re-reads the cgroup limits on
/// every query, which costs tens of microseconds.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Derives the RNG seed for item `index` under `base` (splitmix64-style
/// finalizer). Statistically independent across indices and bases, and a
/// pure function of its arguments — the root of the determinism contract.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh [`StdRng`] for item `index` under `base`.
pub fn rng_for(base: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(base, index))
}

/// Derives a seed for a *nested* stream: [`derive_seed`] folded over a
/// coordinate path, e.g. `(stream, call, attempt)`. Used wherever one item
/// owns a whole family of independent draws (the fault-injection layer keys
/// its schedule on `(base, stream, call, attempt)` this way), so every
/// coordinate combination sees a statistically independent stream that is
/// still a pure function of its path.
pub fn derive_seed_path(base: u64, path: &[u64]) -> u64 {
    path.iter().fold(base, |acc, &p| derive_seed(acc, p))
}

/// Maps `f` over `items` in parallel, returning results in item order.
///
/// `f` receives `(index, &item)`. Results are identical to the serial
/// `items.iter().enumerate().map(...)` as long as `f` is a pure function
/// of its arguments. Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers > 1 && !IN_WORKER.with(Cell::get) {
        if let Some(out) = pooled_map(items, &f, workers) {
            return out;
        }
    }
    items.iter().enumerate().map(|(i, item)| f(i, item)).collect()
}

/// [`par_map`] on the pool with up to `workers` workers, the caller
/// included; `None`, before calling `f`, when the pool is busy.
fn pooled_map<T, R, F>(items: &[T], f: &F, workers: usize) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let computed: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => out.push((i, r)),
                Err(payload) => {
                    // Stop the cursor: no worker claims another item.
                    cursor.store(items.len(), Ordering::Relaxed);
                    lock(&first_panic).get_or_insert(payload);
                    break;
                }
            }
        }
        lock(&computed).append(&mut out);
    };
    if !POOL.run(&work, workers - 1) {
        return None;
    }
    // Every helper has left `work`, so the buffers are complete.
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }

    // Re-assemble in item order.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in computed.into_inner().unwrap_or_else(PoisonError::into_inner) {
        debug_assert!(slots[i].is_none(), "item {i} computed twice");
        slots[i] = Some(r);
    }
    Some(slots.into_iter().map(|slot| slot.expect("every item computed")).collect())
}

/// Locks `m`, ignoring poison: nothing in this crate panics while holding
/// one of its locks, and every update leaves the guarded data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide worker pool behind [`par_map`].
static POOL: Pool = Pool {
    state: Mutex::new(PoolState { job: None, busy: false, active: 0, helpers: 0 }),
    wake: Condvar::new(),
    idle: Condvar::new(),
};

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is published.
    wake: Condvar,
    /// Signalled when the last helper leaves a job.
    idle: Condvar,
}

struct PoolState {
    /// The running call's work, while helpers may still join it.
    job: Option<Job>,
    /// A call holds the pool, from publishing its job until its last
    /// helper has left.
    busy: bool,
    /// Helpers currently inside the job's work.
    active: usize,
    /// Helper threads spawned so far.
    helpers: usize,
}

/// A running call's work loop, lent to the helpers.
struct Job {
    /// Claims and computes items until the cursor runs out; never unwinds.
    /// Its lifetime is erased: see [`Pool::run`].
    work: *const (dyn Fn() + Sync),
    /// How many more helpers may join.
    seats: usize,
}

// SAFETY: `work` points to a `Sync` closure, so calling it from another
// thread is sound, and `Pool::run` keeps it alive for as long as any thread
// can reach it through the pool. `seats` is a plain integer.
unsafe impl Send for Job {}

impl Pool {
    /// Runs `work` on the calling thread and on up to `helpers` pool helpers
    /// at once, returning after every one of them has returned from it.
    /// Returns `false`, without running `work`, when another call holds the
    /// pool.
    fn run(&'static self, work: &(dyn Fn() + Sync), helpers: usize) -> bool {
        let mut state = lock(&self.state);
        if state.busy {
            return false;
        }
        // SAFETY: erases the borrow's lifetime so the pointer can sit in a
        // static. Helpers only call it after joining, which happens under
        // the lock while `job` is set and counts them in `active`. The
        // `Running` guard below clears `job` and waits, under the same lock,
        // until `active == 0` before this function returns or unwinds, so
        // no helper touches the pointer after `work`'s borrow ends.
        let erased: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(work) };
        state.busy = true;
        state.job = Some(Job { work: erased, seats: helpers });
        while state.helpers < helpers {
            // Helpers live as long as the process: they hold nothing but
            // their stacks, park between calls and never unwind (every panic
            // of `f` is caught), so there is nothing to join or report. If
            // the OS refuses a thread, the job runs on the workers it has.
            let spawned = std::thread::Builder::new()
                .name(format!("pas-par-{}", state.helpers + 1))
                .spawn(move || self.help());
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
        drop(state);
        for _ in 0..helpers {
            self.wake.notify_one();
        }

        let _running = Running(self);
        IN_WORKER.with(|w| w.set(true));
        work();
        true
    }

    /// A helper thread's loop: join each published job that has a free
    /// seat, run its work, and park in between.
    fn help(&self) {
        IN_WORKER.with(|w| w.set(true));
        let mut state = lock(&self.state);
        loop {
            let Some(job) = state.job.as_mut().filter(|job| job.seats > 0) else {
                state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.seats -= 1;
            let work = job.work;
            state.active += 1;
            drop(state);
            // SAFETY: this helper joined while `job` was set and stays
            // counted in `active` until it re-takes the lock below, so the
            // caller is still inside `Pool::run` and `work` is alive (see
            // the erasure there). `work` catches every panic of `f`.
            unsafe { (*work)() };
            state = lock(&self.state);
            state.active -= 1;
            // `work` returned, so the cursor has run out: later helpers
            // would find nothing to claim.
            if let Some(job) = state.job.as_mut() {
                job.seats = 0;
            }
            if state.active == 0 {
                self.idle.notify_one();
            }
        }
    }
}

/// Held by the caller inside [`Pool::run`]. Dropping it — on return or
/// while unwinding — withdraws the job, waits for every helper that joined
/// it to leave, and frees the pool.
struct Running(&'static Pool);

impl Drop for Running {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.job = None;
        while state.active > 0 {
            state = self.0.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
        IN_WORKER.with(|w| w.set(false));
    }
}

/// [`par_map`] for randomized work: `f` receives `(seed, index, &item)`
/// where `seed = derive_seed(base_seed, index)`. Seed the item's own
/// `StdRng` from it; never share an RNG across items.
pub fn par_map_seeded<T, R, F>(base_seed: u64, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(u64, usize, &T) -> R + Sync,
{
    par_map(items, |i, item| f(derive_seed(base_seed, i as u64), i, item))
}

/// Runs `f` with the thread count temporarily forced to `n`, restoring the
/// previous setting afterwards. Test helper for 1-vs-N comparisons.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.swap(n, Ordering::Relaxed));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// Serializes the tests that set the process-global thread count or
    /// need the pool to themselves; cargo runs tests on parallel threads.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_order() {
        let _exclusive = exclusive();
        let items: Vec<u64> = (0..257).collect();
        let out = with_threads(8, || par_map(&items, |i, &x| x * 2 + i as u64));
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 2 + i as u64).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let _exclusive = exclusive();
        let items: Vec<usize> = (0..100).collect();
        let run = |threads| {
            with_threads(threads, || {
                par_map_seeded(42, &items, |seed, _, &n| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    (0..n % 7).map(|_| rng.random::<u64>()).fold(0u64, u64::wrapping_add)
                })
            })
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(8), serial);
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 0xdead_beef] {
            for i in 0..1000 {
                assert!(seen.insert(derive_seed(base, i)), "collision at ({base}, {i})");
            }
        }
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |i, &x| x + i as u32), vec![7]);
    }

    #[test]
    fn panics_propagate() {
        let _exclusive = exclusive();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                    assert!(x != 5, "boom");
                    x
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn nested_par_map_matches_serial() {
        let _exclusive = exclusive();
        let items: Vec<u64> = (0..40).collect();
        let inner = [1u64, 2, 3];
        let run = |threads| {
            with_threads(threads, || {
                par_map(&items, |_, &x| par_map(&inner, |_, &y| x * y).iter().sum::<u64>())
            })
        };
        assert_eq!(run(8), run(1));
    }

    /// Runs `f` on a thread of its own and fails if it has not returned
    /// within a minute, so a pool that deadlocks fails a test instead of
    /// hanging the suite. The thread is not joined: after a timeout it may
    /// never return, and its result or panic arrives through the channel.
    fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(r)) => r,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("deadlocked: still running after a minute"),
        }
    }

    #[test]
    fn a_helper_runs_beside_the_caller() {
        let _exclusive = exclusive();
        // Each item waits for the other, so this returns only if a helper
        // computes one item while the caller computes the other.
        let out = within_a_minute(|| {
            let barrier = Barrier::new(2);
            with_threads(2, || {
                par_map(&[10u32, 20], |_, &x| {
                    barrier.wait();
                    x + 1
                })
            })
        });
        assert_eq!(out, [11, 21]);
    }

    #[test]
    fn a_panic_waits_for_helpers_and_leaves_the_pool_usable() {
        let _exclusive = exclusive();
        /// Sends when dropped, i.e. while the caller's item unwinds.
        struct SignalOnDrop(mpsc::Sender<()>);
        impl Drop for SignalOnDrop {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let helper_done = within_a_minute(|| {
            let caller = thread::current().id();
            let (started_tx, started_rx) = mpsc::channel();
            let started_rx = Mutex::new(started_rx);
            let (panicked_tx, panicked_rx) = mpsc::channel();
            let panicked_rx = Mutex::new(panicked_rx);
            let helper_done = AtomicBool::new(false);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                with_threads(2, || {
                    par_map(&[0u32, 1], |_, _| {
                        if thread::current().id() == caller {
                            // Panic only once the helper's item has started.
                            started_rx.lock().unwrap().recv().unwrap();
                            let _signal = SignalOnDrop(panicked_tx.clone());
                            panic!("caller item");
                        }
                        started_tx.send(()).unwrap();
                        // Finish only after the caller's item has panicked.
                        panicked_rx.lock().unwrap().recv().unwrap();
                        helper_done.store(true, Ordering::SeqCst);
                    })
                })
            }));
            assert!(result.is_err(), "the caller's panic must propagate");
            helper_done.load(Ordering::SeqCst)
        });
        assert!(helper_done, "par_map returned before its helper finished");

        let items: Vec<u64> = (0..64).collect();
        let out = with_threads(2, || par_map(&items, |i, &x| x * 3 + i as u64));
        assert_eq!(out, items.iter().map(|&x| x * 4).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_match_the_serial_map() {
        let _exclusive = exclusive();
        within_a_minute(|| {
            let items: Vec<u64> = (0..9).collect();
            with_threads(2, || {
                thread::scope(|s| {
                    for caller in 0..4u64 {
                        let items = &items;
                        s.spawn(move || {
                            for round in 0..300u64 {
                                let f = |i: usize, &x: &u64| x * x + i as u64 * round + caller;
                                let serial: Vec<u64> =
                                    items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
                                assert_eq!(par_map(items, f), serial);
                            }
                        });
                    }
                });
            });
        });
    }

    #[test]
    fn a_call_that_finds_the_pool_busy_maps_serially() {
        let _exclusive = exclusive();
        let out = within_a_minute(|| {
            let inner: Vec<u64> = (0..16).collect();
            with_threads(2, || {
                par_map(&[1u64, 2], |_, &x| {
                    // The pool is busy with this call, so another thread's
                    // call must run serially on that thread, not wait.
                    thread::scope(|s| {
                        s.spawn(|| {
                            let me = thread::current().id();
                            let ran_on = par_map(&inner, |_, &y| (thread::current().id(), x * y));
                            assert!(ran_on.iter().all(|&(id, _)| id == me));
                            ran_on.iter().map(|&(_, v)| v).sum::<u64>()
                        })
                        .join()
                        .unwrap()
                    })
                })
            })
        });
        assert_eq!(out, [120, 240]);
    }

    #[test]
    fn derive_seed_path_folds_derive_seed() {
        assert_eq!(derive_seed_path(7, &[]), 7);
        assert_eq!(derive_seed_path(7, &[3]), derive_seed(7, 3));
        assert_eq!(derive_seed_path(7, &[3, 9]), derive_seed(derive_seed(7, 3), 9));
        // Distinct paths land on distinct seeds.
        let mut seen = std::collections::HashSet::new();
        for a in 0..20u64 {
            for b in 0..20u64 {
                assert!(seen.insert(derive_seed_path(1, &[a, b])), "collision at ({a}, {b})");
            }
        }
    }

    #[test]
    fn rng_for_matches_derive_seed() {
        let mut a = rng_for(9, 3);
        let mut b = StdRng::seed_from_u64(derive_seed(9, 3));
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }
}
