//! Scoped worker-pool primitives shared by the trainer and the bench
//! harness.
//!
//! [`scoped_shards`] shards rollout collection's replicas; [`fork`] runs
//! one helper job beside the caller, and [`Turns`] orders the update
//! pipeline's serial steps across its workers (DESIGN.md §12). Every
//! worker they start begins under its spawner's span path and flushes its
//! GEMM FLOP tally before it returns, so profiles and FLOP counts see its
//! work where it belongs. [`parallel_try_map`] is the bench sweeps'
//! work-stealing map, kept here so the bench crate can re-export it
//! without a dependency cycle. Worker counts resolve through
//! [`resolve_workers`], which honours the `AGSC_TEST_THREADS` override so
//! CI can pin scheduling-sensitive suites to one thread.

use agsc_env::shard_size;
use agsc_telemetry as tlm;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A parallel job that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the item whose job died.
    pub index: usize,
    /// The panic payload's message, when it was a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Resolve how many worker threads to run for `jobs` independent jobs.
///
/// Precedence: an explicit `requested > 0` wins; otherwise the
/// `AGSC_TEST_THREADS` environment variable (when set to a positive
/// integer); otherwise `std::thread::available_parallelism()`. The result
/// is always clamped to `1..=jobs.max(1)` — more workers than jobs would
/// only idle.
pub fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let auto = || match agsc_telemetry::knobs::parse("AGSC_TEST_THREADS", 0) {
        0 => std::thread::available_parallelism().map_or(1, |v| v.get()),
        n => n,
    };
    let workers = if requested > 0 { requested } else { auto() };
    workers.clamp(1, jobs.max(1))
}

/// Run `f(base, shard)` over `items` cut into contiguous shards of
/// [`shard_size`]`(items.len(), workers)` items (`base` is the shard's first
/// item index) and concatenate the per-shard results in item order.
///
/// The first shard runs on the calling thread, the others on scoped worker
/// threads, which start under the caller's span path and flush their GEMM
/// FLOP tally (`agsc_nn::flops`) before returning, so iteration-level
/// accounting sees their work. The shards are
/// fixed by `(items.len(), workers)` and joined in order, so when `f` is a
/// pure function of its shard the result does not depend on `workers`. A
/// shard panic is re-raised on the caller, lowest shard first.
pub fn scoped_shards<T, U, F>(workers: usize, items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T]) -> Vec<U> + Sync,
{
    let size = shard_size(items.len(), workers);
    if items.len() <= size {
        return f(0, items);
    }
    let (f, ctx) = (&f, &tlm::span_context());
    std::thread::scope(|scope| {
        let mut shards = items.chunks_mut(size);
        let first = shards.next().expect("more than one shard");
        let handles: Vec<_> = shards
            .enumerate()
            .map(|(s, shard)| scope.spawn(move || worker_job(ctx, || f((s + 1) * size, shard))))
            .collect();
        let mut out = f(0, first);
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    })
}

/// One job on a worker thread: under the spawner's span path `ctx`, with
/// its GEMM FLOP tally flushed before it returns.
pub(crate) fn worker_job<R>(ctx: &tlm::SpanContext, job: impl FnOnce() -> R) -> R {
    let _ctx = ctx.enter();
    let out = job();
    agsc_nn::flops::flush_thread();
    out
}

/// Run `helper` on a scoped worker thread while `caller` runs on this one,
/// and return both results. With `parallel` false both run here, `helper`
/// first: the same jobs, no thread. A panic in either is re-raised here
/// once both have finished (the caller's first), so `helper` must not
/// wait on `caller`.
pub fn fork<A, B>(
    parallel: bool,
    helper: impl FnOnce() -> A + Send,
    caller: impl FnOnce() -> B,
) -> (A, B)
where
    A: Send,
{
    if !parallel {
        let a = helper();
        return (a, caller());
    }
    let ctx = tlm::span_context();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| worker_job(&ctx, helper));
        let b = caller();
        match handle.join() {
            Ok(a) => (a, b),
            Err(payload) => resume_unwind(payload),
        }
    })
}

/// `0..total` cut into `parts.min(total)` contiguous ranges (at least one)
/// whose lengths differ by at most one, the longer ones first.
pub fn balanced_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, total.max(1));
    let (base, extra) = (total / parts, total % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Shared state that jobs on several threads change one ticket at a time,
/// in ticket order.
///
/// [`take`](Self::take)`(t, f)` waits until tickets `0..t` have run, then
/// runs `f` on the state and passes the turn on, so the state goes through
/// exactly the sequence one thread running every ticket in order would
/// give it, whichever threads hold the tickets. Between tickets a job can
/// wait for the state to reach a condition ([`wait_for`](Self::wait_for))
/// or change it out of turn ([`update`](Self::update)). [`stop`](Self::stop)
/// releases every waiter with `None`; a job that holds
/// [`stop_on_panic`](Self::stop_on_panic)'s guard stops the board if it
/// unwinds, so no peer waits forever on a turn that will not come.
///
/// Waiters sleep on a condition variable: a turn handed between threads
/// costs one wake-up, and a waiting thread leaves its core to the others.
#[derive(Debug)]
pub struct Turns<S> {
    state: Mutex<TurnState<S>>,
    wake: Condvar,
}

#[derive(Debug)]
struct TurnState<S> {
    next: usize,
    stopped: bool,
    shared: S,
}

impl<S> Turns<S> {
    /// A board at ticket 0 around `shared`.
    pub fn new(shared: S) -> Self {
        Self {
            state: Mutex::new(TurnState { next: 0, stopped: false, shared }),
            wake: Condvar::new(),
        }
    }

    /// The state, also after a job panicked while holding the lock. That
    /// job's guard stops the board as it unwinds, and a stopped board
    /// only releases waiters: no job reads the shared state again, and the
    /// trainer re-raises the panic before it takes the state back.
    fn lock(&self) -> MutexGuard<'_, TurnState<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep until `ready` holds or the board stops; the lock, or `None`.
    fn wait_until(
        &self,
        mut ready: impl FnMut(&mut TurnState<S>) -> bool,
    ) -> Option<MutexGuard<'_, TurnState<S>>> {
        let mut st = self.lock();
        loop {
            if st.stopped {
                return None;
            }
            if ready(&mut st) {
                return Some(st);
            }
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wait for ticket `ticket`, run `f` on the state, and pass the turn to
    /// `ticket + 1`. `None`, without running `f`, once the board stopped.
    ///
    /// # Panics
    /// Panics if `ticket` already ran.
    pub fn take<R>(&self, ticket: usize, f: impl FnOnce(&mut S) -> R) -> Option<R> {
        let mut st = self.wait_until(|st| {
            assert!(st.next <= ticket, "ticket {ticket} taken twice");
            st.next == ticket
        })?;
        let out = f(&mut st.shared);
        st.next += 1;
        drop(st);
        self.wake.notify_all();
        Some(out)
    }

    /// Wait until `f` returns `Some` on the state, and return that; `None`
    /// once the board stopped.
    pub fn wait_for<R>(&self, mut f: impl FnMut(&mut S) -> Option<R>) -> Option<R> {
        let mut out = None;
        drop(self.wait_until(|st| {
            out = f(&mut st.shared);
            out.is_some()
        })?);
        out
    }

    /// Change the state out of turn and wake every waiter.
    pub fn update(&self, f: impl FnOnce(&mut S)) {
        f(&mut self.lock().shared);
        self.wake.notify_all();
    }

    /// Stop the board: every waiter, now and later, gets `None`.
    pub fn stop(&self) {
        self.lock().stopped = true;
        self.wake.notify_all();
    }

    /// A guard that stops the board if it is dropped during a panic.
    pub fn stop_on_panic(&self) -> StopOnPanic<'_, S> {
        StopOnPanic(self)
    }

    /// The state, and whether the board stopped.
    pub fn into_inner(self) -> (S, bool) {
        let st = self.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        (st.shared, st.stopped)
    }
}

/// Stops its [`Turns`] board when dropped while the thread panics.
#[derive(Debug)]
pub struct StopOnPanic<'a, S>(&'a Turns<S>);

impl<S> Drop for StopOnPanic<'_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// Map `f` over `items` in parallel, preserving order; a panicking job
/// yields an `Err` slot instead of aborting its worker thread, so sibling
/// results survive.
///
/// Worker count comes from [`resolve_workers`] (auto mode) clamped to the
/// item count.
pub fn parallel_try_map<T, U, F>(items: Vec<T>, f: F) -> Vec<Result<U, JobPanic>>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = resolve_workers(0, n);
    // Per-slot locks: each worker writes only its claimed index, so there is
    // no whole-vector contention point.
    let slots: Vec<Mutex<Option<Result<U, JobPanic>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let out = match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(value) => Ok(value),
                    Err(payload) => Err(JobPanic { index: i, message: panic_message(&*payload) }),
                };
                // The closure ran outside the lock, so the lock cannot be
                // poisoned while held.
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot.into_inner().expect("result slot poisoned") {
            Some(result) => result,
            None => Err(JobPanic { index: i, message: "job never ran".into() }),
        })
        .collect()
}

/// Map `f` over `items` in parallel, preserving order.
///
/// # Panics
/// Re-raises the first worker panic; use [`parallel_try_map`] when sibling
/// results must survive a dying job.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_try_map(items, f)
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..20).collect(), |&x: &i32| x * x);
        assert_eq!(out, (0..20).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_try_map_contains_panicking_jobs() {
        let results = parallel_try_map((0..8).collect(), |&x: &i32| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x * 2
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert!(e.message.contains("boom"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i32 * 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "parallel job 1 panicked")]
    fn parallel_map_repanics_worker_failures() {
        parallel_map(vec![0, 1], |&x: &i32| {
            if x == 1 {
                panic!("die");
            }
            x
        });
    }

    #[test]
    fn scoped_shards_are_contiguous_and_joined_in_item_order() {
        for workers in [1, 2, 3, 4, 9] {
            let mut items: Vec<usize> = (0..7).collect();
            let bases = scoped_shards(workers, &mut items, |base, shard| {
                assert_eq!(shard[0], base, "base is the shard's first item index");
                shard.iter_mut().for_each(|x| *x *= 10);
                vec![(base, shard.len())]
            });
            let size = shard_size(7, workers);
            let want: Vec<_> = (0..7).step_by(size).map(|b| (b, size.min(7 - b))).collect();
            assert_eq!(bases, want, "workers={workers}");
            assert_eq!(items, (0..7).map(|x| x * 10).collect::<Vec<_>>());
        }
        let empty = scoped_shards(4, &mut Vec::<u8>::new(), |_, shard| shard.to_vec());
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "shard at 2")]
    fn scoped_shards_reraise_the_lowest_panicking_shard() {
        scoped_shards(3, &mut [0u8; 6], |base, _| -> Vec<()> {
            if base > 0 {
                panic!("shard at {base}");
            }
            Vec::new()
        });
    }

    #[test]
    fn fork_returns_both_results_with_and_without_a_thread() {
        for parallel in [false, true] {
            let (a, b) = fork(parallel, || 6 * 7, || "caller");
            assert_eq!((a, b), (42, "caller"));
        }
    }

    #[test]
    #[should_panic(expected = "helper died")]
    fn fork_reraises_the_helpers_panic() {
        fork(true, || panic!("helper died"), || ());
    }

    #[test]
    fn balanced_ranges_cover_everything_in_near_equal_parts() {
        assert_eq!(balanced_ranges(4, 3), vec![0..2, 2..3, 3..4]);
        assert_eq!(balanced_ranges(4, 2), vec![0..2, 2..4]);
        assert_eq!(balanced_ranges(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(balanced_ranges(5, 1), vec![0..5]);
        assert_eq!(balanced_ranges(0, 4), vec![0..0]);
    }

    type Job<S> = Box<dyn FnOnce(&Turns<S>) + Send>;

    /// Run `jobs` on one thread each against one board, each under a
    /// `stop_on_panic` guard, and fail instead of hanging unless they all
    /// finish within a minute.
    fn run_with_watchdog<S: Send + 'static>(board: &std::sync::Arc<Turns<S>>, jobs: Vec<Job<S>>) {
        let (done, finished) = std::sync::mpsc::channel();
        let count = jobs.len();
        for job in jobs {
            let (board, done) = (board.clone(), done.clone());
            std::thread::spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _stop = board.stop_on_panic();
                    job(&board)
                }));
                done.send(()).unwrap();
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        for _ in 0..count {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            finished.recv_timeout(left).expect("a job was left waiting");
        }
    }

    #[test]
    fn turns_run_tickets_in_order_across_threads() {
        let board = std::sync::Arc::new(Turns::new(Vec::new()));
        // Three workers hold interleaved tickets; each appends its ticket.
        let jobs: Vec<Job<Vec<usize>>> = (0..3)
            .map(|w| {
                Box::new(move |b: &Turns<Vec<usize>>| {
                    for t in (w..30).step_by(3) {
                        b.take(t, |log| log.push(t)).expect("never stopped");
                    }
                }) as Job<Vec<usize>>
            })
            .collect();
        run_with_watchdog(&board, jobs);
        let st = board.lock();
        assert!(!st.stopped);
        assert_eq!(st.shared, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_releases_peers_waiting_on_its_turn_or_a_condition() {
        let board = std::sync::Arc::new(Turns::new(0u32));
        let waited = std::sync::Arc::new(AtomicUsize::new(0));
        let (w1, w2) = (waited.clone(), waited.clone());
        let jobs: Vec<Job<u32>> = vec![
            // Holds ticket 0 but dies before taking it.
            Box::new(|_| panic!("job died before its turn")),
            Box::new(move |b| {
                assert!(b.take(1, |_| ()).is_none(), "released, not run");
                w1.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(move |b| {
                assert!(b.wait_for(|n| (*n > 0).then_some(())).is_none());
                w2.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        run_with_watchdog(&board, jobs);
        assert_eq!(waited.load(Ordering::SeqCst), 2);
        assert!(board.lock().stopped);
    }

    #[test]
    fn resolve_workers_explicit_request_wins_and_clamps() {
        assert_eq!(resolve_workers(3, 8), 3);
        assert_eq!(resolve_workers(16, 4), 4, "never more workers than jobs");
        assert_eq!(resolve_workers(1, 1), 1);
        assert!(resolve_workers(0, 8) >= 1, "auto mode always yields a worker");
        assert_eq!(resolve_workers(0, 0), 1, "zero jobs still resolves sanely");
    }
}
