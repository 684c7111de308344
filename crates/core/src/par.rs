//! A scoped worker pool for index-ordered work.
//!
//! Every parallel surface of this workspace — clause-level checking in
//! [`crate::welltyped::ParallelChecker`], per-clause lint passes, and
//! file-level batching in the `slp` CLI — funnels through
//! [`run_indexed`], so there is exactly one dispatch discipline to reason
//! about. Items are grouped into contiguous **chunks**, and the workers
//! share one atomic cursor: a worker that finishes a chunk claims the next
//! unclaimed one with a single `fetch_add`, so a skewed batch (one huge
//! file among many small ones) drains onto whichever workers are free
//! instead of serializing behind a fixed partition. Results are
//! reassembled **in input order** after the workers join: callers observe
//! output byte-identical to a serial left-to-right run, regardless of how
//! the workers interleaved.
//!
//! A worker that panics simply stops claiming; the others drain the rest
//! of the cursor and exit, and the panic then propagates to the caller
//! when the scope joins, exactly like a serial panic. Nothing waits on a
//! claim count, so a panic cannot wedge the pool.
//!
//! No third-party runtime is involved (the build environment is offline
//! by policy); `std::thread::scope` gives us borrow-friendly workers.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::obs::{Counter, MetricsRegistry};

/// Stack size of every pool worker: the 8 MiB a Linux main thread gets, so
/// input that checks with `--jobs 1` on the main thread cannot overflow a
/// worker under `--jobs N` (std gives spawned threads 2 MiB by default).
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Upper bound on the auto-selected chunk size: big enough to amortise
/// cursor traffic, small enough that a skewed tail still spreads out.
const MAX_AUTO_CHUNK: usize = 32;

/// The most workers one batch runs on. Each worker reserves
/// `WORKER_STACK_BYTES` of stack, so the `slp` CLI refuses a larger
/// `--jobs` rather than asking the OS for thousands of threads.
pub const MAX_JOBS: usize = 256;

/// Resolves a requested job count: `0` means "one worker per available
/// core"; any other value is taken as-is. Either way the result is at most
/// [`MAX_JOBS`].
pub fn effective_jobs(requested: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    jobs.min(MAX_JOBS)
}

/// The chunk size for a batch: roughly four chunks per worker so the
/// cursor has slack to rebalance, clamped to [1, `MAX_AUTO_CHUNK`].
fn auto_chunk(jobs: usize, items: usize) -> usize {
    (items / (jobs.max(1) * 4)).clamp(1, MAX_AUTO_CHUNK)
}

/// Applies `f` to every item of `items`, on up to `jobs` worker threads
/// (`0` = available cores), returning the results in input order.
///
/// When `obs` is present, the batch and its item count are recorded
/// (`pool_batches` / `pool_items`) before dispatch, whether the work ends
/// up inline or on the pool.
///
/// When only one worker would have a chunk to take (`jobs <= 1`, or too
/// few items), the work runs inline on the calling thread with no pool at
/// all, so the serial path is exactly the pre-parallelism code path. A
/// panic in `f` on any worker propagates to the caller.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], obs: Option<&MetricsRegistry>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if let Some(o) = obs {
        o.incr(Counter::PoolBatches);
        o.add(Counter::PoolItems, items.len() as u64);
    }
    let jobs = effective_jobs(jobs);
    let chunk = auto_chunk(jobs, items.len());
    let workers = jobs.min(items.len().div_ceil(chunk));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // The cursor publishes no data — items are shared read-only and the
    // results come back through `join` — so `Relaxed` is enough: the
    // read-modify-write alone hands each chunk to exactly one worker.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut runs: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= items.len() {
                return runs;
            }
            let hi = (lo + chunk).min(items.len());
            runs.push((lo, (lo..hi).map(|i| f(i, &items[i])).collect()));
        }
    };
    let mut runs: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, claim)
                    .expect("spawn a pool worker")
            })
            .collect();
        // Re-raising a worker's own payload keeps a panic's message the
        // same at every job count.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    runs.sort_unstable_by_key(|(lo, _)| *lo);
    runs.into_iter().flat_map(|(_, rs)| rs).collect()
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [0, 1, 2, 4, 7] {
            let out = run_indexed(jobs, &items, None, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(run_indexed(4, &none, None, |_, &x| x).is_empty());
        assert_eq!(run_indexed(4, &[9u8], None, |_, &x| x), vec![9]);
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
        assert_eq!(effective_jobs(usize::MAX), MAX_JOBS);
    }

    #[test]
    fn auto_chunk_is_bounded_and_positive() {
        assert_eq!(auto_chunk(4, 0), 1);
        assert_eq!(auto_chunk(4, 8), 1);
        assert_eq!(auto_chunk(4, 64), 4);
        assert_eq!(auto_chunk(1, 10_000), MAX_AUTO_CHUNK);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            run_indexed(4, &items, None, |_, &x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    /// A panic on one worker must not wedge the others: the survivors
    /// drain the cursor, and the join re-raises the worker's own panic.
    #[test]
    fn worker_panic_does_not_wedge_the_pool() {
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            run_indexed(4, &items, None, |_, &x| {
                assert!(x != 0, "boom on the first chunk");
                x
            })
        });
        let payload = r.expect_err("the worker's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom on the first chunk")
        );
    }

    /// `N` workers hold `N` single-item chunks at once: every item waits
    /// until all `N` are in flight, which serial dispatch never reaches;
    /// the deadline turns that into a failure instead of a hang.
    #[test]
    fn n_workers_hold_n_items_at_once() {
        let obs = MetricsRegistry::new();
        let arrived = AtomicUsize::new(0);
        let items = [0u8; 4];
        let out = run_indexed(4, &items, Some(&obs), |i, _| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrived.load(Ordering::SeqCst) < items.len() {
                assert!(
                    Instant::now() < deadline,
                    "only {} of 4 items were in flight at once",
                    arrived.load(Ordering::SeqCst)
                );
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(obs.get(Counter::PoolBatches), 1);
        assert_eq!(obs.get(Counter::PoolItems), 4);
    }

    /// Skew drains onto free workers: item 0, alone in its chunk, blocks
    /// until every other item has finished, which only another worker can
    /// do while the first one is stuck.
    #[test]
    fn skewed_batches_drain_onto_free_workers() {
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        assert_eq!(
            auto_chunk(2, items.len()),
            1,
            "item 0 is alone in its chunk"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let out = run_indexed(2, &items, None, |i, &x| {
            if i == 0 {
                while done.load(Ordering::SeqCst) < items.len() - 1 {
                    assert!(Instant::now() < deadline, "the other items never ran");
                    std::thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            x * 2
        });
        assert_eq!(out, (0..8).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// Only the registry passed in counts: a run without one records
    /// nothing, and an inline run with one still records its batch.
    #[test]
    fn unobserved_runs_count_nothing() {
        let obs = MetricsRegistry::new();
        let items: Vec<usize> = (0..32).collect();
        let out = run_indexed(4, &items, None, |_, &x| x + 1);
        assert_eq!(out.len(), 32);
        assert_eq!(obs.get(Counter::PoolBatches), 0);
        run_indexed(1, &items, Some(&obs), |_, &x| x);
        assert_eq!(obs.get(Counter::PoolBatches), 1);
        assert_eq!(obs.get(Counter::PoolItems), 32);
    }
}
