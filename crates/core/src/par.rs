//! A scoped work-stealing worker pool for index-ordered work.
//!
//! Every parallel surface of this workspace — clause-level checking in
//! [`crate::welltyped::ParallelChecker`], and file-level batching in the
//! `slp` CLI — funnels through [`run_indexed`], so there is exactly one
//! dispatch discipline to reason about. Items are grouped into contiguous
//! **chunks**; every chunk starts on worker 0's deque, a worker pops its
//! own deque LIFO (the chunk it seeded or stole most recently, still warm
//! in cache), and an idle worker steals FIFO from a victim's deque — so a
//! skewed batch (one huge file among many small ones) drains onto
//! whichever workers are free instead of serializing behind a fixed
//! partition. Results are reassembled **in input order** before being
//! returned: callers observe output byte-identical to a serial
//! left-to-right run, regardless of how the scheduler interleaved the
//! workers.
//!
//! Seeding everything onto worker 0 (rather than round-robin
//! pre-partitioning) makes stealing the *normal* distribution mechanism,
//! not a rare rescue path: [`Counter::Steals`] is live on every pooled
//! batch, so a silent fallback to serial dispatch is visible in the
//! counters (the `contention_storm` bench workload and the CI concurrency
//! gate pin exactly this).
//!
//! Victim selection uses a per-worker xorshift sequence seeded by the
//! worker index — deterministic across runs, no global RNG, no clock.
//! Claim accounting is panic-safe: the outstanding-chunk count is
//! decremented at *claim* time and `f` runs outside every deque lock, so
//! a worker that panics mid-item neither wedges the pool (survivors steal
//! the rest of its deque and exit when the count hits zero) nor poisons a
//! `Mutex` mid-push; the panic then propagates to the caller when the
//! scope joins, exactly like a serial panic.
//!
//! No third-party runtime is involved (the build environment is offline
//! by policy); `std::thread::scope` gives us borrow-friendly workers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::obs::{Counter, MetricsRegistry};

/// Stack size of every pool worker: the 8 MiB a Linux main thread gets, so
/// input that checks with `--jobs 1` on the main thread cannot overflow a
/// worker under `--jobs N` (std gives spawned threads 2 MiB by default).
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Upper bound on the auto-selected chunk size: big enough to amortise
/// deque traffic, small enough that a skewed tail can still be stolen.
const MAX_AUTO_CHUNK: usize = 32;

/// Resolves a requested job count: `0` means "one worker per available
/// core"; any other value is taken as-is.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The default chunk size for a batch: roughly four chunks per worker so
/// stealing has slack to rebalance, clamped to [1, `MAX_AUTO_CHUNK`].
fn auto_chunk(jobs: usize, items: usize) -> usize {
    (items / (jobs.max(1) * 4)).clamp(1, MAX_AUTO_CHUNK)
}

/// [`run_indexed`] with pool accounting: when `obs` is present, the batch
/// and its item count are recorded (`pool_batches` / `pool_items`) before
/// dispatch, whether the work ends up inline or on the pool, and steal
/// traffic is recorded (`steals` / `steal_failures`) as the pool runs.
pub fn run_indexed_obs<T, R, F>(
    jobs: usize,
    items: &[T],
    obs: Option<&MetricsRegistry>,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunk = auto_chunk(effective_jobs(jobs), items.len());
    run_indexed_chunked_obs(jobs, chunk, items, obs, f)
}

/// [`run_indexed_obs`] with an explicit chunk size: items are claimed in
/// contiguous runs of `chunk_size` indices. Chunk size 1 maximises steal
/// opportunities (every item is independently stealable); larger chunks
/// amortise deque traffic for fine-grained items. The `contention_storm`
/// bench workload uses size 1 to make its steal count exact.
pub fn run_indexed_chunked_obs<T, R, F>(
    jobs: usize,
    chunk_size: usize,
    items: &[T],
    obs: Option<&MetricsRegistry>,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if let Some(o) = obs {
        o.incr(Counter::PoolBatches);
        o.add(Counter::PoolItems, items.len() as u64);
    }
    run_chunked(jobs, chunk_size, items, obs, f)
}

/// Applies `f` to every item of `items`, on up to `jobs` worker threads
/// (`0` = available cores), returning the results in input order.
///
/// With `jobs <= 1` (or fewer than two items) the work runs inline on the
/// calling thread with no pool at all, so the serial path is exactly the
/// pre-parallelism code path. A panic in `f` on any worker propagates to
/// the caller when the scope joins.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunk = auto_chunk(effective_jobs(jobs), items.len());
    run_chunked(jobs, chunk, items, None, f)
}

/// One xorshift64 step — the per-worker victim sequence. Deterministic
/// and allocation-free; the seed is derived from the worker index so two
/// workers never share a sequence.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The work-stealing core shared by every entry point above.
fn run_chunked<T, R, F>(
    jobs: usize,
    chunk_size: usize,
    items: &[T],
    obs: Option<&MetricsRegistry>,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunk_size = chunk_size.max(1);
    let nchunks = items.len().div_ceil(chunk_size);
    let jobs = effective_jobs(jobs).min(nchunks.max(1));
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Worker 0's deque holds every chunk up front; the others start empty
    // and steal. `remaining` counts unclaimed chunks — decremented at
    // claim time, so survivors of a worker panic still terminate.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    deques[0].lock().expect("fresh deque").extend(0..nchunks);
    let remaining = AtomicUsize::new(nchunks);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));

    std::thread::scope(|scope| {
        for me in 0..jobs {
            let deques = &deques;
            let remaining = &remaining;
            let collected = &collected;
            let f = &f;
            let worker = std::thread::Builder::new().stack_size(WORKER_STACK_BYTES);
            let spawned = worker.spawn_scoped(scope, move || {
                let mut rng: u64 = 0x9e37_79b9_7f4a_7c15 ^ ((me as u64 + 1) << 1);
                let mut local: Vec<(usize, R)> = Vec::new();
                while remaining.load(Ordering::Acquire) > 0 {
                    // Own deque first, newest chunk first (LIFO): cheap
                    // and cache-warm.
                    let mut claimed = deques[me].lock().expect("own deque").pop_back();
                    let mut stolen = false;
                    if claimed.is_none() {
                        // Steal sweep: a random starting victim, then the
                        // rest in order; oldest chunk first (FIFO) so the
                        // victim keeps its warm tail.
                        let start = (xorshift64(&mut rng) as usize) % jobs;
                        for k in 0..jobs {
                            let victim = (start + k) % jobs;
                            if victim == me {
                                continue;
                            }
                            let got = deques[victim].lock().expect("victim deque").pop_front();
                            if got.is_some() {
                                claimed = got;
                                stolen = true;
                                break;
                            }
                            if let Some(o) = obs {
                                o.incr(Counter::StealFailures);
                            }
                        }
                    }
                    let Some(chunk) = claimed else {
                        // Everything is claimed but still in flight; wait
                        // for `remaining` to drain.
                        std::thread::yield_now();
                        continue;
                    };
                    remaining.fetch_sub(1, Ordering::AcqRel);
                    if stolen {
                        if let Some(o) = obs {
                            o.incr(Counter::Steals);
                        }
                    }
                    let lo = chunk * chunk_size;
                    let hi = (lo + chunk_size).min(items.len());
                    for (i, item) in items[lo..hi].iter().enumerate() {
                        local.push((lo + i, f(lo + i, item)));
                    }
                }
                if !local.is_empty() {
                    collected
                        .lock()
                        .expect("no poisoned result sink")
                        .extend(local);
                }
            });
            spawned.expect("spawn a pool worker");
        }
    });

    let mut pairs = collected.into_inner().expect("workers joined");
    debug_assert_eq!(pairs.len(), items.len(), "every index produced a result");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [0, 1, 2, 4, 7] {
            let out = run_indexed(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(run_indexed(4, &none, |_, &x| x).is_empty());
        assert_eq!(run_indexed(4, &[9u8], |_, &x| x), vec![9]);
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
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
            run_indexed(4, &items, |_, &x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    /// A panic on one worker must not wedge the others: claims are
    /// decremented before `f` runs and no deque lock is held across `f`,
    /// so the survivors drain the remaining chunks and the scope join
    /// re-raises the panic.
    #[test]
    fn worker_panic_does_not_wedge_the_pool() {
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            run_indexed_chunked_obs(4, 1, &items, None, |_, &x| {
                assert!(x != 0, "boom on the seed worker's first chunk");
                x
            })
        });
        assert!(r.is_err());
    }

    /// The deterministic steal construction the `contention_storm` bench
    /// workload relies on: N single-item chunks, N workers, a barrier of
    /// N inside `f`. The barrier can only release once N distinct workers
    /// each hold one chunk, and every chunk starts on worker 0 — so
    /// exactly N-1 steals happen, on any machine, under any interleaving.
    #[test]
    fn barrier_forces_exactly_n_minus_one_steals() {
        let obs = MetricsRegistry::new();
        let barrier = Barrier::new(4);
        let items = [0u8; 4];
        let out = run_indexed_chunked_obs(4, 1, &items, Some(&obs), |i, _| {
            barrier.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(obs.get(Counter::Steals), 3);
        assert_eq!(obs.get(Counter::PoolBatches), 1);
        assert_eq!(obs.get(Counter::PoolItems), 4);
    }

    /// Skew drains onto idle workers: one chunk blocks until every other
    /// chunk (all seeded behind it on worker 0's deque) has been stolen
    /// and completed by somebody else.
    #[test]
    fn skewed_batches_rebalance_by_stealing() {
        let obs = MetricsRegistry::new();
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let out = run_indexed_chunked_obs(2, 1, &items, Some(&obs), |i, &x| {
            // Worker 0 pops LIFO, so index 15 runs first on it; make that
            // item wait for all the others, which only a second worker
            // stealing the rest can finish.
            if i == 15 {
                while done.load(Ordering::Acquire) < 15 {
                    std::thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::AcqRel);
            x * 2
        });
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
        assert!(
            obs.get(Counter::Steals) >= 15,
            "the blocked worker kept its one chunk"
        );
    }

    /// Without a registry the pool runs identically but records nothing —
    /// `run_indexed` stays usable from counter-free contexts.
    #[test]
    fn unobserved_runs_count_nothing() {
        let obs = MetricsRegistry::new();
        let items: Vec<usize> = (0..32).collect();
        let out = run_indexed(4, &items, |_, &x| x + 1);
        assert_eq!(out.len(), 32);
        assert_eq!(obs.get(Counter::Steals), 0);
        assert_eq!(obs.get(Counter::PoolBatches), 0);
    }
}
