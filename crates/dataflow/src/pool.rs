//! Persistent worker pool.
//!
//! The executor used to spawn (and join) a fresh set of scoped threads for
//! *every operator*, paying thread start-up and a full teardown barrier per
//! stage. This module replaces that with long-lived workers fed by a
//! channel-based task queue: a [`WorkerPool`] is created once per worker
//! count and reused by every subsequent run (see [`WorkerPool::with_workers`]),
//! so steady-state execution never creates threads at all.
//!
//! Workers are deliberately dumb: they pop type-erased jobs from a shared
//! queue and run them. All sequencing, identifier stitching, and provenance
//! emission stay on the scheduler thread in `exec.rs`, which is what keeps
//! program output byte-identical at any worker count.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use pebble_obs::diag;

/// A unit of work for the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks the mutex, recovering from poisoning. The queue only holds
/// type-erased closures; a panic while one was popped leaves the deque
/// itself consistent, so continuing with the inner value is sound — and
/// required, or a single panicking job would wedge every later submit.
fn lock_jobs(queue: &Queue) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
    queue.jobs.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Gauges updated with relaxed atomics on the job path and read by
    /// [`WorkerPool::queue_depth`] & friends *without* touching `jobs`'
    /// mutex — samplers never contend with workers.
    queued: AtomicU64,
    active: AtomicU64,
    executed: AtomicU64,
    panics: AtomicU64,
}

/// A fixed-size pool of long-lived worker threads.
///
/// Jobs are executed in FIFO submission order (per worker pull); a panicking
/// job is contained by the worker and never takes the pool down — result
/// reporting and panic propagation are the submitter's responsibility
/// (the executor wraps every job in `catch_unwind` and re-raises on the
/// scheduler thread).
pub struct WorkerPool {
    queue: Arc<Queue>,
    size: usize,
    /// Worker threads actually running. Thread spawning can fail under
    /// resource exhaustion; when none spawned, `submit` degrades to
    /// running jobs inline on the caller so work still completes.
    live: usize,
}

/// Global registry: one shared pool per worker count, created lazily and
/// kept for the process lifetime. Re-running with the same configuration
/// therefore reuses warm threads.
static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();

impl WorkerPool {
    /// Creates a new pool with `workers` threads (at least one).
    ///
    /// Prefer [`WorkerPool::with_workers`], which shares pools across runs.
    pub fn new(workers: usize) -> Self {
        let size = workers.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queued: AtomicU64::new(0),
            active: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let mut live = 0;
        for i in 0..size {
            let queue = Arc::clone(&queue);
            let spawned = std::thread::Builder::new()
                .name(format!("pebble-worker-{i}"))
                .spawn(move || worker_loop(&queue));
            match spawned {
                Ok(_) => live += 1,
                Err(e) => diag::warn(&format!("failed to spawn pool worker {i}: {e}")),
            }
        }
        WorkerPool { queue, size, live }
    }

    /// The process-wide shared pool with exactly `workers` threads.
    pub fn with_workers(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        Arc::clone(
            pools
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(workers)
                .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
        )
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Enqueues a job; some worker will eventually run it. When no worker
    /// thread could be spawned, runs the job inline (contained) instead of
    /// queueing it forever.
    fn submit(&self, job: impl FnOnce() + Send + 'static) {
        if self.live == 0 {
            // Degraded inline execution still maintains the gauges (the
            // caller thread briefly *is* the worker).
            self.queue.active.fetch_add(1, Relaxed);
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                self.queue.panics.fetch_add(1, Relaxed);
            }
            self.queue.active.fetch_sub(1, Relaxed);
            self.queue.executed.fetch_add(1, Relaxed);
            return;
        }
        let mut jobs = lock_jobs(&self.queue);
        jobs.push_back(Box::new(job));
        self.queue.queued.fetch_add(1, Relaxed);
        drop(jobs);
        self.queue.available.notify_one();
    }

    /// Jobs currently waiting in the queue. Sampled from an atomic — never
    /// takes the job lock, so it is safe to call from hot loops.
    pub fn queue_depth(&self) -> u64 {
        self.queue.queued.load(Relaxed)
    }

    /// Workers currently executing a job (lock-free sample).
    pub fn active_workers(&self) -> u64 {
        self.queue.active.load(Relaxed)
    }

    /// Total jobs fully executed since the pool was created. Monotone
    /// non-decreasing; a job counts only after its delivery closure ran.
    #[cfg(test)]
    fn jobs_executed(&self) -> u64 {
        self.queue.executed.load(Relaxed)
    }

    /// Panics contained by the pool (both job panics caught by
    /// [`WorkerPool::submit_job`] and panics escaping raw `submit` jobs).
    pub fn panics_contained(&self) -> u64 {
        self.queue.panics.load(Relaxed)
    }

    /// Runs `job` on the pool with *guaranteed result delivery*: `deliver`
    /// is invoked exactly once with the job's output, or with the panic
    /// payload if the job panicked. This closes the classic hang where a
    /// panicking task drops its result sender mid-flight and the submitter
    /// blocks forever on a completion count that can no longer be reached:
    /// the catch_unwind happens *inside* the pool, before delivery, so the
    /// submitter always observes either a value or a typed failure.
    pub fn submit_job<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
        deliver: impl FnOnce(std::thread::Result<T>) + Send + 'static,
    ) {
        let queue = Arc::clone(&self.queue);
        self.submit(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            if result.is_err() {
                queue.panics.fetch_add(1, Relaxed);
            }
            deliver(result);
        });
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut jobs = lock_jobs(queue);
            loop {
                match jobs.pop_front() {
                    Some(job) => break job,
                    None => {
                        jobs = queue
                            .available
                            .wait(jobs)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        queue.queued.fetch_sub(1, Relaxed);
        queue.active.fetch_add(1, Relaxed);
        // Contain panics: the submitter observes them through its own
        // result channel; the worker must survive to serve the next job.
        // (`submit_job` wrappers catch inside and count there; this counter
        // only sees panics escaping raw `submit` closures.)
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            queue.panics.fetch_add(1, Relaxed);
        }
        queue.active.fetch_sub(1, Relaxed);
        queue.executed.fetch_add(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::with_workers(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn survives_panicking_jobs() {
        let pool = WorkerPool::with_workers(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(|| panic!("job panic"));
        pool.submit(move || tx.send(42).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42
        );
    }

    /// Regression: a panicking task used to drop its result sender, so
    /// the submitter's completion count was never reached and the run hung
    /// forever — and the next run on the same pool inherited the wedge.
    /// With guaranteed delivery the panic surfaces as an `Err`, and the
    /// same pool instance then executes a full back-to-back batch.
    #[test]
    fn delivers_panic_and_runs_next_batch_on_same_pool() {
        let pool = WorkerPool::with_workers(2);

        // Batch 1: a panicking job plus a normal one; both must deliver.
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        pool.submit_job(
            || -> usize { panic!("injected morsel panic") },
            move |r| {
                tx.send(r.map_err(|p| crate::error::panic_message(&*p)))
                    .unwrap()
            },
        );
        pool.submit_job(
            || 7usize,
            move |r| {
                tx2.send(r.map_err(|p| crate::error::panic_message(&*p)))
                    .unwrap()
            },
        );
        let mut results = Vec::new();
        for _ in 0..2 {
            results.push(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap());
        }
        assert!(results.contains(&Err("injected morsel panic".to_string())));
        assert!(results.contains(&Ok(7)));

        // Batch 2: the same pool still has both workers alive.
        let (tx, rx) = mpsc::channel();
        for i in 0..16usize {
            let tx = tx.clone();
            pool.submit_job(
                move || i * 2,
                move |r| {
                    let _ = tx.send(r.unwrap_or(usize::MAX));
                },
            );
        }
        let mut sum = 0;
        for _ in 0..16 {
            sum += rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(sum, (0..16).map(|i| i * 2).sum());
    }

    /// Regression for the lock-free gauges: across a run that mixes
    /// panicking and normal tasks, a concurrent sampler (which never takes
    /// the job lock) must observe a monotone `jobs_executed` counter and
    /// bounded `active_workers`, and the gauges must settle to a consistent
    /// final state (`queue empty`, `no active workers`, every job counted).
    #[test]
    fn gauges_monotone_consistent_across_panicking_run() {
        // A worker count no other test uses, so the shared registry pool's
        // gauges are not perturbed by concurrently-running tests.
        let pool = WorkerPool::with_workers(6);
        let base_executed = pool.jobs_executed();
        let base_panics = pool.panics_contained();

        let stop = Arc::new(AtomicUsize::new(0));
        let sampler = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = pool.jobs_executed();
                let mut monotone = true;
                let mut bounded = true;
                while stop.load(Ordering::SeqCst) == 0 {
                    let executed = pool.jobs_executed();
                    if executed < last {
                        monotone = false;
                    }
                    last = executed;
                    if pool.active_workers() > pool.size() as u64 {
                        bounded = false;
                    }
                    std::thread::yield_now();
                }
                (monotone, bounded)
            })
        };

        const N: usize = 300;
        let (tx, rx) = mpsc::channel();
        for i in 0..N {
            let tx = tx.clone();
            pool.submit_job(
                move || {
                    if i % 3 == 0 {
                        panic!("injected gauge-test panic");
                    }
                    i
                },
                move |r| {
                    let _ = tx.send(r.is_ok());
                },
            );
        }
        let mut oks = 0;
        for _ in 0..N {
            if rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap() {
                oks += 1;
            }
        }
        assert_eq!(oks, N - N.div_ceil(3));

        // `executed` increments after delivery, so briefly lags the last
        // recv; spin (bounded) until the counters settle.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.jobs_executed() < base_executed + N as u64 {
            assert!(std::time::Instant::now() < deadline, "gauges never settled");
            std::thread::yield_now();
        }
        stop.store(1, Ordering::SeqCst);
        let (monotone, bounded) = sampler.join().unwrap();
        assert!(monotone, "jobs_executed went backwards");
        assert!(bounded, "active_workers exceeded pool size");
        assert_eq!(pool.jobs_executed(), base_executed + N as u64);
        assert_eq!(pool.panics_contained(), base_panics + N.div_ceil(3) as u64);
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.active_workers(), 0);
    }

    #[test]
    fn registry_shares_pools_by_size() {
        let a = WorkerPool::with_workers(2);
        let b = WorkerPool::with_workers(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.size(), 2);
        let c = WorkerPool::with_workers(5);
        assert_eq!(c.size(), 5);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
