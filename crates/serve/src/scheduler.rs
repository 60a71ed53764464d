//! The persistent racer-pool scheduler.
//!
//! Before this module, every cold solve raced its portfolio on freshly
//! spawned OS threads (`std::thread::scope` inside `portfolio::race`),
//! so worst-case thread count scaled with `inflight requests × racers`
//! and every request paid thread-spawn cost. The pool inverts that: a
//! **fixed** set of racer threads — sized once from the host's core
//! count (`hpc::host_cores`) — is spawned at service start and shared
//! by every connection. A race submits its portfolio members as
//! *tasks*; the submitting worker runs the first (predicted-cheapest)
//! member inline so a race always makes progress even when the pool is
//! saturated, and the pool runs the rest as slots free up.
//!
//! ```text
//! workers ──► submit(task) ──► queue: Mutex<VecDeque<Task>> ──► racer threads
//!    │                              │ depth (atomic gauge)          │
//!    │ runs member 0 inline         │                               │ pops; skips
//!    └── waits ◄── done notifications ◄─────────────────────────────┘ cancelled /
//!                                                                     past-deadline
//! ```
//!
//! Two mechanisms keep a saturated pool honest:
//!
//! * **Cancellation on deadline** — every task carries its race's
//!   absolute deadline and a shared [`CancelToken`]. A racer thread
//!   checks both *before* running a popped task; a task whose moment
//!   has passed is skipped in O(1), so a backlog of expired races
//!   drains at queue speed instead of occupying racer slots.
//! * **Admission control** — the queue depth is an atomic gauge the
//!   server reads before starting a cold solve; past the configured
//!   limit it answers `busy` on the wire instead of queueing work it
//!   cannot start in time (see `ServeConfig::max_queue_depth`).
//!
//! The pool knows nothing about genomes or portfolios: a task is a
//! type-erased `FnOnce(TaskRun)`. `portfolio::race` builds the closure,
//! owns the synchronisation with the submitting thread, and keeps the
//! racing semantics (shared best-so-far cell, chunked cooperative
//! stopping) unchanged.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cooperative cancellation flag shared by one race's queued tasks:
/// once set, a racer thread that pops one of the race's tasks skips it
/// without running (freeing the slot for live work).
#[derive(Debug, Default)]
pub struct CancelToken(AtomicBool);

impl CancelToken {
    /// Marks the owning race as cancelled.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What the pool tells a task when it finally handles it.
#[derive(Debug, Clone, Copy)]
pub struct TaskRun {
    /// True when the task was *not* run: its race was cancelled, its
    /// deadline passed while it sat in the queue, or the pool is
    /// shutting down. The task must still do its completion
    /// bookkeeping (this is how waiting submitters learn the task will
    /// never produce a result).
    pub skipped: bool,
    /// Time the task spent queued before a racer thread picked it up.
    pub queue_wait: Duration,
}

/// A type-erased unit of racing work.
type Job = Box<dyn FnOnce(TaskRun) + Send + 'static>;

struct Task {
    job: Job,
    cancel: Arc<CancelToken>,
    deadline: Instant,
    enqueued_at: Instant,
    /// 1-based submission sequence number, for naming the task in the
    /// panic-recovery warning.
    seq: u64,
}

/// Monotonic pool counters (exposed through the service's `stats`).
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Tasks ever submitted.
    pub submitted: AtomicU64,
    /// Tasks run to completion on a racer thread.
    pub ran: AtomicU64,
    /// Tasks skipped (cancelled, expired, or drained at shutdown).
    pub skipped: AtomicU64,
    /// Task panics a racer thread caught and survived. A non-zero
    /// value means some race member died mid-run (its race degrades to
    /// the surviving members) — worth alerting on, which is why the
    /// count is surfaced as the `serve_worker_panics_total` metric.
    pub panics: AtomicU64,
}

struct PoolShared {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
    shutdown: AtomicBool,
    /// Tasks currently queued (submitted, not yet popped). This is the
    /// admission-control gauge: reading it is one atomic load, so the
    /// server can shed load without touching the queue lock.
    depth: AtomicUsize,
    stats: PoolStats,
}

/// A fixed pool of racer threads shared by every race the service
/// runs. See the module docs for the design; see
/// [`crate::portfolio::race`] for the submitting side.
pub struct RacerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for RacerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RacerPool")
            .field("size", &self.size)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl RacerPool {
    /// Spawns a pool of `size` racer threads (>= 1).
    pub fn new(size: usize) -> RacerPool {
        assert!(size >= 1, "racer pool needs at least one thread");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
            stats: PoolStats::default(),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("racer-{i}"))
                    .spawn(move || racer_loop(&shared))
                    .expect("spawn racer thread")
            })
            .collect();
        RacerPool {
            shared,
            threads,
            size,
        }
    }

    /// Number of racer threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Tasks currently queued (submitted, not yet picked up). One
    /// atomic load — safe to call on every request.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Counter snapshot as `(submitted, ran, skipped)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        let s = &self.shared.stats;
        (
            s.submitted.load(Ordering::Relaxed),
            s.ran.load(Ordering::Relaxed),
            s.skipped.load(Ordering::Relaxed),
        )
    }

    /// Task panics the racer threads caught and survived.
    pub fn panics(&self) -> u64 {
        self.shared.stats.panics.load(Ordering::Relaxed)
    }

    /// Enqueues a task. The pool calls `job` exactly once — either with
    /// `skipped: false` on a racer thread (do the work), or with
    /// `skipped: true` when the task was cancelled, expired past
    /// `deadline`, or drained at shutdown (do only the completion
    /// bookkeeping). Submission never blocks on the racer threads.
    pub fn submit(&self, deadline: Instant, cancel: Arc<CancelToken>, job: Job) {
        let seq = self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed) + 1;
        let task = Task {
            job,
            cancel,
            deadline,
            enqueued_at: Instant::now(),
            seq,
        };
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.push_back(task);
            self.shared.depth.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.ready.notify_one();
    }
}

impl Drop for RacerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn racer_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(task) = q.pop_front() {
                    shared.depth.fetch_sub(1, Ordering::Relaxed);
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.ready.wait(q).expect("pool queue poisoned");
            }
        };
        let Some(task) = task else { return };
        let skipped = task.cancel.is_cancelled()
            || Instant::now() >= task.deadline
            || shared.shutdown.load(Ordering::SeqCst);
        let counter = if skipped {
            &shared.stats.skipped
        } else {
            &shared.stats.ran
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let run = TaskRun {
            skipped,
            queue_wait: task.enqueued_at.elapsed(),
        };
        // A panicking task must not take the racer thread down with it
        // (the pool is fixed-size: a dead thread would shrink capacity
        // for the rest of the service's life). The job's completion
        // bookkeeping is drop-guarded on the submitting side, so even a
        // panic mid-job unblocks its race.
        let job = task.job;
        let seq = task.seq;
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || job(run))).is_err() {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[serve] racer recovered from a panic in pool task #{seq}; \
                 its race degrades to the surviving members"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A gate a pool-occupying blocker task waits behind. Opening is
    /// also wired to drop so that a failing assertion mid-test unwinds
    /// cleanly: the pool's `Drop` joins its threads, which would
    /// otherwise deadlock on a blocker still waiting for the gate.
    type Gate = Arc<(Mutex<bool>, Condvar)>;

    fn gate() -> Gate {
        Arc::new((Mutex::new(false), Condvar::new()))
    }

    fn submit_blocker(pool: &RacerPool, gate: &Gate) {
        let gate = Arc::clone(gate);
        pool.submit(
            Instant::now() + Duration::from_secs(30),
            Arc::new(CancelToken::default()),
            Box::new(move |_| {
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
            }),
        );
        // Wait for the racer thread to actually pick the blocker up, so
        // follow-up queue-depth observations are deterministic.
        let waited = Instant::now();
        while pool.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.queue_depth(), 0, "blocker was not picked up");
    }

    struct OpenOnDrop(Gate);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            *self.0 .0.lock().unwrap() = true;
            self.0 .1.notify_all();
        }
    }

    #[test]
    fn runs_submitted_tasks_and_reports_queue_wait() {
        let pool = RacerPool::new(2);
        assert_eq!(pool.size(), 2);
        let hits = Arc::new(AtomicU64::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let n = 8;
        for _ in 0..n {
            let hits = Arc::clone(&hits);
            let done = Arc::clone(&done);
            pool.submit(
                Instant::now() + Duration::from_secs(10),
                Arc::new(CancelToken::default()),
                Box::new(move |run| {
                    assert!(!run.skipped);
                    hits.fetch_add(1, Ordering::Relaxed);
                    let mut d = done.0.lock().unwrap();
                    *d += 1;
                    done.1.notify_all();
                }),
            );
        }
        let mut d = done.0.lock().unwrap();
        while *d < n {
            let (g, t) = done.1.wait_timeout(d, Duration::from_secs(10)).unwrap();
            assert!(!t.timed_out(), "tasks did not finish");
            d = g;
        }
        assert_eq!(hits.load(Ordering::Relaxed), n as u64);
        assert_eq!(pool.queue_depth(), 0, "queue drains");
        let (submitted, ran, skipped) = pool.stats();
        assert_eq!(submitted, n as u64);
        assert_eq!(ran, n as u64);
        assert_eq!(skipped, 0);
    }

    /// Core cancellation contract: tasks whose race was cancelled (or
    /// whose deadline passed while queued) are *skipped* — they free
    /// their pool slot without running — and still do their completion
    /// bookkeeping.
    #[test]
    fn cancelled_and_expired_tasks_are_skipped_not_run() {
        let pool = RacerPool::new(1);
        // Occupy the single racer thread so later tasks must queue.
        let gate = gate();
        let _open_on_unwind = OpenOnDrop(Arc::clone(&gate));
        submit_blocker(&pool, &gate);
        let cancel = Arc::new(CancelToken::default());
        let ran = Arc::new(AtomicU64::new(0));
        let skipped = Arc::new(AtomicU64::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for deadline in [
            Instant::now() + Duration::from_secs(10),  // cancelled below
            Instant::now() - Duration::from_millis(1), // already expired
        ] {
            let ran = Arc::clone(&ran);
            let skipped = Arc::clone(&skipped);
            let done = Arc::clone(&done);
            pool.submit(
                deadline,
                Arc::clone(&cancel),
                Box::new(move |run| {
                    if run.skipped {
                        skipped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut d = done.0.lock().unwrap();
                    *d += 1;
                    done.1.notify_all();
                }),
            );
        }
        assert_eq!(pool.queue_depth(), 2);
        cancel.cancel();
        // Release the blocker: the two queued tasks drain as skips.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let mut d = done.0.lock().unwrap();
        while *d < 2 {
            let (g, t) = done.1.wait_timeout(d, Duration::from_secs(10)).unwrap();
            assert!(!t.timed_out(), "skipped tasks must still complete");
            d = g;
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(skipped.load(Ordering::Relaxed), 2);
        assert_eq!(pool.queue_depth(), 0, "cancellation freed the slots");
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_racer_thread() {
        let pool = RacerPool::new(1);
        assert_eq!(pool.panics(), 0);
        pool.submit(
            Instant::now() + Duration::from_secs(10),
            Arc::new(CancelToken::default()),
            Box::new(|_| panic!("task panic must not poison the pool")),
        );
        // The same (only) racer thread must still serve this task.
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let done = Arc::clone(&done);
            pool.submit(
                Instant::now() + Duration::from_secs(10),
                Arc::new(CancelToken::default()),
                Box::new(move |run| {
                    assert!(!run.skipped);
                    *done.0.lock().unwrap() = true;
                    done.1.notify_all();
                }),
            );
        }
        let mut d = done.0.lock().unwrap();
        while !*d {
            let (g, t) = done.1.wait_timeout(d, Duration::from_secs(10)).unwrap();
            assert!(!t.timed_out(), "racer thread died on a task panic");
            d = g;
        }
        drop(d);
        // The recovery was counted (and only the panicking task's).
        assert_eq!(pool.panics(), 1);
        let (submitted, ran, _) = pool.stats();
        assert_eq!(submitted, 2);
        assert_eq!(ran, 2);
    }

    #[test]
    fn shutdown_drains_queued_tasks_as_skips() {
        let done = Arc::new(AtomicU64::new(0));
        {
            let pool = RacerPool::new(1);
            let gate = gate();
            let _open_on_unwind = OpenOnDrop(Arc::clone(&gate));
            submit_blocker(&pool, &gate);
            for _ in 0..3 {
                let done = Arc::clone(&done);
                pool.submit(
                    Instant::now() + Duration::from_secs(10),
                    Arc::new(CancelToken::default()),
                    Box::new(move |_| {
                        done.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
            // Drop joins the pool: queued tasks must be *completed*
            // (run or skipped), never silently lost.
        }
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
