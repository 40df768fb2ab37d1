//! The shared worker pool behind [`crate::kernel::par`]: one set of
//! daemon threads and one work queue of intra-kernel row chunks.
//!
//! ## Shape
//!
//! A *batch* is one kernel's fan-out: the submitting thread
//! stack-allocates a [`BatchState`] (a count of tasks still to run plus
//! a type-erased `run` closure), pushes every task index, and then
//! **helps** — executing queued tasks itself — until the count reaches
//! zero. A helper may pick up another batch's chunk; chunk bodies are
//! straight-line kernel compute, so whatever it picks up terminates.
//!
//! ## Why the raw pointers are sound
//!
//! `Task` carries a `*const BatchState` into the queue and `BatchState`
//! holds a `*const dyn Fn` into the submitter's frame. Both point into a
//! stack frame of `run_batch`, which does not return until `remaining`
//! reaches zero — and `remaining` is decremented (`AcqRel`) only *after*
//! a task's closure call finishes, so every dereference happens-before
//! the frame is popped. Nothing touches the batch after the final
//! decrement; the completion broadcast goes through the `'static` queue
//! state, not the batch.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Floor on pool width: even on a single hardware thread the pool keeps
/// two daemon workers, so overlap exists everywhere and
/// `GRB_TEST_THREADS=1` exercises the queue machinery rather than
/// silently degrading to the serial path.
const MIN_WORKERS: usize = 2;

/// Shared state of one in-flight batch, stack-pinned in `run_batch`.
struct BatchState {
    /// The batch's task body, `(task_index, worker_id)`. Raw to erase
    /// the submitter-frame lifetime; see the module docs for why every
    /// call happens before the frame is popped.
    run: *const (dyn Fn(usize, usize) + Sync),
    /// Tasks not yet finished executing.
    remaining: AtomicUsize,
    /// The first panic payload of any task body; re-raised on the
    /// submitter with its message intact.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `remaining` is atomic, `panic` is behind a mutex and `run`
// points to a `Sync` closure, so concurrent shared access from workers
// is safe.
unsafe impl Sync for BatchState {}

#[derive(Clone, Copy)]
struct Task {
    batch: *const BatchState,
    index: usize,
}

// SAFETY: the pointee is `Sync` (shared by design) and outlives the
// task (the `remaining` protocol above), so tasks may cross threads.
unsafe impl Send for Task {}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

/// Handle to the process-wide pool; obtain with [`pool`].
pub(crate) struct Pool {
    shared: &'static Shared,
    width: usize,
}

thread_local! {
    /// 1-based id on daemon workers, 0 on every other thread.
    static WORKER_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, spawned on first use. Width is fixed at that
/// moment: `max(2, configured parallelism)` — the configured degree
/// (session > env > hardware, see [`crate::options`]) decides how many
/// daemons exist; later degree changes only affect how finely kernels
/// chunk, not pool width.
pub(crate) fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let width = crate::options::default_degree().max(MIN_WORKERS);
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }));
        for id in 1..=width {
            std::thread::Builder::new()
                .name(format!("grb-worker-{id}"))
                .spawn(move || {
                    WORKER_ID.with(|w| w.set(id));
                    worker_loop(shared);
                })
                .expect("spawn pool worker");
        }
        Pool { shared, width }
    })
}

/// Load snapshot of the pool *without* forcing it to spawn: `(width,
/// queued)` where `queued` counts tasks sitting in the shared queue
/// (not ones mid-execution). `(0, 0)` before first use. Read only
/// through [`crate::exec::pool_status`], for the server's `STATS`.
pub(crate) fn status() -> (usize, usize) {
    match POOL.get() {
        Some(p) => {
            let queued = p
                .shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len();
            (p.width, queued)
        }
        None => (0, 0),
    }
}

impl Pool {
    /// Number of daemon workers (excluding helping submitters).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Run tasks `0..total` to completion, calling `run(index,
    /// worker_id)` for each (`worker_id` is 0 on the submitting thread).
    /// The calling thread helps execute tasks and returns once all have
    /// finished; a panicking task body poisons the batch and its first
    /// panic payload is re-raised here, message intact.
    pub(crate) fn run_batch(&self, total: usize, run: &(dyn Fn(usize, usize) + Sync)) {
        if total == 0 {
            return;
        }
        // SAFETY: erases the closure borrow's lifetime so it can sit in
        // the `'static`-bounded raw field; the closure outlives every
        // dereference by the `remaining` protocol (module docs).
        let run: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(run) };
        let batch = BatchState {
            run,
            remaining: AtomicUsize::new(total),
            panic: Mutex::new(None),
        };
        {
            // Newest batch at the front: the submitter, which pops from
            // the front while it helps, runs its own chunks before those
            // of kernels already in flight on other threads.
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for index in 0..total {
                q.push_front(Task {
                    batch: &batch,
                    index,
                });
            }
            self.shared.ready.notify_all();
        }
        self.help_until_done(&batch);
        let payload = batch.panic.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Execute queued tasks until `batch` has none left anywhere.
    fn help_until_done(&self, batch: &BatchState) {
        loop {
            let task = {
                let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(t) = q.pop_front() {
                        break Some(t);
                    }
                    if batch.remaining.load(Ordering::Acquire) == 0 {
                        break None;
                    }
                    q = self.shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            match task {
                Some(t) => execute(self.shared, t),
                None => return,
            }
        }
    }
}

fn worker_loop(shared: &'static Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        execute(shared, task);
    }
}

/// Run one task and retire it from its batch. The final decrement wakes
/// everyone through the (`'static`) queue lock — taking the lock orders
/// the broadcast after any helper that checked `remaining` and is about
/// to wait, so the completion wakeup cannot be lost.
fn execute(shared: &'static Shared, task: Task) {
    // SAFETY: the batch outlives its tasks (module docs).
    let batch = unsafe { &*task.batch };
    let run = unsafe { &*batch.run };
    let worker = WORKER_ID.with(|w| w.get());
    if let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(task.index, worker)))
    {
        let mut first = batch.panic.lock().unwrap_or_else(|e| e.into_inner());
        first.get_or_insert(payload);
    }
    if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        shared.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_executes_every_task_once() {
        let n = 257;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let run = |i: usize, _w: usize| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        };
        pool().run_batch(n, &run);
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn nested_batches_complete() {
        // a batch whose tasks each fan out a batch of their own: helpers
        // run whichever chunk is queued, nested or not
        let total = AtomicUsize::new(0);
        let outer = |_i: usize, _w: usize| {
            let inner = |_j: usize, _w: usize| {
                total.fetch_add(1, Ordering::SeqCst);
            };
            pool().run_batch(8, &inner);
        };
        pool().run_batch(6, &outer);
        assert_eq!(total.load(Ordering::SeqCst), 48);
    }

    #[test]
    fn panicking_task_poisons_the_batch() {
        let run = |i: usize, _w: usize| {
            if i == 3 {
                panic!("injected");
            }
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool().run_batch(8, &run);
        }))
        .expect_err("the batch re-raises its task's panic");
        // the submitter sees the task's own payload
        assert_eq!(err.downcast_ref::<&str>(), Some(&"injected"));
    }

    #[test]
    fn pool_width_has_floor_of_two() {
        assert!(pool().width() >= 2);
    }
}
