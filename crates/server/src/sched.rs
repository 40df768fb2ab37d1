//! Admission control and weighted fair scheduling across tenants.
//!
//! ## Admission
//!
//! Each tenant owns a bounded FIFO (`queue_cap`), checked at submit
//! time so a rejected request costs nothing downstream: a submit that
//! finds the queue full is shed with the typed [`Reply::Overloaded`]. A
//! flooding tenant therefore saturates *its own* queue and nothing
//! else, and every waiting request sits in one of these queues.
//!
//! ## Fairness: stride scheduling
//!
//! Each tenant carries a virtual-time `pass`, advanced by
//! `STRIDE_ONE / weight` per request served. The scheduler always
//! serves the non-empty tenant with the smallest pass, so over any
//! window tenants receive service proportional to their weights, and a
//! tenant that floods its queue cannot starve a light one — its pass
//! races ahead and the light tenant's occasional requests are served
//! almost immediately. A tenant waking from idle rejoins at the current
//! virtual time (not its stale pass) so it cannot cash in idle credit
//! as a burst. Every request, BFS included, is one job.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::protocol::{Reply, Request};
use crate::stats::{Histogram, TenantCounters};

/// Virtual-time advance for one request at weight 1.
const STRIDE_ONE: u64 = 1 << 20;

/// Shared, lock-free tenant telemetry (the scheduler's own state —
/// queue, pass — lives inside the scheduler lock).
pub struct Tenant {
    pub name: String,
    pub weight: u32,
    pub counters: TenantCounters,
    /// End-to-end request latency (submit → reply), nanoseconds.
    pub latency: Histogram,
}

/// One admitted request waiting for an executor.
pub(crate) struct Job {
    pub tenant: Arc<Tenant>,
    pub request: Request,
    pub submitted: Instant,
    pub slot: Arc<ReplySlot>,
}

/// One-shot reply mailbox: the submitting thread blocks on `wait`, the
/// executor fills it exactly once.
pub struct ReplySlot {
    cell: Mutex<Option<Reply>>,
    ready: Condvar,
}

impl ReplySlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ReplySlot {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    pub(crate) fn fill(&self, reply: Reply) {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        *cell = Some(reply);
        self.ready.notify_all();
    }

    pub(crate) fn wait(&self) -> Reply {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = cell.take() {
                return r;
            }
            cell = self.ready.wait(cell).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Outcome of [`Scheduler::submit`].
pub(crate) enum Admit {
    /// Queued; block on the slot for the reply.
    Queued(Arc<ReplySlot>),
    /// Shed by admission control (the tenant's queue is full).
    Shed,
    /// The scheduler is shutting down.
    Closed,
}

struct TenantQ {
    meta: Arc<Tenant>,
    queue: VecDeque<Job>,
    pass: u64,
}

struct Inner {
    tenants: HashMap<String, TenantQ>,
    /// Total queued jobs across tenants (condvar predicate).
    queued: usize,
    /// Virtual time: pass of the most recently served tenant.
    vtime: u64,
    /// Executors take no job while set ([`Scheduler::set_held`]).
    held: bool,
    shutdown: bool,
}

pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    ready: Condvar,
    /// Per-tenant queue bound; a full queue sheds.
    queue_cap: usize,
}

impl Scheduler {
    pub fn new(queue_cap: usize) -> Self {
        Scheduler {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                queued: 0,
                vtime: 0,
                held: false,
                shutdown: false,
            }),
            ready: Condvar::new(),
            queue_cap,
        }
    }

    /// Get or create a tenant. The first registration fixes the weight;
    /// later calls return the existing tenant unchanged.
    pub fn register(&self, name: &str, weight: u32) -> Arc<Tenant> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let vtime = inner.vtime;
        let tq = inner
            .tenants
            .entry(name.to_string())
            .or_insert_with(|| TenantQ {
                meta: Arc::new(Tenant {
                    name: name.to_string(),
                    weight: weight.max(1),
                    counters: TenantCounters::default(),
                    latency: Histogram::new(),
                }),
                queue: VecDeque::new(),
                pass: vtime,
            });
        tq.meta.clone()
    }

    /// All registered tenants, sorted by name (for STATS rendering).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut ts: Vec<_> = inner.tenants.values().map(|q| q.meta.clone()).collect();
        ts.sort_by(|a, b| a.name.cmp(&b.name));
        ts
    }

    /// Admission-checked enqueue. The tenant must have been registered.
    pub fn submit(&self, tenant: &Arc<Tenant>, request: Request) -> Admit {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.shutdown {
            return Admit::Closed;
        }
        let vtime = inner.vtime;
        let Some(tq) = inner.tenants.get_mut(&tenant.name) else {
            return Admit::Closed;
        };
        if tq.queue.len() >= self.queue_cap {
            tq.meta
                .counters
                .shed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Admit::Shed;
        }
        if tq.queue.is_empty() {
            // waking from idle: rejoin at current virtual time so idle
            // periods don't accumulate into a service burst
            tq.pass = tq.pass.max(vtime);
        }
        let slot = ReplySlot::new();
        tq.queue.push_back(Job {
            tenant: tenant.clone(),
            request,
            submitted: Instant::now(),
            slot: slot.clone(),
        });
        inner.queued += 1;
        self.ready.notify_one();
        Admit::Queued(slot)
    }

    /// Stop (`true`) or restart (`false`) handing out jobs.
    /// Admission is unaffected, so while held the queues fill and shed
    /// exactly as behind a saturated executor. Shutdown releases a hold.
    pub fn set_held(&self, held: bool) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.held = held;
        self.ready.notify_all();
    }

    /// Block until work is available and not held, then pop the next
    /// job by stride order; `None` once shut down *and* drained
    /// (executors exit only after every queued job is served).
    pub fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.queued == 0 || inner.held {
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        // min-pass tenant among non-empty; name tie-break for determinism
        let tq = inner
            .tenants
            .values_mut()
            .filter(|q| !q.queue.is_empty())
            .min_by(|a, b| (a.pass, &a.meta.name).cmp(&(b.pass, &b.meta.name)))
            .expect("queued > 0 implies a non-empty tenant queue");
        let job = tq.queue.pop_front().expect("non-empty");
        tq.pass += STRIDE_ONE / u64::from(tq.meta.weight);
        let pass = tq.pass;
        inner.vtime = pass;
        inner.queued -= 1;
        Some(job)
    }

    /// Begin shutdown: new submits are `Closed`, executors drain what
    /// is queued and then exit.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.shutdown = true;
        inner.held = false;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degree_req(v: usize) -> Request {
        Request::Degree {
            graph: "g".into(),
            v,
        }
    }

    #[test]
    fn stride_serves_in_weight_proportion() {
        let s = Scheduler::new(1000);
        let a = s.register("a", 1);
        let b = s.register("b", 3);
        for i in 0..80 {
            assert!(matches!(s.submit(&a, degree_req(i)), Admit::Queued(_)));
            assert!(matches!(s.submit(&b, degree_req(i)), Admit::Queued(_)));
        }
        let mut served_a = 0;
        let mut served_b = 0;
        for _ in 0..40 {
            match s.next_job().unwrap().tenant.name.as_str() {
                "a" => served_a += 1,
                _ => served_b += 1,
            }
        }
        // weight 3 tenant gets ~3x the service of weight 1
        assert!((28..=32).contains(&served_b), "b served {served_b}");
        assert_eq!(served_a + served_b, 40);
    }

    #[test]
    fn full_queue_sheds_only_the_flooder() {
        let s = Scheduler::new(4);
        let flood = s.register("flood", 1);
        let light = s.register("light", 1);
        let mut shed = 0;
        for i in 0..10 {
            if matches!(s.submit(&flood, degree_req(i)), Admit::Shed) {
                shed += 1;
            }
        }
        assert_eq!(shed, 6, "everything past queue_cap sheds");
        assert_eq!(
            flood
                .counters
                .shed
                .load(std::sync::atomic::Ordering::Relaxed),
            6
        );
        // the light tenant is untouched by the flooder's full queue
        assert!(matches!(s.submit(&light, degree_req(0)), Admit::Queued(_)));
    }

    #[test]
    fn shutdown_drains_then_stops() {
        let s = Scheduler::new(100);
        let a = s.register("a", 1);
        s.submit(&a, degree_req(0));
        s.shutdown();
        assert!(matches!(s.submit(&a, degree_req(1)), Admit::Closed));
        assert!(s.next_job().is_some(), "queued job still drains");
        assert!(s.next_job().is_none());
    }

    #[test]
    fn shutdown_releases_a_hold() {
        let s = Scheduler::new(100);
        let a = s.register("a", 1);
        s.set_held(true);
        s.submit(&a, degree_req(0));
        s.shutdown();
        assert!(s.next_job().is_some(), "held job still drains");
        assert!(s.next_job().is_none());
    }

    #[test]
    fn reply_slot_delivers_across_threads() {
        let slot = ReplySlot::new();
        let s2 = slot.clone();
        let t = std::thread::spawn(move || s2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        slot.fill(Reply::Count(7));
        assert_eq!(t.join().unwrap(), Reply::Count(7));
    }
}
