//! The multi-tenant scheduler core behind [`crate::MultiEngine`].
//!
//! The scheduler is generic over *what a batch executes* (the
//! [`GroupExecutor`] trait). Each tenant brings its own executor, its own
//! bounded submission queue and micro-batching knobs ([`TenantConfig`]),
//! and its own statistics, while one set of scheduler threads drains all
//! of them round-robin. [`crate::MultiEngine`] registers one tenant per
//! compiled plan.
//!
//! ## Request flow
//!
//! 1. Submitters push requests onto their tenant's **bounded** queue
//!    ([`TenantConfig::queue_capacity`]). When that queue is full,
//!    [`Scheduler::submit_wait`] and [`Scheduler::submit_many`] wait for
//!    space (bounded only by the request's deadline), and
//!    [`Scheduler::try_submit`] rejects at once with
//!    [`RuntimeError::Overloaded`]. Admission is strictly per-tenant: one
//!    tenant's full queue never drops (or delays the admission of)
//!    another tenant's requests.
//! 2. The scheduler threads pull from the queues **round-robin**: each
//!    pick serves the first backlogged tenant at or after a cursor, then
//!    moves the cursor past it, so every backlogged tenant gets one group
//!    per cycle and none can be starved, no matter how heavy its
//!    neighbours' traffic is.
//! 3. Within its turn the thread takes the tenant's queue head's input
//!    shape, coalesces up to [`TenantConfig::max_batch`] same-shaped
//!    requests (holding the batch open for at most
//!    [`TenantConfig::batch_window`], and for no longer than the
//!    tenant's batches have been measured to take — flushing early if
//!    any *other* tenant has work waiting, so one tenant's coalescing
//!    knob cannot inflate its neighbours' latency), drains the group in
//!    FIFO order and runs it through **that tenant's** executor. Groups
//!    never mix tenants, which is what keeps every tenant's outputs
//!    bit-identical to serving it alone.
//! 4. Each result is handed to its request's reply function, which is
//!    called exactly once (success, its own error, or
//!    [`RuntimeError::ExecutionPanicked`]), and a failing batch is retried
//!    per-request so one bad request cannot poison its batchmates.

use crate::stats::{ns, StageMeta, StatsInner};
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};
use crate::{PlanCacheStats, RuntimeError};
use epim_faults as faults;
use epim_obs::trace;
use epim_pim::datapath::DataPathStats;
use epim_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a scheduler executes: one shape-uniform request group at a time.
///
/// Implementations must be deterministic per input (batching is a
/// throughput decision, never a semantic one): `execute_batch` must return
/// outputs bit-identical to a batch of one per input, with the stats equal
/// to the per-input sum.
pub(crate) trait GroupExecutor: Send + Sync + 'static {
    /// Runs a group of same-shaped inputs, returning one output per input,
    /// the summed execution statistics, and the per-stage wall times
    /// (nanoseconds, index-aligned with [`GroupExecutor::stage_meta`];
    /// may be empty for executors without stage structure). `tenant` is
    /// this group's tenant index, forwarded so per-stage trace spans can
    /// be tenant-tagged ([`trace::TENANT_NONE`] outside a scheduler).
    /// The scheduler isolates a failing group by re-running each input as
    /// a batch of one.
    fn execute_batch(
        &self,
        tenant: u32,
        inputs: &[&Tensor],
    ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError>;

    /// Static stage descriptions for this executor's plan, index-aligned
    /// with the `stage_ns` slice `execute_batch` returns (empty for
    /// executors that report no per-stage times).
    fn stage_meta(&self) -> Vec<StageMeta> {
        Vec::new()
    }
}

/// Default [`crate::MultiEngineBuilder::restart_budget`]: generous enough
/// to ride out a burst of poisonous requests, small enough that a
/// deterministic crash loop fails fast.
pub const DEFAULT_RESTART_BUDGET: u32 = 8;

/// Per-tenant serving knobs: micro-batching and the bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Most requests coalesced into one executed batch for this tenant.
    pub max_batch: usize,
    /// Upper bound on how long a scheduler thread holds this tenant's
    /// non-full batch open for stragglers; the scheduler waits at most
    /// the tenant's measured service time, and not at all when that is
    /// below what a timed wait can resolve (about 100 us): waiting can
    /// save at most one batch's fixed cost, which is less than one
    /// service time. Until the tenant's first batch has been measured
    /// the window applies as configured. `Duration::ZERO` disables
    /// coalescing-by-time. The window closes early when any *other*
    /// tenant has pending work, so one tenant's coalescing knob never
    /// inflates its neighbours' latency.
    pub batch_window: Duration,
    /// This tenant's bounded submission-queue capacity (pending requests).
    pub queue_capacity: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            max_batch: 16,
            batch_window: Duration::from_micros(200),
            queue_capacity: 256,
        }
    }
}

impl TenantConfig {
    /// Validates the configuration, returning a typed error instead of
    /// letting a zero knob hang or panic a scheduler thread.
    pub(crate) fn validate(&self) -> Result<(), RuntimeError> {
        if self.max_batch == 0 {
            return Err(RuntimeError::config("max_batch must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(RuntimeError::config("queue_capacity must be at least 1"));
        }
        Ok(())
    }
}

/// One completed inference.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The output for this request's input.
    pub output: Tensor,
    /// How many requests shared the executed batch.
    pub batch_size: usize,
    /// Submission-to-delivery latency.
    pub latency: Duration,
}

/// Where a request's result goes. The scheduler calls it exactly once per
/// accepted request, on a scheduler thread (or the thread dropping the
/// engine) — sometimes while holding the queue lock — so it must neither
/// block, panic nor call back into the engine; handing the result to a
/// channel is the intended use.
pub(crate) type Reply = Box<dyn FnOnce(Result<Inference, RuntimeError>) + Send>;

/// A queued request: the input plus the reply its result is handed to.
struct Request {
    input: Tensor,
    submitted_at: Instant,
    /// Completion deadline, if the submitter set one. Expired requests
    /// are shed from the drain loop with
    /// [`RuntimeError::DeadlineExceeded`] instead of occupying a batch
    /// slot.
    deadline: Option<Instant>,
    reply: Reply,
}

/// One registered tenant: its executor, serving knobs and statistics.
struct Tenant<E> {
    /// Display label used in per-tenant errors.
    label: String,
    config: TenantConfig,
    exec: E,
    stats: Mutex<StatsInner>,
    /// Estimated wall time of one batched execution, in nanoseconds;
    /// `u64::MAX` until the first batch succeeds. A statistic (it
    /// publishes no other data): `Relaxed`, and an update lost between
    /// two workers is harmless.
    service_ns: AtomicU64,
}

impl<E> Tenant<E> {
    /// Feeds one successful batched execution into the service estimate,
    /// which follows a drop at once but at most doubles per batch: one
    /// stalled batch cannot bring a long hold back, a tenant that really
    /// got slower is tracked geometrically. Never 0, which cannot double.
    fn observe_service(&self, service: Duration) {
        let prev = self.service_ns.load(Ordering::Relaxed);
        let next = ns(service).min(prev.saturating_mul(2)).max(1);
        self.service_ns.store(next, Ordering::Relaxed);
    }

    /// How long a non-full group of this tenant is held open for
    /// stragglers: [`TenantConfig::batch_window`] capped by the service
    /// estimate (the window alone before the first batch, when the
    /// estimate is `u64::MAX` ns), and nothing below [`MIN_HOLD`].
    fn hold(&self) -> Duration {
        let estimate = Duration::from_nanos(self.service_ns.load(Ordering::Relaxed));
        let hold = self.config.batch_window.min(estimate);
        if hold < MIN_HOLD {
            Duration::ZERO
        } else {
            hold
        }
    }
}

/// The shortest hold worth a timed condvar wait. Below this the wait's own
/// cost (timer slack plus the wake-up) exceeds the hold asked for: on the
/// benchmark's `zoo_wire_paced` workload (tenants serving in 25-55 us, so
/// the service-time cap alone asks for holds that short) the p50 queue
/// wait measured 106-148 us with those holds taken and 9-11 us with them
/// skipped (2-vCPU guest, futex-backed `Condvar::wait_timeout`).
const MIN_HOLD: Duration = Duration::from_micros(100);

struct Shared<E: GroupExecutor> {
    tenants: Vec<Tenant<E>>,
    queue: Mutex<QueueSet>,
    /// Signals scheduler threads that some queue changed (new request,
    /// shutdown).
    submitted: Condvar,
    /// Signals blocked submitters that queue space freed up.
    space: Condvar,
    /// Worker panics recovered in place, fleet-wide (surfaced as
    /// `RuntimeStats::worker_restarts`). Workers claim restarts from it
    /// and never take it past `restart_budget`.
    restarts: AtomicU64,
    /// Most worker panics the fleet recovers from before it fails with
    /// [`RuntimeError::CrashLoop`].
    restart_budget: u32,
}

/// Every tenant's pending queue plus the round-robin cursor, all under
/// one lock so a group drain is atomic against submissions.
struct QueueSet {
    /// `pending[t]` = tenant `t`'s FIFO backlog.
    pending: Vec<VecDeque<Request>>,
    /// `high_water[t]` = most requests ever queued at once for tenant `t`
    /// (the autoscaling signal surfaced via `RuntimeStats`).
    high_water: Vec<usize>,
    /// Most requests ever queued at once across all tenants together.
    fleet_high_water: usize,
    /// The first tenant the next pick considers.
    cursor: usize,
    shutdown: bool,
}

impl QueueSet {
    fn any_pending(&self) -> bool {
        self.pending.iter().any(|q| !q.is_empty())
    }

    /// Round-robin: the first backlogged tenant at or after the cursor,
    /// which then moves past it. A turn later abandoned to a multi-worker
    /// race is not given back. The caller guarantees some tenant has
    /// pending work.
    fn pick_tenant(&mut self) -> usize {
        let n = self.pending.len();
        let tenant = (self.cursor..self.cursor + n)
            .map(|t| t % n)
            .find(|&t| !self.pending[t].is_empty())
            .expect("a tenant has pending work");
        self.cursor = (tenant + 1) % n;
        tenant
    }
}

/// The scheduler core: per-tenant bounded queues, round-robin draining,
/// shape-grouped micro-batching worker threads that recover from their
/// own panics under a fleet-wide restart budget, per-request delivery.
/// Engines wrap this around their executor(s).
pub(crate) struct Scheduler<E: GroupExecutor> {
    shared: Arc<Shared<E>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<E: GroupExecutor> Scheduler<E> {
    /// Validates every tenant's config and spawns `workers` scheduler
    /// threads draining all of them round-robin; together they recover
    /// from at most `restart_budget` panics.
    pub fn new(
        tenants: Vec<(String, E, TenantConfig)>,
        workers: usize,
        restart_budget: u32,
    ) -> Result<Self, RuntimeError> {
        if tenants.is_empty() {
            return Err(RuntimeError::config(
                "a scheduler needs at least one tenant",
            ));
        }
        if workers == 0 {
            return Err(RuntimeError::config("workers must be at least 1"));
        }
        for (_, _, config) in &tenants {
            config.validate()?;
        }
        let tenants: Vec<Tenant<E>> = tenants
            .into_iter()
            .map(|(label, exec, config)| {
                let stage_meta = exec.stage_meta();
                Tenant {
                    label,
                    config,
                    exec,
                    stats: Mutex::new(StatsInner::with_stages(stage_meta)),
                    service_ns: AtomicU64::new(u64::MAX),
                }
            })
            .collect();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueSet {
                pending: tenants.iter().map(|_| VecDeque::new()).collect(),
                high_water: vec![0; tenants.len()],
                fleet_high_water: 0,
                cursor: 0,
                shutdown: false,
            }),
            submitted: Condvar::new(),
            space: Condvar::new(),
            restarts: AtomicU64::new(0),
            restart_budget,
            tenants,
        });
        let workers = (0..workers)
            .map(|lane| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("epim-sched-{lane}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawning scheduler thread")
            })
            .collect();
        Ok(Scheduler { shared, workers })
    }

    /// The executor of tenant `tenant`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index (callers validate via
    /// [`Scheduler::check_tenant`] or hold an index they created).
    pub fn executor(&self, tenant: usize) -> &E {
        &self.shared.tenants[tenant].exec
    }

    /// Returns [`RuntimeError::UnknownTenant`] unless `tenant` is a
    /// registered index.
    pub fn check_tenant(&self, tenant: usize) -> Result<(), RuntimeError> {
        if tenant < self.shared.tenants.len() {
            Ok(())
        } else {
            Err(RuntimeError::UnknownTenant { id: tenant })
        }
    }

    /// Submits one request to `tenant`, waiting for queue space if need
    /// be, and waits for its result.
    pub fn submit_wait(
        &self,
        tenant: usize,
        req: crate::InferRequest,
    ) -> Result<Inference, RuntimeError> {
        let mut results =
            self.submit_and_wait(tenant, vec![req.input], req.client, req.deadline)?;
        results.pop().expect("one result per input")
    }

    /// Submits one request to `tenant` without ever waiting for queue
    /// space; `reply` gets its result. On `Err` nothing was queued and
    /// `reply` is dropped uncalled.
    pub fn try_submit(
        &self,
        tenant: usize,
        req: crate::InferRequest,
        reply: Reply,
    ) -> Result<(), RuntimeError> {
        self.enqueue(
            tenant,
            vec![(req.input, reply)],
            false,
            req.client,
            req.deadline,
        )
    }

    /// Submits a burst to `tenant` atomically (the whole burst is visible
    /// to the coalescers at once), waiting for queue space if need be,
    /// and waits for all results, in order.
    #[allow(clippy::type_complexity)]
    pub fn submit_many(
        &self,
        tenant: usize,
        inputs: Vec<Tensor>,
    ) -> Result<Vec<Result<Inference, RuntimeError>>, RuntimeError> {
        self.submit_and_wait(tenant, inputs, crate::CLIENT_NONE, None)
    }

    /// Enqueues `inputs` with replies that send into one channel, then
    /// waits for every result and returns them in input order. The
    /// channel disconnects once every reply has been called or dropped,
    /// so a reply that was never called reads as
    /// [`RuntimeError::ShuttingDown`] instead of a hang.
    #[allow(clippy::type_complexity)]
    fn submit_and_wait(
        &self,
        tenant: usize,
        inputs: Vec<Tensor>,
        client: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<Result<Inference, RuntimeError>>, RuntimeError> {
        let (tx, rx) = mpsc::channel();
        let count = inputs.len();
        let requests = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                let tx = tx.clone();
                let reply: Reply = Box::new(move |result| {
                    let _ = tx.send((i, result));
                });
                (input, reply)
            })
            .collect();
        drop(tx);
        self.enqueue(tenant, requests, true, client, deadline)?;
        let mut results: Vec<_> = (0..count)
            .map(|_| Err(RuntimeError::ShuttingDown))
            .collect();
        for (i, result) in rx {
            results[i] = result;
        }
        Ok(results)
    }

    /// A point-in-time statistics snapshot of one tenant; `plan_cache` is
    /// supplied by the wrapping engine (zeroes when it has no cache).
    pub fn tenant_stats(
        &self,
        tenant: usize,
        plan_cache: PlanCacheStats,
    ) -> Result<crate::RuntimeStats, RuntimeError> {
        let ten = self.tenant_ref(tenant)?;
        let (queue_depth, high_water) = {
            let queue = lock_recover(&self.shared.queue);
            (queue.pending[tenant].len(), queue.high_water[tenant])
        };
        let mut stats = lock_recover(&ten.stats).snapshot(queue_depth, high_water, plan_cache);
        stats.worker_restarts = self.shared.restarts.load(Ordering::Relaxed);
        Ok(stats)
    }

    /// The fleet-level rollup across every tenant: counters and data-path
    /// rollups sum, the batch histograms merge element-wise, and the
    /// latency percentiles are computed over the union of every tenant's
    /// retained samples.
    pub fn fleet_stats(&self, plan_cache: PlanCacheStats) -> crate::RuntimeStats {
        let (queue_depth, high_water) = {
            let queue = lock_recover(&self.shared.queue);
            (
                queue.pending.iter().map(VecDeque::len).sum(),
                queue.fleet_high_water,
            )
        };
        let mut rollup = StatsInner::default();
        for tenant in &self.shared.tenants {
            rollup.absorb(&lock_recover(&tenant.stats));
        }
        let mut stats = rollup.snapshot(queue_depth, high_water, plan_cache);
        stats.worker_restarts = self.shared.restarts.load(Ordering::Relaxed);
        stats
    }

    fn tenant_ref(&self, tenant: usize) -> Result<&Tenant<E>, RuntimeError> {
        self.shared
            .tenants
            .get(tenant)
            .ok_or(RuntimeError::UnknownTenant { id: tenant })
    }

    /// Pushes requests onto `tenant`'s bounded queue under one lock (so a
    /// burst coalesces deterministically) and wakes the scheduler threads.
    /// `client` is the submitting connection's tag
    /// ([`crate::CLIENT_NONE`] in-process), packed into the `Enqueue`
    /// trace span so exported traces attribute request flow per
    /// connection. A full queue is waited out when `wait` is set and
    /// rejected at once otherwise. `request_deadline` (uniform across the
    /// submission) bounds that wait and rides along on every queued
    /// request so the drain loop can shed it if it expires before
    /// execution.
    fn enqueue(
        &self,
        tenant: usize,
        requests: Vec<(Tensor, Reply)>,
        wait: bool,
        client: u64,
        request_deadline: Option<Instant>,
    ) -> Result<(), RuntimeError> {
        let shared = &self.shared;
        let ten = self.tenant_ref(tenant)?;
        let capacity = ten.config.queue_capacity;
        let admitted = requests.len();
        if admitted > capacity {
            return Err(RuntimeError::config(format!(
                "burst of {admitted} exceeds queue_capacity {capacity}"
            )));
        }
        let now = Instant::now();
        let deadline_shed = |count: usize| {
            lock_recover(&ten.stats).record_deadline_exceeded(count as u64);
            RuntimeError::DeadlineExceeded
        };
        if request_deadline.is_some_and(|d| d <= now) {
            return Err(deadline_shed(admitted));
        }
        let mut queue = lock_recover(&shared.queue);
        // Backpressure: wait (or shed) until the whole submission fits in
        // this tenant's queue. Other tenants' backlogs are invisible here —
        // admission is strictly per-tenant.
        while !queue.shutdown && queue.pending[tenant].len() + admitted > capacity {
            let now = Instant::now();
            if request_deadline.is_some_and(|d| d <= now) {
                drop(queue);
                return Err(deadline_shed(admitted));
            }
            if !wait {
                drop(queue);
                lock_recover(&ten.stats).record_shed(admitted as u64);
                trace::instant(
                    trace::SpanKind::Shed,
                    tenant as u32,
                    admitted as u64,
                    capacity as u64,
                );
                return Err(RuntimeError::Overloaded {
                    tenant: Some(ten.label.clone()),
                    capacity,
                });
            }
            queue = match request_deadline {
                None => wait_recover(&shared.space, queue),
                Some(d) => wait_timeout_recover(&shared.space, queue, d - now).0,
            };
        }
        if queue.shutdown {
            return Err(RuntimeError::ShuttingDown);
        }
        for (input, reply) in requests {
            queue.pending[tenant].push_back(Request {
                input,
                submitted_at: now,
                deadline: request_deadline,
                reply,
            });
        }
        let depth = queue.pending[tenant].len();
        queue.high_water[tenant] = queue.high_water[tenant].max(depth);
        let total: usize = queue.pending.iter().map(VecDeque::len).sum();
        queue.fleet_high_water = queue.fleet_high_water.max(total);
        drop(queue);
        // Enqueue payload: `a` = requests admitted, `b` = the originating
        // connection tag in the high 32 bits over the post-admission queue
        // depth (depth is bounded by queue_capacity, well under 2^32).
        trace::instant(
            trace::SpanKind::Enqueue,
            tenant as u32,
            admitted as u64,
            ((client & 0xFFFF_FFFF) << 32) | depth as u64,
        );
        shared.submitted.notify_all();
        Ok(())
    }
}

impl<E: GroupExecutor> Drop for Scheduler<E> {
    fn drop(&mut self) {
        {
            let mut queue = lock_recover(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.submitted.notify_all();
        self.shared.space.notify_all();
        // Workers drain every queued request before returning.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Fail-safe: with every worker gone, anything still queued (a
        // submission that raced the shutdown flag, or work left by a
        // worker that panicked during shutdown) would hang forever.
        drain_all(&self.shared, RuntimeError::ShuttingDown);
    }
}

/// One scheduler thread: serve until shut down, recovering from its own
/// panics in place.
///
/// Per-batch panics are caught inside [`execute_group`] and delivered as
/// [`RuntimeError::ExecutionPanicked`]; anything that escapes (an
/// injected worker kill, a panic inside the stats critical section)
/// unwinds [`serve`], and [`DeliveryGuard`] answers every in-hand request
/// on the way out. Unless the fleet is shutting down, the thread then
/// claims one restart from the fleet-wide budget, backs off (2 ms, 4 ms,
/// … capped at 128 ms, so a deterministic crash loop burns its budget in
/// well under a second) and serves again; once the budget is spent it
/// fails the fleet with [`RuntimeError::CrashLoop`].
fn worker_main<E: GroupExecutor>(shared: &Shared<E>) {
    while std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serve(shared))).is_err() {
        if lock_recover(&shared.queue).shutdown {
            return;
        }
        let budget = u64::from(shared.restart_budget);
        let claimed = shared
            .restarts
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < budget).then_some(n + 1)
            });
        match claimed {
            Ok(n) => std::thread::sleep(Duration::from_millis(1 << (n + 1).min(7))),
            Err(n) => {
                drain_all(shared, RuntimeError::CrashLoop { restarts: n as u32 });
                return;
            }
        }
    }
}

/// The worker loop: pick a tenant, coalesce, execute, deliver, until shut
/// down.
fn serve<E: GroupExecutor>(shared: &Shared<E>) {
    while let Some((tenant, group)) = next_group(shared) {
        execute_group(shared, tenant, group);
        // Injected worker kill: fires *after* the group delivered, so the
        // panic costs a restart, never an answer.
        if faults::fires(faults::FaultPoint::WorkerPanic) {
            panic!("injected fault: worker panic after batch");
        }
    }
}

/// Sets shutdown and delivers `error` to every queued request, waking all
/// parked submitters and workers.
fn drain_all<E: GroupExecutor>(shared: &Shared<E>, error: RuntimeError) {
    let mut queue = lock_recover(&shared.queue);
    queue.shutdown = true;
    for pending in &mut queue.pending {
        for request in pending.drain(..) {
            (request.reply)(Err(error.clone()));
        }
    }
    drop(queue);
    shared.submitted.notify_all();
    shared.space.notify_all();
}

/// True if any tenant other than `tenant` has pending work — the signal
/// for a coalescing thread to flush early instead of sitting on its batch
/// window while neighbours wait.
fn others_pending(queue: &QueueSet, tenant: usize) -> bool {
    queue
        .pending
        .iter()
        .enumerate()
        .any(|(t, q)| t != tenant && !q.is_empty())
}

/// Sheds every queued request whose deadline has already passed,
/// recording per-tenant counters and handing each the typed
/// [`RuntimeError::DeadlineExceeded`]. Returns whether anything was shed
/// (queue space freed). The caller holds the queue lock; the stats mutex
/// is a leaf lock (nothing takes the queue lock while holding it) and a
/// reply never calls back into the engine, so neither can deadlock
/// underneath.
fn shed_expired<E: GroupExecutor>(queue: &mut QueueSet, shared: &Shared<E>) -> bool {
    let now = Instant::now();
    let expired = |request: &Request| request.deadline.is_some_and(|d| d <= now);
    let mut any = false;
    for (t, pending) in queue.pending.iter_mut().enumerate() {
        if !pending.iter().any(expired) {
            continue;
        }
        let (shed, kept): (VecDeque<Request>, VecDeque<Request>) =
            pending.drain(..).partition(expired);
        *pending = kept;
        lock_recover(&shared.tenants[t].stats).record_deadline_exceeded(shed.len() as u64);
        for request in shed {
            (request.reply)(Err(RuntimeError::DeadlineExceeded));
        }
        any = true;
    }
    any
}

/// Blocks for the next same-shape request group of some tenant, honoring
/// the round-robin drain and the tenant's batch window. Returns `None`
/// when shut down with every queue empty.
fn next_group<E: GroupExecutor>(shared: &Shared<E>) -> Option<(usize, Vec<Request>)> {
    let mut queue = lock_recover(&shared.queue);
    // With several workers a queue head can change (or vanish) under us
    // while we wait; every such race restarts this loop — iteration, not
    // recursion, so sustained churn cannot grow the stack.
    'regroup: loop {
        // Park until there is work somewhere (or nothing more will come).
        loop {
            if queue.any_pending() {
                break;
            }
            if queue.shutdown {
                return None;
            }
            queue = wait_recover(&shared.submitted, queue);
        }

        // Expired requests are shed before a tenant is picked: a batch
        // slot must never be spent on an answer nobody is waiting for.
        // Shedding may empty every queue, so re-enter the park loop.
        if shed_expired(&mut queue, shared) {
            shared.space.notify_all();
            continue 'regroup;
        }

        // Round-robin tenant selection, then coalesce within that
        // tenant: hold the batch open for up to its `batch_window` (less
        // when the tenant serves faster than that, see `Tenant::hold`), or
        // until `max_batch` requests of the head's shape have arrived.
        // Shutdown flushes immediately, and so does a backlog on any
        // *other* tenant — one tenant's coalescing knob must not inflate
        // its neighbours' latency while they have runnable work.
        let tenant = queue.pick_tenant();
        let t_coalesce = trace::start();
        let config = shared.tenants[tenant].config;
        let shape: Vec<usize> = queue.pending[tenant][0].input.shape().to_vec();
        let hold = shared.tenants[tenant].hold();
        let deadline = Instant::now() + hold;
        loop {
            let same = queue.pending[tenant]
                .iter()
                .filter(|r| r.input.shape() == shape)
                .count();
            if same >= config.max_batch || queue.shutdown || others_pending(&queue, tenant) {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (q, timeout) = wait_timeout_recover(&shared.submitted, queue, deadline - now);
            queue = q;
            if timeout.timed_out() {
                break;
            }
            // Another worker may have drained this tenant (or its head
            // shape) while we waited; restart the pick.
            if queue.pending[tenant].is_empty() || queue.pending[tenant][0].input.shape() != shape {
                continue 'regroup;
            }
        }
        // Requests may have expired while the batch window held them
        // open; shed them now rather than batching them.
        if shed_expired(&mut queue, shared) {
            shared.space.notify_all();
        }
        if queue.pending[tenant].is_empty() {
            continue 'regroup;
        }

        // Drain the head's shape group in FIFO order; other shapes stay
        // queued for their own group (the shape-divergence fallback).
        let mut group = Vec::new();
        let mut i = 0;
        while i < queue.pending[tenant].len() && group.len() < config.max_batch {
            if queue.pending[tenant][i].input.shape() == shape {
                group.push(queue.pending[tenant].remove(i).expect("index checked"));
            } else {
                i += 1;
            }
        }
        if group.is_empty() {
            continue 'regroup;
        }
        drop(queue);
        trace::span(
            trace::SpanKind::Coalesce,
            tenant as u32,
            0,
            t_coalesce,
            group.len() as u64,
            ns(hold),
        );
        // Queue space freed: wake blocked submitters.
        shared.space.notify_all();
        return Some((tenant, group));
    }
}

/// Owns a drained group for the duration of its execution. Requests leave
/// the guard one by one as they are delivered; if the executing thread
/// unwinds first — an injected lock-holder panic, a panic escaping the
/// per-batch guard — `Drop` fails every still-undelivered request with
/// [`RuntimeError::ExecutionPanicked`]. The panic still propagates (and
/// costs the worker a restart), but it can never strand a parked
/// submitter.
struct DeliveryGuard {
    requests: Vec<Option<Request>>,
}

impl DeliveryGuard {
    fn new(group: Vec<Request>) -> Self {
        DeliveryGuard {
            requests: group.into_iter().map(Some).collect(),
        }
    }

    /// The `i`th request (must not have been delivered yet).
    fn get(&self, i: usize) -> &Request {
        self.requests[i]
            .as_ref()
            .expect("request already delivered")
    }

    /// Delivers `result` to the `i`th request, removing it from the
    /// guard's custody.
    fn deliver(&mut self, i: usize, result: Result<Inference, RuntimeError>) {
        if let Some(request) = self.requests[i].take() {
            (request.reply)(result);
        }
    }
}

impl Drop for DeliveryGuard {
    fn drop(&mut self) {
        for request in self.requests.iter_mut().filter_map(Option::take) {
            (request.reply)(Err(RuntimeError::ExecutionPanicked));
        }
    }
}

/// Runs one group through its tenant's executor and delivers results.
///
/// Every request in the group is guaranteed a delivery: success, its own
/// error, or [`RuntimeError::ExecutionPanicked`] if the executor panicked
/// — a panicking batch must never strand its submitters. The guarantee
/// holds even if this function itself unwinds: the [`DeliveryGuard`]
/// fails whatever it still holds.
fn execute_group<E: GroupExecutor>(shared: &Shared<E>, tenant: usize, group: Vec<Request>) {
    let ten = &shared.tenants[tenant];
    let batch_size = group.len();
    let mut guard = DeliveryGuard::new(group);
    let inputs: Vec<&Tensor> = (0..batch_size).map(|i| &guard.get(i).input).collect();
    let exec_started = Instant::now();
    let t_group = trace::start();
    let batch_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ten.exec.execute_batch(tenant as u32, &inputs)
    }));
    drop(inputs);
    trace::span(
        trace::SpanKind::Group,
        tenant as u32,
        0,
        t_group,
        batch_size as u64,
        0,
    );
    match batch_result {
        Err(_) => {
            for i in 0..batch_size {
                guard.deliver(i, Err(RuntimeError::ExecutionPanicked));
            }
        }
        Ok(Ok(executed)) => {
            let service = exec_started.elapsed();
            ten.observe_service(service);
            record_and_deliver(ten, &mut guard, 0, executed, exec_started, service);
        }
        Ok(Err(_)) => {
            // Defensive fallback: rerun the group one request at a time so
            // one bad request cannot poison its batchmates. Each retry is
            // a batch of one, recorded with its own statistics, or answered
            // with its own error.
            for i in 0..batch_size {
                let started = Instant::now();
                let input = &guard.get(i).input;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ten.exec.execute_batch(tenant as u32, &[input])
                }));
                match outcome {
                    Ok(Ok(executed)) => {
                        let service = started.elapsed();
                        record_and_deliver(ten, &mut guard, i, executed, exec_started, service);
                    }
                    Ok(Err(e)) => guard.deliver(i, Err(e)),
                    Err(_) => guard.deliver(i, Err(RuntimeError::ExecutionPanicked)),
                }
            }
        }
    }
}

/// Records one executed batch — the guard's requests from `first` on, one
/// per output, which shared `service` of execution time — into the
/// tenant's statistics, then hands each request its output.
/// `exec_started` marks the end of each request's queue wait; the clock
/// is read once more when the batch is done, and that one reading ends
/// both the recorded end-to-end latency and the one each caller receives.
fn record_and_deliver<E>(
    tenant: &Tenant<E>,
    guard: &mut DeliveryGuard,
    first: usize,
    (outputs, dp_stats, stage_ns): (Vec<Tensor>, DataPathStats, Vec<u64>),
    exec_started: Instant,
    service: Duration,
) {
    let batch_size = outputs.len();
    let done = Instant::now();
    {
        let mut stats = lock_recover(&tenant.stats);
        // Injected lock-holder panic: unwinds while holding the stats
        // mutex (poisoning it) with the batch outputs in hand — the
        // delivery guard fails the requests, lock recovery un-poisons the
        // mutex for the restarted worker.
        if faults::fires(faults::FaultPoint::LockPanic) {
            panic!("injected fault: panic while holding the stats lock");
        }
        stats.record_batch(batch_size, &dp_stats, &stage_ns);
        for i in first..first + batch_size {
            let submitted_at = guard.get(i).submitted_at;
            stats.record_request(
                exec_started.saturating_duration_since(submitted_at),
                service,
                done.saturating_duration_since(submitted_at),
            );
        }
    }
    for (i, output) in (first..).zip(outputs) {
        let latency = done.saturating_duration_since(guard.get(i).submitted_at);
        guard.deliver(
            i,
            Ok(Inference {
                output,
                batch_size,
                latency,
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    //! The coalescing hold against a stub executor of known cost. Every
    //! timing assertion is one-sided with a margin of at least 2x, and no
    //! sleep is shorter than 2 ms.
    use super::*;
    use crate::InferRequest;
    use std::sync::atomic::AtomicU8;
    use std::sync::Barrier;

    const RUN: u8 = 0;
    const FAIL_BATCH: u8 = 1;
    const PANIC_BATCH: u8 = 2;
    const PANIC_ON_POOL: u8 = 3;

    /// Echoes its inputs after sleeping `cost_ms`; `mode` makes the next
    /// call panic, on the scheduler thread or inside a pool region, or
    /// fail (`FAIL_BATCH` refuses one call, so the per-request retry that
    /// follows is served). Each served call first takes `gate`, then
    /// appends its `tenant` argument to `log`, which every stub of one
    /// fleet shares.
    struct Stub {
        cost_ms: AtomicU64,
        mode: AtomicU8,
        gate: Mutex<()>,
        log: Arc<Mutex<Vec<u32>>>,
    }

    impl Stub {
        fn new(cost_ms: u64, log: Arc<Mutex<Vec<u32>>>) -> Self {
            Stub {
                cost_ms: AtomicU64::new(cost_ms),
                mode: AtomicU8::new(RUN),
                gate: Mutex::new(()),
                log,
            }
        }

        fn work(&self) {
            let ms = self.cost_ms.load(Ordering::SeqCst);
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }

    impl GroupExecutor for Stub {
        fn execute_batch(
            &self,
            tenant: u32,
            inputs: &[&Tensor],
        ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError> {
            match self.mode.load(Ordering::SeqCst) {
                FAIL_BATCH => {
                    self.mode.store(RUN, Ordering::SeqCst);
                    return Err(RuntimeError::config("stub: batch refused"));
                }
                PANIC_BATCH => panic!("stub: batch panicked"),
                PANIC_ON_POOL => epim_parallel::for_each_chunk_mut(&mut [0u8; 2], 1, |i, _| {
                    panic!("stub: sub-batch {i} panicked")
                }),
                _ => {}
            }
            drop(self.gate.lock().unwrap());
            self.log.lock().unwrap().push(tenant);
            self.work();
            let outputs = inputs.iter().map(|&t| t.clone()).collect();
            Ok((outputs, DataPathStats::default(), Vec::new()))
        }
    }

    fn tenant(window_ms: u64, max_batch: usize) -> TenantConfig {
        TenantConfig {
            max_batch,
            batch_window: Duration::from_millis(window_ms),
            ..TenantConfig::default()
        }
    }

    /// One worker, no restart budget, one tenant per `(cost_ms, config)`.
    fn fleet(tenants: &[(u64, TenantConfig)]) -> Scheduler<Stub> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tenants = tenants
            .iter()
            .map(|&(cost_ms, config)| ("stub".to_string(), Stub::new(cost_ms, log.clone()), config))
            .collect();
        Scheduler::new(tenants, 1, 0).unwrap()
    }

    fn request() -> InferRequest {
        InferRequest::new(Tensor::zeros(&[1]))
    }

    /// Submits without waiting for queue space; the receiver yields the
    /// result once the scheduler calls the reply.
    fn submit(
        sched: &Scheduler<Stub>,
        tenant: usize,
        req: InferRequest,
    ) -> mpsc::Receiver<Result<Inference, RuntimeError>> {
        let (tx, rx) = mpsc::channel();
        let reply: Reply = Box::new(move |result| {
            let _ = tx.send(result);
        });
        sched.try_submit(tenant, req, reply).unwrap();
        rx
    }

    fn estimate(sched: &Scheduler<Stub>) -> u64 {
        sched.shared.tenants[0].service_ns.load(Ordering::Relaxed)
    }

    #[test]
    fn service_estimate_caps_the_hold() {
        let window = Duration::from_millis(50);
        let ten = Tenant {
            label: String::new(),
            config: TenantConfig {
                batch_window: window,
                ..TenantConfig::default()
            },
            exec: (),
            stats: Mutex::new(StatsInner::default()),
            service_ns: AtomicU64::new(u64::MAX),
        };
        assert_eq!(ten.hold(), window, "cold start keeps the configured window");

        // A cheap tenant is not held at all, and one 100x stall does not
        // change that: the estimate at most doubles, then follows the
        // next normal batch straight back down.
        ten.observe_service(Duration::from_micros(45));
        assert_eq!(ten.hold(), Duration::ZERO);
        ten.observe_service(Duration::from_micros(4500));
        assert_eq!(ten.service_ns.load(Ordering::Relaxed), 90_000);
        assert_eq!(ten.hold(), Duration::ZERO);
        ten.observe_service(Duration::from_micros(45));
        assert_eq!(ten.service_ns.load(Ordering::Relaxed), 45_000);

        // Between the minimum hold and the window, the hold is the
        // estimate itself.
        ten.observe_service(Duration::from_micros(60));
        ten.observe_service(Duration::from_micros(120));
        assert_eq!(ten.hold(), Duration::from_micros(120));

        // A tenant that really got expensive is followed geometrically
        // and ends at the window, never above it. A zero sample cannot
        // pin the estimate at zero.
        ten.observe_service(Duration::ZERO);
        assert_eq!(ten.service_ns.load(Ordering::Relaxed), 1);
        for _ in 0..40 {
            ten.observe_service(Duration::from_millis(150));
        }
        assert_eq!(ten.service_ns.load(Ordering::Relaxed), 150_000_000);
        assert_eq!(ten.hold(), window);
    }

    /// (a) The first group on a fresh fleet has no estimate to cap with:
    /// it waits out the configured window and takes what arrives in it.
    #[test]
    fn cold_start_holds_for_the_configured_window() {
        let sched = fleet(&[(0, tenant(200, 4))]);
        let first = submit(&sched, 0, request());
        std::thread::sleep(Duration::from_millis(20));
        let second = submit(&sched, 0, request());
        let first = first.recv().unwrap().unwrap();
        let second = second.recv().unwrap().unwrap();
        assert_eq!((first.batch_size, second.batch_size), (2, 2));
        assert!(
            first.latency >= Duration::from_millis(180),
            "the cold hold ended after {:?} of a 200 ms window",
            first.latency
        );
    }

    /// (b) + (d) Once a cheap tenant has been measured, a lone request is
    /// served at once instead of after the window, and a single stalled
    /// batch does not bring the window back for the requests after it.
    #[test]
    fn cheap_tenant_is_not_held_even_after_one_stall() {
        let sched = fleet(&[(0, tenant(50, 4))]);
        let lone = || sched.submit_wait(0, request()).unwrap().latency;
        assert!(lone() >= Duration::from_millis(45), "warm-up is cold");
        for _ in 0..3 {
            let latency = lone();
            assert!(latency < Duration::from_millis(25), "held {latency:?}");
        }
        sched.executor(0).cost_ms.store(30, Ordering::SeqCst);
        lone();
        sched.executor(0).cost_ms.store(0, Ordering::SeqCst);
        for _ in 0..3 {
            let latency = lone();
            assert!(latency < Duration::from_millis(25), "held {latency:?}");
        }
    }

    /// (c) A tenant that costs more than its window keeps the whole
    /// window — the `r50_*` guard: two closed-loop callers stay paired —
    /// and because the hold is anchored when the group is picked, a pair
    /// knocked into alternation finds itself again.
    #[test]
    fn expensive_tenant_keeps_coalescing_and_recovers_from_alternation() {
        const ROUNDS: usize = 36;
        const KNOCK: usize = 30;
        let sched = fleet(&[(20, tenant(10, 2))]);
        let start = Barrier::new(2);
        let sizes: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..2)
                .map(|caller| {
                    let (sched, start) = (&sched, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..ROUNDS)
                            .map(|round| {
                                if caller == 0 && round == KNOCK {
                                    // Three windows late: the twin's hold
                                    // expires and it runs alone.
                                    std::thread::sleep(Duration::from_millis(30));
                                }
                                sched.submit_wait(0, request()).unwrap().batch_size
                            })
                            .collect()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for caller in &sizes {
            assert!(
                caller[1..KNOCK].iter().all(|&b| b == 2),
                "every group after the first is a pair: {sizes:?}"
            );
            // The last round is left out: after the knock the callers are
            // one round apart, so one of them ends without a twin.
            assert!(
                caller[KNOCK + 2..ROUNDS - 1].iter().all(|&b| b == 2),
                "paired again within two rounds of the knock: {sizes:?}"
            );
        }
        assert_eq!(sizes[1][KNOCK], 1, "the knock split the pair: {sizes:?}");
    }

    /// (e) What ends a hold early is unchanged: work on another tenant,
    /// shutdown, and a deadline that expires while the request is held.
    #[test]
    fn hold_still_yields_to_neighbours_shutdown_and_deadlines() {
        let sched = fleet(&[(0, tenant(400, 4)), (0, tenant(400, 4))]);
        let held = submit(&sched, 0, request());
        std::thread::sleep(Duration::from_millis(20));
        let neighbour = submit(&sched, 1, request());
        let flushed = held.recv().unwrap().unwrap().latency;
        assert!(
            flushed < Duration::from_millis(200),
            "a neighbour's arrival must flush the held group, took {flushed:?}"
        );
        // The neighbour is now the one held (cold, 400 ms); dropping the
        // scheduler flushes and serves it.
        drop(sched);
        let drained = neighbour.recv().unwrap().unwrap().latency;
        assert!(
            drained < Duration::from_millis(200),
            "shutdown must flush the held group, took {drained:?}"
        );

        let sched = fleet(&[(0, tenant(100, 4))]);
        let doomed = request().with_deadline(Instant::now() + Duration::from_millis(20));
        let outcome = submit(&sched, 0, doomed).recv().unwrap();
        assert!(matches!(outcome, Err(RuntimeError::DeadlineExceeded)));
        let stats = sched.tenant_stats(0, PlanCacheStats::default()).unwrap();
        assert_eq!(stats.deadline_exceeded, 1);
    }

    /// (f) Only a successful batched execution is a measurement of what
    /// a batch costs.
    #[test]
    fn failed_executions_do_not_feed_the_estimate() {
        let sched = fleet(&[(2, tenant(0, 4))]);
        sched.executor(0).mode.store(FAIL_BATCH, Ordering::SeqCst);
        let fallback = sched.submit_wait(0, request());
        assert!(fallback.is_ok(), "the per-request fallback serves it");
        assert_eq!(estimate(&sched), u64::MAX);

        sched.executor(0).mode.store(PANIC_BATCH, Ordering::SeqCst);
        let panicked = sched.submit_wait(0, request());
        assert!(matches!(panicked, Err(RuntimeError::ExecutionPanicked)));
        assert_eq!(estimate(&sched), u64::MAX);

        sched.executor(0).mode.store(RUN, Ordering::SeqCst);
        sched.submit_wait(0, request()).unwrap();
        let measured = estimate(&sched);
        assert!(
            (2_000_000..u64::MAX).contains(&measured),
            "a 2 ms batch was measured as {measured} ns"
        );
    }

    /// A group whose batched execution fails is rerun one request at a
    /// time, and the statistics count what ran: three batches of one.
    #[test]
    fn per_request_retries_are_recorded_as_batches_of_one() {
        let sched = fleet(&[(0, tenant(0, 4))]);
        sched.executor(0).mode.store(FAIL_BATCH, Ordering::SeqCst);
        let results = sched.submit_many(0, vec![Tensor::zeros(&[1]); 3]).unwrap();
        for result in &results {
            assert_eq!(result.as_ref().unwrap().batch_size, 1, "{results:?}");
        }
        let stats = sched.tenant_stats(0, PlanCacheStats::default()).unwrap();
        assert_eq!((stats.requests, stats.batches), (3, 3));
        assert_eq!(stats.batch_histogram[0], 3);
    }

    /// The end-to-end latency the statistics record is the one each
    /// caller receives, to the nanosecond.
    #[test]
    fn recorded_end_to_end_latency_is_what_callers_receive() {
        let sched = fleet(&[(1, tenant(0, 4))]);
        let results = sched.submit_many(0, vec![Tensor::zeros(&[1]); 3]).unwrap();
        let received: u64 = results
            .iter()
            .map(|result| ns(result.as_ref().unwrap().latency))
            .sum();
        let stats = sched.tenant_stats(0, PlanCacheStats::default()).unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.e2e.sum, received, "recorded vs received e2e ns");
    }

    /// Two tenants backlogged behind one worker are drained round-robin,
    /// one group each in turn. The worker is held in tenant 0's first
    /// group until both backlogs are queued; whether that first group is
    /// the plug alone or the plug plus tenant 0's first request, the
    /// groups alternate from then on.
    #[test]
    fn backlogged_tenants_alternate_group_by_group() {
        const BACKLOG: usize = 6;
        let sched = fleet(&[(0, tenant(0, 2)), (0, tenant(0, 2))]);
        let gate = sched.executor(0).gate.lock().unwrap();
        let mut replies = vec![submit(&sched, 0, request())];
        for _ in 0..BACKLOG {
            replies.push(submit(&sched, 0, request()));
            replies.push(submit(&sched, 1, request()));
        }
        drop(gate);
        for reply in replies {
            reply.recv().unwrap().unwrap();
        }
        let log = sched.executor(0).log.lock().unwrap().clone();
        assert_eq!(log, [0, 1, 0, 1, 0, 1, 0], "drain order");
    }

    /// A batch that panics inside a pool region, where a split group runs
    /// its sub-batches, fails with the same typed error as any panicking
    /// batch and costs no worker restart (this fleet has no restart
    /// budget: a crashed worker would fail the next request).
    #[test]
    fn a_panic_on_the_pool_is_a_typed_error_not_a_restart() {
        let sched = fleet(&[(0, tenant(0, 4))]);
        sched
            .executor(0)
            .mode
            .store(PANIC_ON_POOL, Ordering::SeqCst);
        let panicked = sched.submit_wait(0, request());
        assert!(matches!(panicked, Err(RuntimeError::ExecutionPanicked)));
        sched.executor(0).mode.store(RUN, Ordering::SeqCst);
        sched.submit_wait(0, request()).unwrap();
        let stats = sched.tenant_stats(0, PlanCacheStats::default()).unwrap();
        assert_eq!(stats.worker_restarts, 0);
    }
}
