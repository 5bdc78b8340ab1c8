//! The multi-tenant scheduler core behind [`crate::MultiEngine`].
//!
//! The scheduler is generic over *what a batch executes* (the
//! [`GroupExecutor`] trait). Each tenant brings its own executor, its own
//! bounded submission queue with its own [`FlowControl`] and
//! micro-batching knobs ([`TenantConfig`]), and its own statistics, while
//! one set of scheduler threads drains all of them under a weighted-fair
//! policy. [`crate::MultiEngine`] registers one tenant per compiled plan.
//!
//! ## Request flow
//!
//! 1. Submitters push requests onto their tenant's **bounded** queue
//!    ([`TenantConfig::queue_capacity`]). When that queue is full the
//!    tenant's [`FlowControl`] decides: [`FlowControl::Block`] waits for
//!    space (no request is ever dropped), [`FlowControl::Shed`] waits up
//!    to its timeout and then rejects with [`RuntimeError::Overloaded`].
//!    [`Scheduler::try_submit`] never waits. Flow control is strictly
//!    per-tenant: one tenant shedding can never drop (or delay the
//!    admission of) another tenant's requests.
//! 2. The scheduler threads pull from the queues under **weighted-fair
//!    draining**: a round-robin cursor walks the tenants, and a tenant
//!    with [`TenantConfig::weight`] `w` may drain up to `w` request
//!    groups before the cursor must move on. Because every weight is at
//!    least 1 and the cursor visits every backlogged tenant once per
//!    cycle, no tenant can be starved, no matter how heavy its
//!    neighbours' traffic is; tenants within one weight class are served
//!    round-robin.
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
//! 4. Results are delivered to per-request slots; every request is
//!    guaranteed a delivery (success, its own error, or
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
/// outputs bit-identical to `execute_one` per input, with the stats equal
/// to the per-input sum.
pub(crate) trait GroupExecutor: Send + Sync + 'static {
    /// Runs a group of same-shaped inputs, returning one output per input,
    /// the summed execution statistics, and the per-stage wall times
    /// (nanoseconds, index-aligned with [`GroupExecutor::stage_meta`];
    /// may be empty for executors without stage structure). `tenant` is
    /// this group's tenant index, forwarded so per-stage trace spans can
    /// be tenant-tagged ([`trace::TENANT_NONE`] outside a scheduler).
    fn execute_batch(
        &self,
        tenant: u32,
        inputs: &[&Tensor],
    ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError>;

    /// Runs a single input (the per-request fallback used to isolate a
    /// failing batch).
    fn execute_one(
        &self,
        tenant: u32,
        input: &Tensor,
    ) -> Result<(Tensor, DataPathStats), RuntimeError>;

    /// Static stage descriptions for this executor's plan, index-aligned
    /// with the `stage_ns` slice `execute_batch` returns (empty for
    /// executors that report no per-stage times).
    fn stage_meta(&self) -> Vec<StageMeta> {
        Vec::new()
    }
}

/// Flow-control policy applied when a bounded submission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControl {
    /// Block the submitter until space frees up. Nothing is ever dropped;
    /// backpressure propagates to the caller.
    Block,
    /// Wait up to `timeout` for space, then reject the submission with
    /// [`RuntimeError::Overloaded`]. `Duration::ZERO` sheds immediately.
    Shed {
        /// How long a submitter may wait for queue space before shedding.
        timeout: Duration,
    },
}

/// Default [`crate::MultiEngineBuilder::restart_budget`]: generous enough
/// to ride out a burst of poisonous requests, small enough that a
/// deterministic crash loop fails fast.
pub const DEFAULT_RESTART_BUDGET: u32 = 8;

/// Per-tenant serving knobs: micro-batching, bounded-queue flow control
/// and the tenant's weight in the fair-draining policy.
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
    /// What happens to this tenant's submissions when its queue is full.
    /// Strictly per-tenant: a shedding tenant never drops a blocking
    /// tenant's requests.
    pub flow: FlowControl,
    /// Drain weight: how many request groups this tenant may drain per
    /// round-robin turn before the cursor moves to the next backlogged
    /// tenant. Must be at least 1 (every tenant with a nonzero weight is
    /// visited once per cycle, which is what makes draining
    /// starvation-free).
    pub weight: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            max_batch: 16,
            batch_window: Duration::from_micros(200),
            queue_capacity: 256,
            flow: FlowControl::Block,
            weight: 1,
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
        if self.weight == 0 {
            return Err(RuntimeError::config(
                "tenant weight must be at least 1 (zero would starve the tenant)",
            ));
        }
        Ok(())
    }

    /// This config with `weight` replaced (builder-style convenience).
    pub fn with_weight(self, weight: u32) -> Self {
        TenantConfig { weight, ..self }
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

/// A queued request: the input plus the slot its submitter parks on.
struct Request {
    input: Tensor,
    submitted_at: Instant,
    /// Completion deadline, if the submitter set one. Expired requests
    /// are shed from the drain loop with
    /// [`RuntimeError::DeadlineExceeded`] instead of occupying a batch
    /// slot.
    deadline: Option<Instant>,
    slot: Arc<Slot>,
}

/// What a slot holds between submission and delivery: the eventual
/// result plus the waker of whatever task is polling the [`Pending`] as a
/// future. One mutex covers both so a completion racing a `poll` can
/// never lose a waker (deliver either sees the stored waker, or the
/// poller re-checks the stored result after registering).
#[derive(Default)]
struct SlotState {
    result: Option<Result<Inference, RuntimeError>>,
    waker: Option<std::task::Waker>,
}

/// Rendezvous between a submitter and a scheduler thread. Completion is
/// broadcast two ways: the condvar (for the blocking `wait` /
/// `wait_timeout` paths) and the registered [`std::task::Waker`] (for the
/// future path) — a single slot supports both without busy-polling.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn deliver(&self, result: Result<Inference, RuntimeError>) {
        let waker = {
            let mut state = lock_recover(&self.state);
            state.result = Some(result);
            state.waker.take()
        };
        self.ready.notify_one();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    fn wait(&self) -> Result<Inference, RuntimeError> {
        let mut guard = lock_recover(&self.state);
        loop {
            match guard.result.take() {
                Some(result) => return result,
                None => guard = wait_recover(&self.ready, guard),
            }
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Result<Inference, RuntimeError> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock_recover(&self.state);
        loop {
            if let Some(result) = guard.result.take() {
                return result;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RuntimeError::Timeout);
            }
            guard = wait_timeout_recover(&self.ready, guard, left).0;
        }
    }

    fn poll(
        &self,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Result<Inference, RuntimeError>> {
        let mut state = lock_recover(&self.state);
        match state.result.take() {
            Some(result) => std::task::Poll::Ready(result),
            None => {
                // Replace rather than clone_from: wakers from different
                // executors must not be mixed up across polls.
                state.waker = Some(cx.waker().clone());
                std::task::Poll::Pending
            }
        }
    }
}

/// An accepted-but-unfinished submission (returned by the non-blocking
/// submission paths). Dropping it abandons the result; the request still
/// executes.
///
/// The result can be claimed three ways, all built on one condvar+waker
/// slot filled at completion (never busy-polled):
///
/// - **blocking**: [`Pending::wait`] parks the calling thread;
/// - **bounded**: [`Pending::wait_timeout`] parks up to a deadline and
///   returns [`RuntimeError::Timeout`] if the request is still in flight
///   (the `Pending` stays usable — wait again or poll);
/// - **async**: `Pending` implements [`std::future::Future`], waking the
///   registered [`std::task::Waker`] on completion, so any runtime-free
///   executor (see `epim-serve`'s connection multiplexer) can drive many
///   in-flight requests from one thread.
pub struct Pending {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending").finish_non_exhaustive()
    }
}

impl Pending {
    /// Blocks until the inference completes.
    ///
    /// # Errors
    ///
    /// Returns the request's execution error, or
    /// [`RuntimeError::ShuttingDown`] if the engine dropped before serving
    /// it.
    pub fn wait(self) -> Result<Inference, RuntimeError> {
        self.slot.wait()
    }

    /// Blocks until the inference completes or `timeout` expires —
    /// the bound that keeps a wire session from hanging forever on a
    /// stuck plan.
    ///
    /// On [`RuntimeError::Timeout`] the request is **still in flight**
    /// and this handle is still live: call `wait_timeout` again, upgrade
    /// to a blocking [`Pending::wait`], or poll it as a future. Any other
    /// return (success or error) consumes the result; a later call would
    /// block on a slot that will never fill again, which is why this
    /// takes `&mut self` and the result-claiming paths take `self`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] if the deadline passed, otherwise
    /// exactly [`Pending::wait`]'s contract.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Inference, RuntimeError> {
        self.slot.wait_timeout(timeout)
    }

    /// True once a result (or error) has been delivered and not yet
    /// claimed. A `true` here means the next `wait`/poll returns
    /// immediately.
    pub fn is_ready(&self) -> bool {
        lock_recover(&self.slot.state).result.is_some()
    }
}

impl std::future::Future for Pending {
    type Output = Result<Inference, RuntimeError>;

    /// Completes with the inference result; wakes the stored waker when
    /// the scheduler delivers. After returning `Ready` the result is
    /// claimed — polling again would pend forever, as for any future
    /// polled after completion.
    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        self.slot.poll(cx)
    }
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
    /// Crashed worker threads respawned by the supervisor (fleet-wide;
    /// surfaced as `RuntimeStats::worker_restarts`).
    restarts: AtomicU64,
}

/// Every tenant's pending queue plus the weighted-round-robin drain state,
/// all under one lock so a group drain is atomic against submissions.
struct QueueSet {
    /// `pending[t]` = tenant `t`'s FIFO backlog.
    pending: Vec<VecDeque<Request>>,
    /// `high_water[t]` = most requests ever queued at once for tenant `t`
    /// (the autoscaling signal surfaced via `RuntimeStats`).
    high_water: Vec<usize>,
    /// Most requests ever queued at once across all tenants together.
    fleet_high_water: usize,
    /// The tenant whose turn it currently is.
    cursor: usize,
    /// Groups the cursor tenant may still drain this turn.
    budget: u64,
    shutdown: bool,
}

impl QueueSet {
    fn any_pending(&self) -> bool {
        self.pending.iter().any(|q| !q.is_empty())
    }

    /// Returns one reserved budget unit after a turn was abandoned to a
    /// multi-worker race (no group was actually drained). Only meaningful
    /// while the turn is still `tenant`'s — if the cursor has moved on,
    /// its budget was refilled from the new tenant's weight anyway —
    /// and capped at `weight` so a stale refund can never mint extra
    /// turns.
    fn refund(&mut self, tenant: usize, weight: u32) {
        if self.cursor == tenant {
            self.budget = (self.budget + 1).min(u64::from(weight));
        }
    }
}

/// The scheduler core: per-tenant bounded queues, weighted-fair draining,
/// shape-grouped micro-batching worker threads under a supervisor that
/// respawns crashed workers, per-request delivery. Engines wrap this
/// around their executor(s).
pub(crate) struct Scheduler<E: GroupExecutor> {
    shared: Arc<Shared<E>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

/// One worker thread's exit report to the supervisor. Every spawned
/// worker sends exactly one of these as its last act.
enum WorkerExit {
    /// Clean return (shutdown drain finished).
    Clean(usize),
    /// The worker's loop unwound — a panic escaped the per-batch guards
    /// (injected worker kill, poisoned-lock cascade, executor bug).
    Crashed(usize),
}

impl<E: GroupExecutor> Scheduler<E> {
    /// Validates every tenant's config and spawns `workers` scheduler
    /// threads draining all of them under the weighted-fair policy, plus
    /// a supervisor thread that respawns crashed workers until
    /// `restart_budget` is exhausted.
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
        let first_weight = u64::from(tenants[0].2.weight);
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
                budget: first_weight,
                shutdown: false,
            }),
            submitted: Condvar::new(),
            space: Condvar::new(),
            restarts: AtomicU64::new(0),
            tenants,
        });
        let (exit_tx, exit_rx) = mpsc::channel();
        let handles: Vec<Option<std::thread::JoinHandle<()>>> = (0..workers)
            .map(|i| Some(spawn_worker(shared.clone(), i, exit_tx.clone())))
            .collect();
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("epim-supervisor".to_string())
                .spawn(move || supervisor_main(&shared, exit_rx, exit_tx, handles, restart_budget))
                .expect("spawning supervisor thread")
        };
        Ok(Scheduler {
            shared,
            supervisor: Some(supervisor),
        })
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

    /// Submits one request to `tenant` under its configured flow control
    /// and waits for its result.
    pub fn submit_wait(
        &self,
        tenant: usize,
        req: crate::InferRequest,
    ) -> Result<Inference, RuntimeError> {
        let flow = self.tenant_ref(tenant)?.config.flow;
        let slots = self.enqueue(tenant, vec![req.input], flow, req.client, req.deadline)?;
        slots.into_iter().next().expect("one slot per input").wait()
    }

    /// Submits one request to `tenant` without ever waiting for queue
    /// space.
    pub fn try_submit(
        &self,
        tenant: usize,
        req: crate::InferRequest,
    ) -> Result<Pending, RuntimeError> {
        self.check_tenant(tenant)?;
        let slots = self.enqueue(
            tenant,
            vec![req.input],
            FlowControl::Shed {
                timeout: Duration::ZERO,
            },
            req.client,
            req.deadline,
        )?;
        Ok(Pending {
            slot: slots.into_iter().next().expect("one slot per input"),
        })
    }

    /// Submits a burst to `tenant` atomically (the whole burst is visible
    /// to the coalescers at once) and waits for all results, in order.
    #[allow(clippy::type_complexity)]
    pub fn submit_many(
        &self,
        tenant: usize,
        inputs: Vec<Tensor>,
    ) -> Result<Vec<Result<Inference, RuntimeError>>, RuntimeError> {
        let flow = self.tenant_ref(tenant)?.config.flow;
        let slots = self.enqueue(tenant, inputs, flow, crate::CLIENT_NONE, None)?;
        Ok(slots.into_iter().map(|s| s.wait()).collect())
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
    /// connection. `request_deadline` (uniform across the submission)
    /// bounds the admission wait — under *either* flow policy — and
    /// rides along on every queued request so the drain loop can shed it
    /// if it expires before execution.
    fn enqueue(
        &self,
        tenant: usize,
        inputs: Vec<Tensor>,
        flow: FlowControl,
        client: u64,
        request_deadline: Option<Instant>,
    ) -> Result<Vec<Arc<Slot>>, RuntimeError> {
        let shared = &self.shared;
        let ten = self.tenant_ref(tenant)?;
        let capacity = ten.config.queue_capacity;
        if inputs.len() > capacity {
            return Err(RuntimeError::config(format!(
                "burst of {} exceeds queue_capacity {capacity}",
                inputs.len()
            )));
        }
        let now = Instant::now();
        let deadline_shed = |count: u64| {
            lock_recover(&ten.stats).record_deadline_exceeded(count);
            RuntimeError::DeadlineExceeded
        };
        if request_deadline.is_some_and(|d| d <= now) {
            return Err(deadline_shed(inputs.len() as u64));
        }
        let mut queue = lock_recover(&shared.queue);
        // Backpressure: wait (or shed) until the whole submission fits in
        // this tenant's queue. Other tenants' backlogs are invisible here —
        // flow control is strictly per-tenant. The wait is bounded by the
        // shed timeout (if any) and the request deadline (if any),
        // whichever is tighter.
        let flow_deadline = match flow {
            FlowControl::Block => None,
            FlowControl::Shed { timeout } => Some(now + timeout),
        };
        while !queue.shutdown && queue.pending[tenant].len() + inputs.len() > capacity {
            let now = Instant::now();
            if request_deadline.is_some_and(|d| d <= now) {
                drop(queue);
                return Err(deadline_shed(inputs.len() as u64));
            }
            let bound = match (flow_deadline, request_deadline) {
                (Some(f), Some(r)) => Some(f.min(r)),
                (f, r) => f.or(r),
            };
            match bound {
                None => queue = wait_recover(&shared.space, queue),
                Some(bound) => {
                    // The request deadline was checked above, so an
                    // expired bound here is the flow-control timeout.
                    if bound <= now {
                        drop(queue);
                        lock_recover(&ten.stats).record_shed(inputs.len() as u64);
                        trace::instant(
                            trace::SpanKind::Shed,
                            tenant as u32,
                            inputs.len() as u64,
                            capacity as u64,
                        );
                        return Err(RuntimeError::Overloaded {
                            tenant: Some(ten.label.clone()),
                            capacity,
                        });
                    }
                    queue = wait_timeout_recover(&shared.space, queue, bound - now).0;
                }
            }
        }
        if queue.shutdown {
            return Err(RuntimeError::ShuttingDown);
        }
        let slots: Vec<Arc<Slot>> = inputs
            .into_iter()
            .map(|input| {
                let slot = Arc::new(Slot::default());
                queue.pending[tenant].push_back(Request {
                    input,
                    submitted_at: now,
                    deadline: request_deadline,
                    slot: slot.clone(),
                });
                slot
            })
            .collect();
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
            slots.len() as u64,
            ((client & 0xFFFF_FFFF) << 32) | depth as u64,
        );
        shared.submitted.notify_all();
        Ok(slots)
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
        if let Some(supervisor) = self.supervisor.take() {
            // The supervisor joins every worker (workers drain every
            // queued request before exiting), so no submitter is left
            // parked.
            let _ = supervisor.join();
        }
    }
}

/// Spawns one scheduler worker thread for lane `lane`. The worker's last
/// act — clean exit or unwinding panic — is reporting to the supervisor
/// over `exit_tx`.
fn spawn_worker<E: GroupExecutor>(
    shared: Arc<Shared<E>>,
    lane: usize,
    exit_tx: mpsc::Sender<WorkerExit>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("epim-sched-{lane}"))
        .spawn(move || {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_main(&shared)));
            let _ = exit_tx.send(match outcome {
                Ok(()) => WorkerExit::Clean(lane),
                Err(_) => WorkerExit::Crashed(lane),
            });
        })
        .expect("spawning scheduler thread")
}

/// One scheduler thread: pick a tenant, coalesce, execute, deliver, until
/// shut down.
///
/// Per-batch panics are caught inside [`execute_group`] and delivered as
/// [`RuntimeError::ExecutionPanicked`]; anything that escapes (an
/// injected worker kill, a panic inside the stats critical section)
/// unwinds this function — every in-hand request still gets a delivery
/// via [`DeliveryGuard`], and the supervisor respawns the thread.
fn worker_main<E: GroupExecutor>(shared: &Shared<E>) {
    loop {
        let Some((tenant, group)) = next_group(shared) else {
            return;
        };
        execute_group(shared, tenant, group);
        // Injected worker kill: fires *after* the group delivered, so the
        // crash costs a thread (exercising the supervisor), never an
        // answer.
        if faults::fires(faults::FaultPoint::WorkerPanic) {
            panic!("injected fault: worker panic after batch");
        }
    }
}

/// The supervisor loop: joins cleanly-exiting workers, respawns crashed
/// ones (exponential backoff, bounded by `restart_budget`), and fails the
/// whole fleet with [`RuntimeError::CrashLoop`] once the budget is
/// exhausted. Returns when every worker lane has exited.
fn supervisor_main<E: GroupExecutor>(
    shared: &Arc<Shared<E>>,
    exit_rx: mpsc::Receiver<WorkerExit>,
    exit_tx: mpsc::Sender<WorkerExit>,
    mut handles: Vec<Option<std::thread::JoinHandle<()>>>,
    restart_budget: u32,
) {
    let mut alive = handles.len();
    let mut restarts_used: u32 = 0;
    while alive > 0 {
        // Every live worker sends exactly one exit report, and the
        // supervisor holds a sender too, so recv can only fail if the
        // channel logic itself is broken — treat that as fleet failure
        // rather than spinning.
        let Ok(exit) = exit_rx.recv() else {
            fail_fleet(shared, restarts_used);
            return;
        };
        match exit {
            WorkerExit::Clean(lane) => {
                if let Some(handle) = handles[lane].take() {
                    let _ = handle.join();
                }
                alive -= 1;
            }
            WorkerExit::Crashed(lane) => {
                if let Some(handle) = handles[lane].take() {
                    let _ = handle.join();
                }
                if lock_recover(&shared.queue).shutdown {
                    // A crash during shutdown is not worth a respawn: the
                    // remaining workers (or the fail-safe drain on the
                    // way out) finish the drain.
                    alive -= 1;
                    continue;
                }
                if restarts_used >= restart_budget {
                    fail_fleet(shared, restarts_used);
                    alive -= 1;
                    continue;
                }
                restarts_used += 1;
                shared.restarts.fetch_add(1, Ordering::Relaxed);
                // Exponential backoff (2ms, 4ms, … capped at 128ms): a
                // deterministic crash loop burns its budget in well under
                // a second instead of hammering the executor.
                let backoff = Duration::from_millis(1u64 << restarts_used.min(7));
                std::thread::sleep(backoff);
                handles[lane] = Some(spawn_worker(shared.clone(), lane, exit_tx.clone()));
            }
        }
    }
    // Fail-safe: with no worker lanes left, anything still queued (e.g. a
    // submission that raced the shutdown flag) would hang forever. Usually
    // a no-op — clean-exiting workers only return with every queue empty.
    drain_all(shared, RuntimeError::ShuttingDown);
}

/// Marks the fleet shut down and fails every queued request with a typed
/// [`RuntimeError::CrashLoop`] — the crash-loop terminal state: no new
/// work is accepted, nothing hangs.
fn fail_fleet<E: GroupExecutor>(shared: &Shared<E>, restarts: u32) {
    drain_all(shared, RuntimeError::CrashLoop { restarts });
}

/// Sets shutdown and delivers `error` to every queued request, waking all
/// parked submitters and workers.
fn drain_all<E: GroupExecutor>(shared: &Shared<E>, error: RuntimeError) {
    let mut queue = lock_recover(&shared.queue);
    queue.shutdown = true;
    for pending in &mut queue.pending {
        for request in pending.drain(..) {
            request.slot.deliver(Err(error.clone()));
        }
    }
    drop(queue);
    shared.submitted.notify_all();
    shared.space.notify_all();
}

/// Advances the weighted-round-robin drain state to the next tenant that
/// may be served, reserving one group's worth of its budget. Reserving at
/// selection (rather than charging at drain) is what upholds the "at
/// most `weight` groups per turn" guarantee even with several workers
/// picking concurrently; a turn later abandoned to a multi-worker race
/// returns its unit via [`QueueSet::refund`], so races do not burn the
/// tenant's share either.
///
/// The caller must hold the queue lock and guarantee at least one tenant
/// has pending work; because advancing the cursor refills the budget from
/// the new tenant's weight (always ≥ 1), the walk reaches a backlogged
/// tenant within one cycle.
fn pick_tenant<E: GroupExecutor>(queue: &mut QueueSet, shared: &Shared<E>) -> usize {
    let n = shared.tenants.len();
    loop {
        if queue.budget > 0 && !queue.pending[queue.cursor].is_empty() {
            queue.budget -= 1;
            return queue.cursor;
        }
        queue.cursor = (queue.cursor + 1) % n;
        queue.budget = u64::from(shared.tenants[queue.cursor].config.weight);
    }
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
/// delivering the typed [`RuntimeError::DeadlineExceeded`] and recording
/// per-tenant counters. Returns whether anything was shed (queue space
/// freed). The caller holds the queue lock; slot delivery and the stats
/// mutex are leaf locks (nothing takes the queue lock while holding
/// either), so taking them underneath cannot deadlock.
fn shed_expired<E: GroupExecutor>(queue: &mut QueueSet, shared: &Shared<E>) -> bool {
    let now = Instant::now();
    let mut any = false;
    for (t, pending) in queue.pending.iter_mut().enumerate() {
        let mut expired = 0u64;
        pending.retain(|request| match request.deadline {
            Some(d) if d <= now => {
                request.slot.deliver(Err(RuntimeError::DeadlineExceeded));
                expired += 1;
                false
            }
            _ => true,
        });
        if expired > 0 {
            lock_recover(&shared.tenants[t].stats).record_deadline_exceeded(expired);
            any = true;
        }
    }
    any
}

/// Blocks for the next same-shape request group of some tenant, honoring
/// the fair-drain policy and the tenant's batch window. Returns `None`
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

        // Weighted-fair tenant selection, then coalesce within that
        // tenant: hold the batch open for up to its `batch_window` (less
        // when the tenant serves faster than that, see `Tenant::hold`), or
        // until `max_batch` requests of the head's shape have arrived.
        // Shutdown flushes immediately, and so does a backlog on any
        // *other* tenant — one tenant's coalescing knob must not inflate
        // its neighbours' latency while they have runnable work.
        let tenant = pick_tenant(&mut queue, shared);
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
            // shape) while we waited; return the reserved budget unit and
            // restart the fair-drain walk.
            if queue.pending[tenant].is_empty() || queue.pending[tenant][0].input.shape() != shape {
                queue.refund(tenant, config.weight);
                continue 'regroup;
            }
        }
        // Requests may have expired while the batch window held them
        // open; shed them now rather than batching them.
        if shed_expired(&mut queue, shared) {
            shared.space.notify_all();
        }
        if queue.pending[tenant].is_empty() {
            queue.refund(tenant, config.weight);
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
            queue.refund(tenant, config.weight);
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
/// kills the worker, exercising the supervisor), but it can never strand
/// a parked submitter.
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
            request.slot.deliver(result);
        }
    }
}

impl Drop for DeliveryGuard {
    fn drop(&mut self) {
        for request in self.requests.iter_mut().filter_map(Option::take) {
            request.slot.deliver(Err(RuntimeError::ExecutionPanicked));
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
        Ok(Ok((outputs, dp_stats, stage_ns))) => {
            let service = exec_started.elapsed();
            ten.observe_service(service);
            record_and_deliver(
                ten,
                &mut guard,
                outputs,
                &dp_stats,
                &stage_ns,
                batch_size,
                exec_started,
                &[service],
            );
        }
        Ok(Err(_)) => {
            // Defensive fallback: run the group per-request so one bad
            // request cannot poison its batchmates (each gets its own
            // error or result).
            let mut outputs = Vec::with_capacity(batch_size);
            let mut services = Vec::with_capacity(batch_size);
            let mut dp_stats = DataPathStats::default();
            let mut failures: Vec<(usize, RuntimeError)> = Vec::new();
            for i in 0..batch_size {
                let started = Instant::now();
                let input = &guard.get(i).input;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ten.exec.execute_one(tenant as u32, input)
                }));
                services.push(started.elapsed());
                match outcome {
                    Ok(Ok((out, s))) => {
                        dp_stats.accumulate(&s);
                        outputs.push(out);
                    }
                    Ok(Err(e)) => {
                        failures.push((i, e));
                        outputs.push(Tensor::zeros(&[1]));
                    }
                    Err(_) => {
                        failures.push((i, RuntimeError::ExecutionPanicked));
                        outputs.push(Tensor::zeros(&[1]));
                    }
                }
            }
            if failures.is_empty() {
                record_and_deliver(
                    ten,
                    &mut guard,
                    outputs,
                    &dp_stats,
                    &[],
                    batch_size,
                    exec_started,
                    &services,
                );
            } else {
                // Deliver successes as singletons, failures as errors.
                for i in 0..batch_size {
                    if let Some((_, e)) = failures.iter().find(|(fi, _)| *fi == i) {
                        guard.deliver(i, Err(e.clone()));
                    } else {
                        let submitted_at = guard.get(i).submitted_at;
                        let latency = submitted_at.elapsed();
                        let mut stats = lock_recover(&ten.stats);
                        stats.record_request(
                            exec_started.saturating_duration_since(submitted_at),
                            services[i],
                            latency,
                        );
                        drop(stats);
                        guard.deliver(
                            i,
                            Ok(Inference {
                                output: outputs[i].clone(),
                                batch_size: 1,
                                latency,
                            }),
                        );
                    }
                }
            }
        }
    }
}

/// Records batch statistics into the tenant's accumulator and hands each
/// request its output. `services` is either one duration shared by the
/// whole batch or one per request (the fallback path), and `exec_started`
/// marks the end of each request's queue wait.
#[allow(clippy::too_many_arguments)]
fn record_and_deliver<E>(
    tenant: &Tenant<E>,
    guard: &mut DeliveryGuard,
    outputs: Vec<Tensor>,
    dp_stats: &DataPathStats,
    stage_ns: &[u64],
    batch_size: usize,
    exec_started: Instant,
    services: &[Duration],
) {
    {
        let mut stats = lock_recover(&tenant.stats);
        // Injected lock-holder panic: unwinds while holding the stats
        // mutex (poisoning it) with the batch outputs in hand — the
        // delivery guard fails the requests, lock recovery un-poisons the
        // mutex for the respawned worker.
        if faults::fires(faults::FaultPoint::LockPanic) {
            panic!("injected fault: panic while holding the stats lock");
        }
        stats.record_batch(batch_size, dp_stats, stage_ns);
        for i in 0..batch_size {
            let request = guard.get(i);
            let service = if services.len() == 1 {
                services[0]
            } else {
                services[i]
            };
            stats.record_request(
                exec_started.saturating_duration_since(request.submitted_at),
                service,
                request.submitted_at.elapsed(),
            );
        }
    }
    for (i, output) in outputs.into_iter().enumerate() {
        let latency = guard.get(i).submitted_at.elapsed();
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

    /// Echoes its inputs after sleeping `cost_ms`; `mode` makes the
    /// batched path fail or panic (the per-request path always works).
    struct Stub {
        cost_ms: AtomicU64,
        mode: AtomicU8,
    }

    impl Stub {
        fn new(cost_ms: u64) -> Self {
            Stub {
                cost_ms: AtomicU64::new(cost_ms),
                mode: AtomicU8::new(RUN),
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
            _tenant: u32,
            inputs: &[&Tensor],
        ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError> {
            match self.mode.load(Ordering::SeqCst) {
                FAIL_BATCH => return Err(RuntimeError::config("stub: batch refused")),
                PANIC_BATCH => panic!("stub: batch panicked"),
                _ => {}
            }
            self.work();
            let outputs = inputs.iter().map(|&t| t.clone()).collect();
            Ok((outputs, DataPathStats::default(), Vec::new()))
        }

        fn execute_one(
            &self,
            _tenant: u32,
            input: &Tensor,
        ) -> Result<(Tensor, DataPathStats), RuntimeError> {
            self.work();
            Ok((input.clone(), DataPathStats::default()))
        }
    }

    fn tenant(window_ms: u64, max_batch: usize) -> TenantConfig {
        TenantConfig {
            max_batch,
            batch_window: Duration::from_millis(window_ms),
            ..TenantConfig::default()
        }
    }

    /// One worker, no supervision, one tenant per `(cost_ms, config)`.
    fn fleet(tenants: &[(u64, TenantConfig)]) -> Scheduler<Stub> {
        let tenants = tenants
            .iter()
            .map(|&(cost_ms, config)| ("stub".to_string(), Stub::new(cost_ms), config))
            .collect();
        Scheduler::new(tenants, 1, 0).unwrap()
    }

    fn request() -> InferRequest {
        InferRequest::new(Tensor::zeros(&[1]))
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
        let first = sched.try_submit(0, request()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let second = sched.try_submit(0, request()).unwrap();
        let (first, second) = (first.wait().unwrap(), second.wait().unwrap());
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
        let held = sched.try_submit(0, request()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let neighbour = sched.try_submit(1, request()).unwrap();
        let flushed = held.wait().unwrap().latency;
        assert!(
            flushed < Duration::from_millis(200),
            "a neighbour's arrival must flush the held group, took {flushed:?}"
        );
        // The neighbour is now the one held (cold, 400 ms); dropping the
        // scheduler flushes and serves it.
        drop(sched);
        let drained = neighbour.wait().unwrap().latency;
        assert!(
            drained < Duration::from_millis(200),
            "shutdown must flush the held group, took {drained:?}"
        );

        let sched = fleet(&[(0, tenant(100, 4))]);
        let doomed = request().with_deadline(Instant::now() + Duration::from_millis(20));
        let outcome = sched.try_submit(0, doomed).unwrap().wait();
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
}
