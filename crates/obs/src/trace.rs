//! Always-on span tracing: bounded per-lane event rings with a
//! chrome://tracing exporter.
//!
//! ## Design
//!
//! A [`TraceRing`] is a fixed set of **lanes** (one per recording thread;
//! scheduler workers, pool workers and application threads each get their
//! own via a thread-local assignment), each a bounded ring of fixed-size
//! event slots. Recording is **lock-free and allocation-free**: a slot is
//! claimed with one `fetch_add` on the lane head and filled through plain
//! atomic stores, guarded by a per-slot seqlock generation word so readers
//! (the exporters, which run concurrently with serving) skip torn slots
//! instead of blocking writers. When a lane wraps, the **oldest events are
//! overwritten first** and the count of overwritten events is reported by
//! [`TraceRing::dropped`].
//!
//! When tracing is disabled (the default), the hot-path cost is a single
//! relaxed atomic load per instrumentation site: [`start`] returns without
//! reading the clock and [`span`]/[`instant`] return without touching the
//! ring. Enable with [`set_enabled`] or `EPIM_TRACE=1`.
//!
//! Timestamps are monotonic nanoseconds since the process's first trace
//! query (a shared `Instant` epoch), so spans from different threads
//! order correctly in one timeline.

use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Tenant tag for events not attributable to a tenant (direct plan calls,
/// pool-worker sweep events).
pub const TENANT_NONE: u32 = u32::MAX;

/// Lanes in the process-global ring (threads beyond this share lanes).
const GLOBAL_LANES: usize = 32;
/// Events retained per lane in the process-global ring.
const GLOBAL_CAPACITY: usize = 4096;

/// What a trace event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A request burst entered a tenant queue (instant; `a` = requests,
    /// `b` = queue depth after).
    Enqueue = 0,
    /// Requests rejected by flow control (instant; `a` = requests,
    /// `b` = queue capacity).
    Shed = 1,
    /// A scheduler thread coalescing one request group (span; `a` = group
    /// size, `b` = nanoseconds the group could be held open for
    /// stragglers, 0 when it was taken as found).
    Coalesce = 2,
    /// One group executing end to end (span; `a` = group size).
    Group = 3,
    /// One plan stage executing (span; `stage` = stage index, `a` = packed
    /// op kind + stacked images, `b` = output-slot bytes).
    Stage = 4,
    /// One DAC quantization sweep over a pixel tile (span; `a` =
    /// elements quantized).
    DacSweep = 5,
    /// ADC readout quantization of one pixel tile (instant; `a` = sweeps,
    /// `b` = elements).
    AdcSweep = 6,
}

impl SpanKind {
    fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Enqueue,
            1 => SpanKind::Shed,
            2 => SpanKind::Coalesce,
            3 => SpanKind::Group,
            4 => SpanKind::Stage,
            5 => SpanKind::DacSweep,
            6 => SpanKind::AdcSweep,
            _ => return None,
        })
    }

    /// Stable lowercase name (used as the chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Enqueue => "enqueue",
            SpanKind::Shed => "shed",
            SpanKind::Coalesce => "coalesce",
            SpanKind::Group => "group",
            SpanKind::Stage => "stage",
            SpanKind::DacSweep => "dac_sweep",
            SpanKind::AdcSweep => "adc_sweep",
        }
    }

    /// Whether this kind is a duration span (chrome `ph:"X"`) rather than
    /// an instant event (`ph:"i"`).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            SpanKind::Coalesce | SpanKind::Group | SpanKind::Stage | SpanKind::DacSweep
        )
    }
}

/// The op kind packed into a [`SpanKind::Stage`] payload (display only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StageOpKind {
    /// Unclassified stage.
    Other = 0,
    /// Dense convolution.
    Conv = 1,
    /// Epitome crossbar op on the PIM data path.
    Epitome = 2,
    /// Elementwise ReLU.
    Relu = 3,
    /// Max pooling.
    MaxPool = 4,
    /// Global average pooling.
    GlobalAvgPool = 5,
    /// Fully-connected classifier head.
    Linear = 6,
    /// Residual addition.
    Add = 7,
}

impl StageOpKind {
    fn from_u8(v: u8) -> StageOpKind {
        match v {
            1 => StageOpKind::Conv,
            2 => StageOpKind::Epitome,
            3 => StageOpKind::Relu,
            4 => StageOpKind::MaxPool,
            5 => StageOpKind::GlobalAvgPool,
            6 => StageOpKind::Linear,
            7 => StageOpKind::Add,
            _ => StageOpKind::Other,
        }
    }

    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            StageOpKind::Other => "other",
            StageOpKind::Conv => "conv2d",
            StageOpKind::Epitome => "epitome",
            StageOpKind::Relu => "relu",
            StageOpKind::MaxPool => "max_pool",
            StageOpKind::GlobalAvgPool => "global_avg_pool",
            StageOpKind::Linear => "linear",
            StageOpKind::Add => "add",
        }
    }
}

/// Packs a stage span's `a` payload: op kind in the low byte, stacked
/// image count above it.
pub fn pack_stage_payload(op: StageOpKind, images: u64) -> u64 {
    (images << 8) | op as u64
}

/// Unpacks a stage span's `a` payload into `(op kind, stacked images)`.
pub fn unpack_stage_payload(a: u64) -> (StageOpKind, u64) {
    (StageOpKind::from_u8((a & 0xFF) as u8), a >> 8)
}

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The lane (≈ thread) that recorded the event.
    pub lane: usize,
    /// What happened.
    pub kind: SpanKind,
    /// Tenant index, or [`TENANT_NONE`].
    pub tenant: u32,
    /// Stage index for [`SpanKind::Stage`], 0 otherwise.
    pub stage: u32,
    /// Monotonic start timestamp, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Kind-specific payload (see [`SpanKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`SpanKind`]).
    pub b: u64,
}

impl TraceEvent {
    /// End timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One event slot: a seqlock generation word plus the event fields. All
/// fields are atomics, so a torn read can at worst surface a garbled
/// event to a reader that raced a full ring wraparound — never undefined
/// behavior — and the generation check discards it.
struct Slot {
    /// `2*gen + 1` while the claiming writer fills the slot, `2*gen + 2`
    /// once generation `gen`'s event is complete.
    seq: AtomicU64,
    /// kind in bits 56..64, stage in bits 32..56, tenant in bits 0..32.
    meta: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start: AtomicU64::new(0),
            dur: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

struct Lane {
    /// Total events ever claimed on this lane (slot = `head % capacity`).
    head: AtomicU64,
    slots: Vec<Slot>,
}

/// A bounded, lock-free multi-lane trace event ring. See the
/// [module docs](self) for the recording protocol; the process-global
/// instance used by the runtime's instrumentation sites is [`global`].
pub struct TraceRing {
    lanes: Vec<Lane>,
    /// Slots per lane (power of two).
    capacity: u64,
    next_lane: AtomicUsize,
    labels: Mutex<Vec<String>>,
}

impl TraceRing {
    /// A ring with `lanes` lanes of `capacity` slots each (`capacity` is
    /// rounded up to a power of two, minimum 2).
    pub fn new(lanes: usize, capacity: usize) -> TraceRing {
        let capacity = capacity.next_power_of_two().max(2);
        let lanes = lanes.max(1);
        TraceRing {
            lanes: (0..lanes)
                .map(|_| Lane {
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| Slot::new()).collect(),
                })
                .collect(),
            capacity: capacity as u64,
            next_lane: AtomicUsize::new(0),
            labels: Mutex::new((0..lanes).map(|i| format!("lane-{i}")).collect()),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Events retained per lane.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Assigns the next free lane (wrapping once all are taken — writes
    /// stay safe because slots are claimed atomically) and labels it.
    pub fn register_lane(&self, label: impl Into<String>) -> usize {
        let lane = self.next_lane.fetch_add(1, Ordering::Relaxed) % self.lanes.len();
        self.labels.lock().expect("trace labels poisoned")[lane] = label.into();
        lane
    }

    /// The label of `lane`.
    pub fn label(&self, lane: usize) -> String {
        self.labels.lock().expect("trace labels poisoned")[lane].clone()
    }

    /// Records one event on `lane`. Lock-free: one `fetch_add` claims a
    /// slot (overwriting the lane's oldest event when full), atomic
    /// stores fill it. Callers on the hot path should gate on
    /// [`enabled`] first.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        lane: usize,
        kind: SpanKind,
        tenant: u32,
        stage: u32,
        start_ns: u64,
        dur_ns: u64,
        a: u64,
        b: u64,
    ) {
        let lane = &self.lanes[lane % self.lanes.len()];
        let idx = lane.head.fetch_add(1, Ordering::Relaxed);
        let gen = idx / self.capacity;
        let slot = &lane.slots[(idx & (self.capacity - 1)) as usize];
        // Seqlock write: mark the slot in-progress for this generation,
        // fill the fields, then publish. The release fence orders the
        // odd marker before the field stores; the final release store
        // orders the fields before the even marker.
        slot.seq.store(2 * gen + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let meta =
            ((kind as u64) << 56) | ((u64::from(stage) & 0xFF_FFFF) << 32) | u64::from(tenant);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * gen + 2, Ordering::Release);
    }

    /// Events overwritten (oldest-first) on `lane` since construction.
    pub fn dropped(&self, lane: usize) -> u64 {
        self.lanes[lane]
            .head
            .load(Ordering::Relaxed)
            .saturating_sub(self.capacity)
    }

    /// The retained events of `lane`, oldest first. Events being
    /// overwritten by concurrent writers while we read are skipped (the
    /// seqlock generation check), never blocked on.
    pub fn events(&self, lane_idx: usize) -> Vec<TraceEvent> {
        let lane = &self.lanes[lane_idx];
        let head = lane.head.load(Ordering::Acquire);
        let first = head.saturating_sub(self.capacity);
        let mut out = Vec::with_capacity((head - first) as usize);
        for idx in first..head {
            let gen = idx / self.capacity;
            let want = 2 * gen + 2;
            let slot = &lane.slots[(idx & (self.capacity - 1)) as usize];
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start.load(Ordering::Relaxed);
            let dur_ns = slot.dur.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                continue;
            }
            let Some(kind) = SpanKind::from_u8((meta >> 56) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                lane: lane_idx,
                kind,
                tenant: meta as u32,
                stage: ((meta >> 32) & 0xFF_FFFF) as u32,
                start_ns,
                dur_ns,
                a,
                b,
            });
        }
        out
    }

    /// Every lane's retained events (lane-major, oldest first per lane).
    pub fn all_events(&self) -> Vec<TraceEvent> {
        (0..self.lanes.len()).flat_map(|l| self.events(l)).collect()
    }

    /// Resets every lane (heads, slots, drop counts). Not synchronized
    /// with concurrent writers; intended for tests and benchmarks on a
    /// quiesced ring.
    pub fn clear(&self) {
        for lane in &self.lanes {
            lane.head.store(0, Ordering::Relaxed);
            for slot in &lane.slots {
                slot.seq.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Renders the retained events as chrome://tracing "trace event
    /// format" JSON (load via `chrome://tracing` or Perfetto): one thread
    /// lane per ring lane, `ph:"X"` duration spans and `ph:"i"` instants,
    /// tenant-tagged spans colored by tenant. Timestamps are microseconds
    /// (floats), so nanosecond durations survive.
    pub fn export_chrome_trace(&self) -> String {
        use serde::Value;
        // Chrome's reserved color names, cycled per tenant.
        const PALETTE: [&str; 8] = [
            "thread_state_running",
            "rail_response",
            "rail_animation",
            "rail_idle",
            "rail_load",
            "cq_build_passed",
            "cq_build_attempt_running",
            "thread_state_iowait",
        ];
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut events: Vec<Value> = Vec::new();
        for lane in 0..self.lanes.len() {
            let lane_events = self.events(lane);
            if lane_events.is_empty() {
                continue;
            }
            events.push(Value::Object(vec![
                ("ph".into(), Value::String("M".into())),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(lane as u64)),
                ("name".into(), Value::String("thread_name".into())),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::String(self.label(lane)))]),
                ),
            ]));
            for ev in lane_events {
                let name = match ev.kind {
                    SpanKind::Stage => {
                        let (op, _) = unpack_stage_payload(ev.a);
                        format!("stage{} {}", ev.stage, op.as_str())
                    }
                    kind => kind.name().to_string(),
                };
                let mut args: Vec<(String, Value)> = Vec::new();
                if ev.tenant != TENANT_NONE {
                    args.push(("tenant".into(), Value::U64(u64::from(ev.tenant))));
                }
                match ev.kind {
                    SpanKind::Enqueue => {
                        args.push(("requests".into(), Value::U64(ev.a)));
                        args.push(("queue_depth".into(), Value::U64(ev.b)));
                    }
                    SpanKind::Shed => {
                        args.push(("requests".into(), Value::U64(ev.a)));
                        args.push(("capacity".into(), Value::U64(ev.b)));
                    }
                    SpanKind::Coalesce => {
                        args.push(("batch".into(), Value::U64(ev.a)));
                        args.push(("hold_ns".into(), Value::U64(ev.b)));
                    }
                    SpanKind::Group => {
                        args.push(("batch".into(), Value::U64(ev.a)));
                    }
                    SpanKind::Stage => {
                        let (_, images) = unpack_stage_payload(ev.a);
                        args.push(("images".into(), Value::U64(images)));
                        args.push(("arena_bytes".into(), Value::U64(ev.b)));
                    }
                    SpanKind::DacSweep => {
                        args.push(("elements".into(), Value::U64(ev.a)));
                    }
                    SpanKind::AdcSweep => {
                        args.push(("sweeps".into(), Value::U64(ev.a)));
                        args.push(("elements".into(), Value::U64(ev.b)));
                    }
                }
                let mut fields: Vec<(String, Value)> = vec![
                    (
                        "ph".into(),
                        Value::String(if ev.kind.is_span() { "X" } else { "i" }.into()),
                    ),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(lane as u64)),
                    ("name".into(), Value::String(name)),
                    ("cat".into(), Value::String(ev.kind.name().into())),
                    ("ts".into(), Value::F64(us(ev.start_ns))),
                ];
                if ev.kind.is_span() {
                    fields.push(("dur".into(), Value::F64(us(ev.dur_ns))));
                } else {
                    // Instant scope: thread.
                    fields.push(("s".into(), Value::String("t".into())));
                }
                if ev.tenant != TENANT_NONE {
                    fields.push((
                        "cname".into(),
                        Value::String(PALETTE[ev.tenant as usize % PALETTE.len()].into()),
                    ));
                }
                fields.push(("args".into(), Value::Object(args)));
                events.push(Value::Object(fields));
            }
        }
        let doc = Value::Object(vec![
            ("displayTimeUnit".into(), Value::String("ms".into())),
            ("traceEvents".into(), Value::Array(events)),
        ]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}

// ---------------------------------------------------------------------------
// Process-global ring + hot-path recording API
// ---------------------------------------------------------------------------

/// 0 = uninitialized (consult `EPIM_TRACE`), 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether tracing is currently enabled — one relaxed atomic load, the
/// only cost instrumentation sites pay when tracing is off.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var("EPIM_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let _ = ENABLED.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Turns tracing on or off process-wide (overrides `EPIM_TRACE`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The process-global trace ring the runtime's instrumentation records
/// into. Built lazily on first touch ([`enabled`] alone never builds it).
pub fn global() -> &'static TraceRing {
    static GLOBAL: OnceLock<TraceRing> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceRing::new(GLOBAL_LANES, GLOBAL_CAPACITY))
}

/// Monotonic nanoseconds since the process trace epoch (never 0).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos().max(1) as u64
}

thread_local! {
    /// This thread's lane in the global ring (`usize::MAX` = unassigned).
    static LANE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's lane in the global ring, assigned (and labeled) on first
/// use: pool workers label by their `epim-parallel` worker index, other
/// threads by their thread name.
fn lane() -> usize {
    LANE.with(|l| {
        let v = l.get();
        if v != usize::MAX {
            return v;
        }
        let label = match epim_parallel::current_worker() {
            Some(i) => format!("epim-pool-{i}"),
            None => std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id())),
        };
        let v = global().register_lane(label);
        l.set(v);
        v
    })
}

/// Starts a span: returns the current timestamp when tracing is enabled,
/// `0` (no clock read) when disabled. Pass the result to [`span`].
#[inline]
pub fn start() -> u64 {
    if enabled() {
        now_ns()
    } else {
        0
    }
}

/// Finishes a span started with [`start`], recording it on this thread's
/// lane of the global ring. A `start_ns` of 0 (tracing was disabled at
/// start) records nothing.
#[inline]
pub fn span(kind: SpanKind, tenant: u32, stage: u32, start_ns: u64, a: u64, b: u64) {
    if start_ns == 0 || !enabled() {
        return;
    }
    let dur = now_ns().saturating_sub(start_ns);
    global().record(lane(), kind, tenant, stage, start_ns, dur, a, b);
}

/// Records an instant event on this thread's lane of the global ring
/// (no-op while disabled).
#[inline]
pub fn instant(kind: SpanKind, tenant: u32, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    global().record(lane(), kind, tenant, 0, now_ns(), 0, a, b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_drops_oldest_first_and_counts() {
        let ring = TraceRing::new(1, 8);
        for i in 0..20u64 {
            ring.record(0, SpanKind::Group, 0, 0, 100 + i, 1, i, 0);
        }
        let events = ring.events(0);
        assert_eq!(events.len(), 8, "ring retains exactly its capacity");
        // The retained window is the newest 8 events, oldest first.
        let payloads: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, (12..20).collect::<Vec<u64>>());
        assert_eq!(ring.dropped(0), 12);
        // A fresh lane dropped nothing.
        let fresh = TraceRing::new(2, 8);
        fresh.record(1, SpanKind::Shed, 3, 0, 5, 0, 1, 2);
        assert_eq!(fresh.dropped(1), 0);
        assert_eq!(fresh.events(0).len(), 0);
    }

    #[test]
    fn events_decode_all_fields() {
        let ring = TraceRing::new(2, 16);
        ring.record(
            1,
            SpanKind::Stage,
            7,
            11,
            1000,
            250,
            pack_stage_payload(StageOpKind::Conv, 8),
            4096,
        );
        let ev = &ring.events(1)[0];
        assert_eq!(ev.lane, 1);
        assert_eq!(ev.kind, SpanKind::Stage);
        assert_eq!(ev.tenant, 7);
        assert_eq!(ev.stage, 11);
        assert_eq!(ev.start_ns, 1000);
        assert_eq!(ev.dur_ns, 250);
        assert_eq!(ev.end_ns(), 1250);
        let (op, images) = unpack_stage_payload(ev.a);
        assert_eq!(op, StageOpKind::Conv);
        assert_eq!(images, 8);
        assert_eq!(ev.b, 4096);
        // TENANT_NONE survives the meta packing.
        ring.record(0, SpanKind::DacSweep, TENANT_NONE, 0, 1, 1, 64, 0);
        assert_eq!(ring.events(0)[0].tenant, TENANT_NONE);
    }

    #[test]
    fn concurrent_writers_never_corrupt_readers() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(2, 64));
        let writers: Vec<_> = (0..2)
            .map(|lane| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        ring.record(lane, SpanKind::Group, lane as u32, 0, i + 1, 1, i, i * 2);
                    }
                })
            })
            .collect();
        // Read concurrently: every decoded event must be internally
        // consistent (b == 2*a), torn slots skipped, never garbage.
        for _ in 0..50 {
            for lane in 0..2 {
                for ev in ring.events(lane) {
                    assert_eq!(ev.b, ev.a * 2, "torn event leaked through the seqlock");
                    assert_eq!(ev.tenant, lane as u32);
                }
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(ring.events(0).len(), 64);
        assert_eq!(ring.dropped(0), 10_000 - 64);
    }

    #[test]
    fn chrome_trace_round_trips_through_serde_json() {
        let ring = TraceRing::new(2, 16);
        ring.register_lane("epim-sched-0");
        ring.record(0, SpanKind::Coalesce, 0, 0, 1000, 500, 4, 200_000);
        ring.record(0, SpanKind::Group, 0, 0, 1600, 2000, 4, 0);
        ring.record(
            0,
            SpanKind::Stage,
            0,
            3,
            1700,
            800,
            pack_stage_payload(StageOpKind::Epitome, 4),
            512,
        );
        ring.record(1, SpanKind::Enqueue, 1, 0, 900, 0, 4, 4);
        let json = ring.export_chrome_trace();
        let doc: serde::Value = serde_json::from_str(&json).expect("chrome trace parses back");
        let serde::Value::Object(fields) = &doc else {
            panic!("top level must be an object")
        };
        let (_, events) = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents present");
        let serde::Value::Array(events) = events else {
            panic!("traceEvents must be an array")
        };
        // 4 events + one thread_name metadata record per active lane.
        assert_eq!(events.len(), 6);
        let field = |ev: &serde::Value, name: &str| -> serde::Value {
            let serde::Value::Object(f) = ev else {
                panic!("event must be object")
            };
            f.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or(serde::Value::Null)
        };
        let phases: Vec<serde::Value> = events.iter().map(|e| field(e, "ph")).collect();
        assert_eq!(
            phases
                .iter()
                .filter(|p| **p == serde::Value::String("M".into()))
                .count(),
            2,
            "one thread_name metadata event per active lane"
        );
        assert_eq!(
            phases
                .iter()
                .filter(|p| **p == serde::Value::String("X".into()))
                .count(),
            3
        );
        assert_eq!(
            phases
                .iter()
                .filter(|p| **p == serde::Value::String("i".into()))
                .count(),
            1
        );
        // The stage span carries its op name and decoded args.
        let stage = events
            .iter()
            .find(|e| field(e, "name") == serde::Value::String("stage3 epitome".into()))
            .expect("stage span present");
        assert_eq!(
            field(stage, "cname"),
            serde::Value::String("thread_state_running".into())
        );
        let serde::Value::Object(args) = field(stage, "args") else {
            panic!("args must be object")
        };
        assert!(args.contains(&("images".to_string(), serde::Value::U64(4))));
        assert!(args.contains(&("arena_bytes".to_string(), serde::Value::U64(512))));
        // The coalesce span carries the hold it was granted.
        let coalesce = events
            .iter()
            .find(|e| field(e, "name") == serde::Value::String("coalesce".into()))
            .expect("coalesce span present");
        let serde::Value::Object(args) = field(coalesce, "args") else {
            panic!("args must be object")
        };
        assert!(args.contains(&("batch".to_string(), serde::Value::U64(4))));
        assert!(args.contains(&("hold_ns".to_string(), serde::Value::U64(200_000))));
        // The registered lane label survives into the metadata event.
        assert!(json.contains("epim-sched-0"));
    }

    #[test]
    fn disabled_path_records_nothing_and_reads_no_clock() {
        // Global-state test: runs phases sequentially inside one #[test]
        // so parallel test threads cannot interleave enable/disable.
        set_enabled(false);
        assert_eq!(start(), 0, "disabled start must not read the clock");
        span(SpanKind::Group, 0, 0, 0, 1, 0);
        instant(SpanKind::Enqueue, 0, 1, 1);
        let before: usize = (0..global().lanes())
            .map(|l| global().events(l).len())
            .sum();
        span(SpanKind::Group, 0, 0, now_ns(), 1, 0);
        let after: usize = (0..global().lanes())
            .map(|l| global().events(l).len())
            .sum();
        assert_eq!(before, after, "disabled spans must not reach the ring");

        set_enabled(true);
        let t = start();
        assert_ne!(t, 0);
        span(SpanKind::Group, 2, 0, t, 5, 0);
        instant(SpanKind::Shed, 2, 3, 9);
        set_enabled(false);
        let ours: Vec<TraceEvent> = global()
            .all_events()
            .into_iter()
            .filter(|e| e.tenant == 2)
            .collect();
        assert!(ours.iter().any(|e| e.kind == SpanKind::Group && e.a == 5));
        assert!(ours
            .iter()
            .any(|e| e.kind == SpanKind::Shed && e.a == 3 && e.b == 9));
    }
}
