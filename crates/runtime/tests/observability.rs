//! Integration test for the observability layer: the trace ring must see
//! well-nested per-stage spans whose durations sum to (at most, and most
//! of) the measured wall time, the serving engine must label scheduler
//! worker lanes, outputs computed with tracing on must equal the
//! `forward_reference` oracle bit for bit, and the Prometheus /
//! chrome-trace exporters must emit well-formed documents for a real
//! served burst.
//!
//! Tracing is process-global state, so everything runs as **one** `#[test]`
//! with sequential phases — the default test harness would otherwise
//! interleave enable/disable across threads.

use epim_models::lower::NetworkWeights;
use epim_models::zoo;
use epim_obs::{self as obs, SpanKind, TENANT_NONE};
use epim_pim::datapath::AnalogModel;
use epim_runtime::{MultiEngine, NetworkPlan, PlanCache, TenantConfig};
use epim_tensor::{init, rng, Tensor};
use std::time::Duration;

fn burst(n: usize, seed: u64) -> Vec<Tensor> {
    let mut r = rng::seeded(seed);
    (0..n)
        .map(|_| init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut r))
        .collect()
}

#[test]
fn traced_serving_produces_nested_spans_and_valid_exports() {
    let (net, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let weights = NetworkWeights::random(&net, 7).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let cache = PlanCache::new();
    // Recording spans must never perturb the arithmetic: every output
    // computed with tracing on equals the sequential oracle bitwise.
    let program = net.lower(16, 16).unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let assert_reference = |inputs: &[Tensor], outputs: &[Tensor], what: &str| {
        assert_eq!(inputs.len(), outputs.len(), "{what}");
        for (i, (x, got)) in inputs.iter().zip(outputs).enumerate() {
            let (want, _) = program
                .forward_reference(&weights, true, analog, x)
                .unwrap();
            assert_eq!(bits(got), bits(&want), "{what}: request {i}");
        }
    };

    // --- Phase 1: direct plan execution on this thread. The per-stage
    // spans land on this thread's lane and their durations must sum to no
    // more than — and the bulk of — the measured wall time of the call.
    let plan = NetworkPlan::compile(&cache, &net, &weights, (16, 16), true, analog, true).unwrap();
    let inputs = burst(4, 11);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    obs::set_enabled(true);
    obs::global().clear();
    let t0 = obs::now_ns();
    let (traced, _) = plan.execute_batch(&refs).unwrap();
    let t1 = obs::now_ns();
    let stages: Vec<_> = obs::global()
        .all_events()
        .into_iter()
        .filter(|e| e.kind == SpanKind::Stage && e.tenant == TENANT_NONE)
        .collect();
    assert_eq!(
        stages.len(),
        plan.program().stages().len(),
        "one stage span per executed plan stage"
    );
    for s in &stages {
        assert!(
            s.start_ns >= t0 && s.end_ns() <= t1,
            "stage span inside the call window"
        );
        let (_, images) = obs::unpack_stage_payload(s.a);
        assert_eq!(images, 4, "stage spans carry the batch size");
    }
    let span_sum: u64 = stages.iter().map(|s| s.dur_ns).sum();
    let wall = t1 - t0;
    assert!(span_sum <= wall, "stage spans cannot exceed the wall time");
    assert!(
        span_sum * 4 >= wall,
        "stage spans must cover the bulk of execution ({span_sum} of {wall} ns)"
    );
    assert_reference(&inputs, &traced, "traced plan execution");

    // --- Phase 2: a served burst. Scheduler workers occupy labeled
    // lanes; every stage span nests inside a group span on its lane.
    obs::global().clear();
    let fleet = |window: Duration, workers: usize| {
        let mut builder = MultiEngine::builder(&cache).workers(workers);
        let config = TenantConfig {
            max_batch: 4,
            batch_window: window,
            ..TenantConfig::default()
        };
        let id = builder
            .register("net", &net, &weights, (16, 16), true, analog, config)
            .unwrap();
        (builder.build().unwrap(), id)
    };
    let (engine, id) = fleet(Duration::ZERO, 2);
    let requests = burst(8, 13);
    let served: Vec<Tensor> = engine
        .infer_many(id, requests.clone())
        .unwrap()
        .into_iter()
        .map(|res| res.unwrap().output)
        .collect();
    obs::set_enabled(false);
    assert_reference(&requests, &served, "traced serving");

    let ring = obs::global();
    let mut sched_lanes = 0usize;
    let mut nested_stages = 0usize;
    for lane in 0..ring.lanes() {
        let events = ring.events(lane);
        if events.is_empty() {
            continue;
        }
        let groups: Vec<_> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Group)
            .collect();
        if !groups.is_empty() {
            assert!(
                ring.label(lane).starts_with("epim-sched-"),
                "group spans are recorded by scheduler workers, got lane {:?}",
                ring.label(lane)
            );
            sched_lanes += 1;
        }
        for stage in events.iter().filter(|e| e.kind == SpanKind::Stage) {
            assert!(
                groups
                    .iter()
                    .any(|g| g.start_ns <= stage.start_ns && stage.end_ns() <= g.end_ns()),
                "every stage span nests inside a group span on its lane"
            );
            nested_stages += 1;
        }
    }
    assert!(
        sched_lanes >= 1,
        "at least one scheduler worker lane active"
    );
    assert!(nested_stages > 0, "served stages were span-traced");
    let all = ring.all_events();
    assert!(
        all.iter().any(|e| e.kind == SpanKind::Enqueue),
        "request arrivals leave enqueue instants"
    );
    let coalesces: Vec<_> = all
        .iter()
        .filter(|e| e.kind == SpanKind::Coalesce)
        .collect();
    assert!(
        !coalesces.is_empty(),
        "batch formation leaves coalesce spans"
    );
    assert!(
        coalesces.iter().all(|e| e.b == 0),
        "a zero window grants no hold"
    );

    // --- Phase 2b: the coalesce span carries the hold it was granted.
    // The first group of a fresh engine has no service estimate yet and
    // gets the configured window; once a batch has been measured (far
    // below the 20 ms window) the next group gets at most that long.
    let (held, held_id) = fleet(Duration::from_millis(20), 1);
    obs::global().clear();
    obs::set_enabled(true);
    for input in burst(2, 17) {
        held.infer(held_id, input).unwrap();
    }
    obs::set_enabled(false);
    let mut holds: Vec<(u64, u64)> = ring
        .all_events()
        .iter()
        .filter(|e| e.kind == SpanKind::Coalesce)
        .map(|e| (e.start_ns, e.b))
        .collect();
    holds.sort_unstable();
    let holds: Vec<u64> = holds.into_iter().map(|(_, hold)| hold).collect();
    assert_eq!(holds[0], 20_000_000, "cold start: the configured window");
    assert!(
        holds[1..].iter().all(|&h| h < 20_000_000),
        "a measured tenant is held for less than the window: {holds:?}"
    );
    let all = ring.all_events();

    // --- Phase 3: exporters. The chrome trace parses back through the
    // vendored serde_json; the Prometheus exposition carries the serving
    // histograms and per-stage rollups.
    let json = ring.export_chrome_trace();
    let doc: serde::Value = serde_json::from_str(&json).expect("chrome trace parses");
    let serde::Value::Object(fields) = &doc else {
        panic!("chrome trace must be an object");
    };
    let Some((_, serde::Value::Array(events))) = fields.iter().find(|(k, _)| k == "traceEvents")
    else {
        panic!("traceEvents array present");
    };
    assert!(events.len() >= all.len(), "every ring event exports");
    assert!(json.contains("hold_ns"), "coalesce spans export their hold");

    let stats = engine.fleet_stats();
    assert!(
        stats.queue_depth_high_water >= 1,
        "burst left a high-water mark"
    );
    assert!(!stats.stages.is_empty(), "per-stage rollup populated");
    assert!(stats.time_in_queue() > Duration::ZERO);
    let text = engine.render_prometheus();
    for needle in [
        "# TYPE epim_request_seconds histogram",
        "epim_request_seconds_bucket",
        "le=\"+Inf\"",
        "epim_requests_total{tenant=\"net\"} 8",
        "epim_queue_depth_high_water",
        "epim_stage_seconds_total",
    ] {
        assert!(
            text.contains(needle),
            "exposition missing {needle:?}:\n{text}"
        );
    }
}
