//! Integration tests for the submission surface: [`Pending`] must
//! deliver results through every one of its three consumption modes —
//! blocking `wait()`, bounded `wait_timeout()` and `await` under a
//! runtime-free hand-rolled executor.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{MultiEngine, Pending, PlanCache, RuntimeError, TenantConfig, TenantId};
use epim_tensor::{init, rng, Tensor};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// A one-tenant fleet serving one A9/ADC8 epitome layer on 8x8 inputs.
fn layer_engine(config: TenantConfig) -> (MultiEngine, TenantId) {
    let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2)).unwrap();
    let mut r = rng::seeded(5);
    let epi = Epitome::from_tensor(spec, init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r)).unwrap();
    let (net, weights) = zoo::epitome_layer(&epi, 8).unwrap();
    let analog = AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    };
    let mut builder = MultiEngine::builder(&PlanCache::new());
    let id = builder
        .register("layer", &net, &weights, (8, 8), true, analog, config)
        .unwrap();
    (builder.build().unwrap(), id)
}

/// A minimal single-future executor built only on std: parks on a
/// condvar, woken by the `Waker` the future registers. This is the
/// acceptance check that `Pending` integrates with *any* runtime, not
/// that it happens to work with a specific one.
struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        let mut woken = self.woken.lock().unwrap();
        *woken = true;
        self.cv.notify_one();
    }
}

fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let parker = Arc::new(Parker {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                let mut woken = parker.woken.lock().unwrap();
                while !*woken {
                    woken = parker.cv.wait(woken).unwrap();
                }
                *woken = false;
            }
        }
    }
}

/// `Pending` as a `Future`: awaiting results under a minimal hand-rolled
/// executor (no async runtime anywhere in the workspace) matches the
/// blocking path bitwise, and the waker fires without busy-polling.
#[test]
fn pending_resolves_as_future_under_handrolled_executor() {
    let (engine, id) = layer_engine(TenantConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(2),
        ..TenantConfig::default()
    });
    let mut r = rng::seeded(7);
    let inputs: Vec<Tensor> = (0..6)
        .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
        .collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| engine.infer(id, x.clone()).unwrap().output)
        .collect();

    // Await them one at a time (single-future executor), but submit all
    // up front so the batcher still coalesces.
    let pendings: Vec<Pending> = inputs
        .iter()
        .map(|x| engine.try_infer(id, x.clone()).unwrap())
        .collect();
    let got: Vec<Tensor> = pendings
        .into_iter()
        .map(|p| block_on(p).unwrap().output)
        .collect();
    assert_eq!(got, want);

    // A joined pair through one future: poll-driven multiplexing.
    let p1 = engine.try_infer(id, inputs[0].clone()).unwrap();
    let p2 = engine.try_infer(id, inputs[1].clone()).unwrap();
    let joined = block_on(Join2 {
        a: Some(p1),
        b: Some(p2),
        out_a: None,
        out_b: None,
    });
    assert_eq!(joined.0.unwrap().unwrap().output, want[0]);
    assert_eq!(joined.1.unwrap().unwrap().output, want[1]);
}

/// A tiny join combinator so the executor test exercises re-polling with
/// one result ready and the other still pending.
struct Join2 {
    a: Option<Pending>,
    b: Option<Pending>,
    out_a: Option<Result<epim_runtime::Inference, RuntimeError>>,
    out_b: Option<Result<epim_runtime::Inference, RuntimeError>>,
}

impl Future for Join2 {
    #[allow(clippy::type_complexity)]
    type Output = (
        Option<Result<epim_runtime::Inference, RuntimeError>>,
        Option<Result<epim_runtime::Inference, RuntimeError>>,
    );

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.out_a.is_none() {
            if let Some(p) = this.a.as_mut() {
                if let Poll::Ready(r) = Pin::new(p).poll(cx) {
                    this.out_a = Some(r);
                    this.a = None;
                }
            }
        }
        if this.out_b.is_none() {
            if let Some(p) = this.b.as_mut() {
                if let Poll::Ready(r) = Pin::new(p).poll(cx) {
                    this.out_b = Some(r);
                    this.b = None;
                }
            }
        }
        if this.out_a.is_some() && this.out_b.is_some() {
            Poll::Ready((this.out_a.take(), this.out_b.take()))
        } else {
            Poll::Pending
        }
    }
}

/// `wait_timeout` against a deliberately stalled worker: a lone request
/// held open by a long coalescing window times out with
/// `RuntimeError::Timeout`, leaves the request in flight (the handle
/// stays usable), and a later unbounded `wait` still delivers the result.
#[test]
fn wait_timeout_returns_timeout_then_result_survives() {
    // max_batch 8 with a single submission: the batcher holds the
    // request for the whole window hoping for peers, stalling delivery.
    let (engine, id) = layer_engine(TenantConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(400),
        ..TenantConfig::default()
    });
    let mut r = rng::seeded(8);
    let x = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
    let want = {
        // Ground truth from a second engine with no stall window.
        let (fast, fast_id) = layer_engine(TenantConfig::default());
        fast.infer(fast_id, x.clone()).unwrap().output
    };

    let mut pending = engine.try_infer(id, x).unwrap();
    assert!(!pending.is_ready());
    let err = pending
        .wait_timeout(Duration::from_millis(30))
        .expect_err("stalled worker must not deliver within 30ms");
    assert_eq!(err, RuntimeError::Timeout);

    // The request is still in flight; an unbounded wait gets the result.
    let out = pending.wait().unwrap().output;
    assert_eq!(out, want);

    // A fresh request against the same engine resolves within a bounded
    // wait longer than the window: timeout is a deadline, not a poison.
    let y = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
    let mut p2 = engine.try_infer(id, y).unwrap();
    let inf = p2.wait_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(inf.output.shape(), &[1, 8, 8, 8]);
}
