//! The systems under test and their oracles.
//!
//! Each serving workload drives a [`MultiEngine`] fleet, in process
//! (`r50_*`) or behind the TCP front-end on loopback (`zoo_wire_*`). The
//! fleets are built through the shipped entry points —
//! [`MultiEngineBuilder::register`] and [`FleetConfig::build`] — so
//! `setup_s` times what a deployment pays.
//!
//! The oracle is computed from [`NetworkProgram::forward_reference`], the
//! sequential stage-at-a-time path, never from the engine under test.
//!
//! [`MultiEngineBuilder::register`]: epim_runtime::MultiEngineBuilder::register
//! [`NetworkProgram::forward_reference`]: epim_models::lower::NetworkProgram::forward_reference

use crate::inputs::input_pool;
use crate::spec::Workload;
use epim_core::EpitomeDesigner;
use epim_models::lower::NetworkWeights;
use epim_models::network::Network;
use epim_models::resnet::resnet50;
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{MultiEngine, PlanCache, RuntimeError, TenantConfig, TenantId};
use epim_serve::fleet::{self, FleetConfig};
use epim_serve::{Client, ClientReceiver, ClientSender, ServeReport, Server};
use epim_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One tenant as the benchmark knows it: what to lower, with which
/// weights, for which input size.
pub struct TenantModel {
    pub name: String,
    pub network: Network,
    pub weight_seed: u64,
    pub input_hw: (usize, usize),
    pub analog: AnalogModel,
    /// Inputs the load generator cycles through for this tenant.
    pub pool_size: usize,
    /// Stacked images the tenant's arena is sized for.
    pub max_batch: usize,
}

impl TenantModel {
    pub fn input_shape(&self) -> [usize; 4] {
        let cin = self.network.backbone().layers[0].conv.cin;
        [1, cin, self.input_hw.0, self.input_hw.1]
    }

    pub fn weights(&self) -> NetworkWeights {
        NetworkWeights::random(&self.network, self.weight_seed).expect("weights for a valid net")
    }
}

/// Weight seed of the ResNet-50 tenant (any fixed value: weights are part
/// of the system under test, not of the seeded inputs).
const R50_WEIGHT_SEED: u64 = 50;
const R50_MAX_BATCH: usize = 2;

/// The tenants `workload` serves (none for the design workload).
pub fn tenant_models(workload: Workload) -> Vec<TenantModel> {
    let r50 = |network: Network| {
        vec![TenantModel {
            name: "r50".to_string(),
            network,
            weight_seed: R50_WEIGHT_SEED,
            input_hw: (224, 224),
            // The paper's A9 activations and an 8-bit readout.
            analog: AnalogModel {
                dac_bits: Some(9),
                adc_bits: Some(8),
                ..AnalogModel::ideal()
            },
            pool_size: 4,
            max_batch: R50_MAX_BATCH,
        }]
    };
    match workload {
        Workload::R50Epim => {
            r50(
                Network::uniform_epitome(resnet50(), &EpitomeDesigner::new(128, 128), 1024, 256)
                    .expect("the uniform design is legal for ResNet-50"),
            )
        }
        Workload::R50Dense => r50(Network::baseline(resnet50())),
        Workload::ZooWireBurst | Workload::ZooWirePaced => FleetConfig::default_zoo()
            .tenants
            .iter()
            .map(|t| TenantModel {
                name: t.name.clone(),
                network: zoo::tiny_epitome_network(t.stem, t.mid, t.classes)
                    .expect("zoo networks design")
                    .0,
                weight_seed: t.seed,
                input_hw: (fleet::INPUT_SIDE, fleet::INPUT_SIDE),
                analog: fleet::analog(),
                pool_size: 64,
                max_batch: t.max_batch,
            })
            .collect(),
        Workload::DesignR50 => Vec::new(),
    }
}

/// A tenant's input pool and the outputs the reference path gives for it.
pub struct TenantOracle {
    pub name: String,
    pub pool: Vec<Tensor>,
    pub expected: Vec<Tensor>,
}

/// Builds the oracle of every tenant from `seed`, and returns with it the
/// median time of one reference forward pass of the first tenant, in ms.
pub fn oracles(models: &[TenantModel], seed: u64) -> (Vec<TenantOracle>, f64) {
    let mut first_tenant_ms = Vec::new();
    let oracles = models
        .iter()
        .enumerate()
        .map(|(t, model)| {
            let program = model
                .network
                .lower(model.input_hw.0, model.input_hw.1)
                .expect("the tenant lowers");
            let weights = model.weights();
            let pool = input_pool(seed, t as u64, &model.input_shape(), model.pool_size);
            let expected = pool
                .iter()
                .map(|x| {
                    let started = Instant::now();
                    let (y, _) = program
                        .forward_reference(&weights, true, model.analog, x)
                        .expect("the reference path executes");
                    if t == 0 {
                        first_tenant_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    }
                    y
                })
                .collect();
            TenantOracle {
                name: model.name.clone(),
                pool,
                expected,
            }
        })
        .collect();
    (oracles, crate::summary::median(&mut first_tenant_ms))
}

/// Bitwise equality of two outputs (the house invariant: serving is
/// bit-identical to the sequential reference).
pub fn bits_equal(got: &Tensor, want: &Tensor) -> bool {
    got.len() == want.len()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// One client connection, kept as its two halves so that the open-loop
/// workload can send and receive on different threads.
pub struct Conn {
    pub tx: ClientSender,
    pub rx: ClientReceiver,
}

/// A fleet behind the TCP front-end on an ephemeral loopback port, with
/// its connected clients.
pub struct Wire {
    server: Arc<Server>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<ServeReport, RuntimeError>>,
    pub conns: Vec<Conn>,
}

/// The system one workload drives.
pub enum System {
    InProc { engine: MultiEngine, id: TenantId },
    Wire(Wire),
}

/// What a load generator holds on to: a tenant of the in-process fleet,
/// or the connections to the served one.
pub enum Clients<'a> {
    InProc(TenantId),
    Wire(&'a mut [Conn]),
}

impl System {
    /// Builds the fleet `workload` serves from nothing — fresh plan cache,
    /// weights, lowering, fusion, plan compilation, arena warm-up and, for
    /// the wire workloads, bind and connect. This is what `setup_s` times.
    pub fn build(workload: Workload, models: &[TenantModel]) -> System {
        match workload {
            Workload::R50Epim | Workload::R50Dense => {
                let model = &models[0];
                let cache = PlanCache::new();
                let mut builder = MultiEngine::builder(&cache).workers(1);
                let config = TenantConfig {
                    max_batch: model.max_batch,
                    ..TenantConfig::default()
                };
                let id = builder
                    .register(
                        &model.name,
                        &model.network,
                        &model.weights(),
                        model.input_hw,
                        true,
                        model.analog,
                        config,
                    )
                    .expect("the tenant registers");
                System::InProc {
                    engine: builder.build().expect("the fleet builds"),
                    id,
                }
            }
            Workload::ZooWireBurst => System::Wire(Wire::build(2)),
            Workload::ZooWirePaced => System::Wire(Wire::build(1)),
            Workload::DesignR50 => unreachable!("the design workload serves nothing"),
        }
    }

    pub fn engine(&self) -> &MultiEngine {
        match self {
            System::InProc { engine, .. } => engine,
            System::Wire(wire) => wire.server.engine(),
        }
    }

    /// The engine, to observe, next to what the load generator drives.
    pub fn parts(&mut self) -> (&MultiEngine, Clients<'_>) {
        match self {
            System::InProc { engine, id } => (engine, Clients::InProc(*id)),
            System::Wire(wire) => (wire.server.engine(), Clients::Wire(&mut wire.conns)),
        }
    }

    /// Stops the system: clients say goodbye, the server drains and its
    /// thread is joined. Returns the server's report for wire systems.
    pub fn teardown(self) -> Option<ServeReport> {
        match self {
            System::InProc { .. } => None,
            System::Wire(wire) => Some(wire.teardown()),
        }
    }
}

impl Wire {
    /// The default zoo fleet, served, with `connections` clients.
    pub fn build(connections: usize) -> Wire {
        let engine = FleetConfig::default_zoo().build().expect("the zoo builds");
        let server = Arc::new(Server::bind(engine, "127.0.0.1:0").expect("loopback binds"));
        let addr = server.local_addr().expect("bound address").to_string();
        let shutdown = server.shutdown_flag();
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve())
        };
        let conns = (0..connections)
            .map(|_| {
                let (tx, rx) = Client::connect(&addr).expect("loopback connects").split();
                Conn { tx, rx }
            })
            .collect();
        Wire {
            server,
            shutdown,
            thread,
            conns,
        }
    }

    pub fn engine(&self) -> &MultiEngine {
        self.server.engine()
    }

    /// Clients say goodbye, the server drains, its thread is joined.
    pub fn teardown(self) -> ServeReport {
        for conn in self.conns {
            // A connection that already failed was counted where it
            // failed; the drain below does not depend on its goodbye.
            if conn.tx.goodbye().is_ok() {
                let _ = conn.rx.await_goodbye();
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .expect("the server thread does not panic")
            .expect("the server drains")
    }
}
