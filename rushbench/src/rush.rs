//! The three rush-hour workloads and the closed loop that replays them.
//!
//! One dispatcher thread waits on every reply. In each 5 s simulated step
//! it applies a traffic epoch when one is due, submits the trips that are
//! due and lets each rider respond by its rule, moves every vehicle with
//! `ptrider_sim::motion::Motion` (location updates at vertex crossings,
//! `vehicle_arrived` at stops), and ticks the clock.

use crate::checks::{dijkstra, Checker, OptionView};
use crate::stats::{steal_secs, CountingAlloc, Spans};
use crate::wire::{self, WireClient};
use ptrider_core::{
    Decision, DistanceBackend, EngineConfig, EngineError, GridConfig, GridIndex, HistogramSnapshot,
    Journal, JournalConfig, MatcherKind, OptionId, PtRider, Request, RideService, ServiceConfig,
    ServiceError, Stage, StopKind, TelemetryConfig, TraceContext, TrafficModel, VehicleId,
    VertexId,
};
use ptrider_datagen::workload::{PAPER_TRIPS, PAPER_VEHICLES};
use ptrider_datagen::{
    CityConfig, CongestionConfig, CongestionProfile, TimedTrip, TripConfig, Workload,
    WorkloadConfig,
};
use ptrider_roadnet::{DistanceOracle, LandmarkIndex, RoadNetwork};
use ptrider_server::{Server, ServerConfig, ServerHandle};
use ptrider_sim::motion::Motion;
use ptrider_vehicles::{RequestId, Stop, StopEvent};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 07:30, where every replay starts.
pub const START_SECS: f64 = 7.5 * 3600.0;
/// Simulated step length.
const DT_SECS: f64 = 5.0;
/// Fleet-wide samples and traffic epochs come once per simulated minute.
const MINUTE: f64 = 60.0;
/// Traffic epochs applied to the recovered final state of every round, so
/// `traffic_update_ms` is measured on every workload and, on
/// `rush_ch_traffic`, over more than the window's few epochs (single CCH
/// customizations there ranged from 5 to 28 ms).
const CODA_EPOCHS: usize = 16;
/// Recoveries of each round's journal.
const RECOVERIES: usize = 3;
/// On the wire workload, a crash image of the journal is taken once per
/// snapshot cycle, when this many operations follow the last snapshot (half
/// the default cadence of 8,192), so each round recovers several journals
/// of one size and `recover_s` rests on more than the round's final tail.
const IMAGE_TAIL: u64 = 4096;
/// Requests in the fixed matcher-agreement probe set.
const AGREEMENT_PROBES: usize = 24;
/// Unseen pairs timed on the probe oracle, per query kind.
const ORACLE_PROBES: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Riders {
    /// Every rider takes the cheapest option.
    PriceFirst,
    /// Every rider takes option 0, the earliest pick-up.
    TimeFirst,
    /// Each rider is price-first or time-first by a seeded coin.
    Mixed,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub backend: DistanceBackend,
    /// A `CongestionProfile` epoch every simulated minute.
    pub traffic: bool,
    /// Through the HTTP front door with the write-ahead journal attached.
    pub wire: bool,
    pub riders: Riders,
    /// Simulated length of one round, from 07:30.
    pub window_secs: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "rush_alt",
        backend: DistanceBackend::Alt,
        traffic: false,
        wire: false,
        riders: Riders::PriceFirst,
        window_secs: 10.0 * MINUTE,
    },
    Spec {
        name: "rush_ch_traffic",
        backend: DistanceBackend::Ch,
        traffic: true,
        wire: false,
        riders: Riders::Mixed,
        window_secs: 6.0 * MINUTE,
    },
    Spec {
        name: "rush_wire_journal",
        backend: DistanceBackend::Alt,
        traffic: false,
        wire: true,
        riders: Riders::TimeFirst,
        window_secs: 10.0 * MINUTE,
    },
];

/// Engine configuration, every field explicit: the paper's parameters
/// priced per kilometre, a pool of 2 and the workload's backend.
pub fn engine_config(spec: &Spec) -> EngineConfig {
    EngineConfig::paper_defaults()
        .with_capacity(4)
        .with_max_wait_secs(300.0)
        .with_detour_factor(0.2)
        .with_num_landmarks(8)
        .with_pool_size(2)
        .with_distance_backend(spec.backend)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        offer_ttl_secs: 300.0,
        event_capacity: 65_536,
        hold_offers: false,
    }
}

fn grid_config() -> GridConfig {
    GridConfig::with_dimensions(16, 16)
}

fn build_engine(
    spec: &Spec,
    net: &Arc<RoadNetwork>,
    grid: &Arc<GridIndex>,
    telemetry: TelemetryConfig,
) -> PtRider {
    let config = engine_config(spec);
    let landmarks = Arc::new(LandmarkIndex::build_auto(net, config.num_landmarks));
    let oracle = DistanceOracle::with_backend(
        Arc::clone(net),
        Arc::clone(grid),
        Some(landmarks),
        config.distance_backend,
    );
    let mut engine = PtRider::with_oracle_and_telemetry(
        Arc::clone(net),
        Arc::clone(grid),
        oracle,
        config,
        telemetry,
    );
    engine.set_matcher(MatcherKind::DualSide);
    engine
}

/// Everything one round runs against.
pub struct Stack {
    service: Arc<RideService>,
    server: Option<ServerHandle>,
    client: Option<WireClient>,
    net: Arc<RoadNetwork>,
    grid: Arc<GridIndex>,
    trips: Vec<TimedTrip>,
    fleet: Vec<(VehicleId, Motion)>,
    traffic: Option<(CongestionProfile, TrafficModel)>,
}

/// The city every seed replays: `scaled_shanghai(0.1, CITY_SEED)`'s.
const CITY_SEED: u64 = 20_090_529;
/// Scale of the workload against the paper's Shanghai day.
const SCALE: f64 = 0.1;

/// The scaled Shanghai workload at 0.1 (a 32×32 city, 1,700 vehicles) on
/// one fixed city, with a demand pool twice the scaled day. `seed` places
/// the fleet; [`setup`] keeps each pooled trip by a seeded coin, so every
/// seed replays about 65 trips per simulated minute from 07:30 with the
/// same hotspots.
fn rush_hour(seed: u64) -> Workload {
    let side = (100.0 * SCALE.sqrt()).round() as usize;
    Workload::generate(WorkloadConfig {
        city: CityConfig {
            cols: side,
            rows: side,
            seed: CITY_SEED,
            ..CityConfig::default()
        },
        num_vehicles: (PAPER_VEHICLES as f64 * SCALE).round() as usize,
        trips: TripConfig {
            num_trips: 2 * (PAPER_TRIPS as f64 * SCALE).round() as usize,
            seed: CITY_SEED ^ 0x7712,
            ..TripConfig::default()
        },
        seed,
    })
}

/// The timed set-up: city, engine (landmarks, CH), fleet registration,
/// server start, and the first traffic epoch (which forces the lazy CCH
/// topology build).
pub fn setup(spec: &Spec, seed: u64, telemetry: TelemetryConfig, journal_dir: &Path) -> Stack {
    let w = rush_hour(seed);
    let mut coin = ChaCha8Rng::seed_from_u64(seed ^ 0x7A1F);
    let trips = w
        .trips_in_window(START_SECS, START_SECS + spec.window_secs)
        .iter()
        .filter(|_| coin.gen::<bool>())
        .copied()
        .collect();
    let net = Arc::new(w.network);
    let grid = Arc::new(GridIndex::build(&net, grid_config()));
    let mut service = RideService::from_engine(build_engine(spec, &net, &grid, telemetry))
        .with_service_config(service_config());
    if spec.wire {
        let journal = Journal::create(journal_dir, JournalConfig::default())
            .expect("journal directory is writable");
        service = service.with_journal(journal);
    }
    let fleet = w
        .vehicle_locations
        .iter()
        .map(|&loc| (service.add_vehicle(loc), Motion::new()))
        .collect();
    let service = Arc::new(service);
    let (server, client) = if spec.wire {
        let config = ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_threads(2)
            .with_max_conns(16);
        let server = Server::start(Arc::clone(&service), config).expect("server binds localhost");
        let client = WireClient::connect(server.addr()).expect("client connects to the server");
        (Some(server), Some(client))
    } else {
        (None, None)
    };
    let traffic = spec.traffic.then(|| {
        let profile = CongestionProfile::build(&net, CongestionConfig::default());
        let model = profile.model_at(&net, START_SECS);
        service.apply_traffic_update(&model, START_SECS);
        (profile, model)
    });
    Stack {
        service,
        server,
        client,
        net,
        grid,
        trips,
        fleet,
        traffic,
    }
}

/// The seed of round `k` of a run: every round replays its own demand
/// sample and fleet placement, so a run averages over several.
pub fn round_seed(seed: u64, k: u32) -> u64 {
    seed.wrapping_add(u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Times one set-up and tears it down again.
pub fn setup_only(spec: &Spec, seed: u64, telemetry: TelemetryConfig, journal_dir: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(journal_dir);
    let started = Instant::now();
    let stack = setup(spec, seed, telemetry, journal_dir);
    let secs = started.elapsed().as_secs_f64();
    drop(stack.client);
    if let Some(mut server) = stack.server {
        server.shutdown();
    }
    drop(stack.service);
    let _ = std::fs::remove_dir_all(journal_dir);
    secs
}

/// Operation types, for the per-run accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Submit,
    Respond,
    Location,
    Arrived,
    Tick,
    Traffic,
}

pub const OPS: [(Op, &str); 6] = [
    (Op::Submit, "submit"),
    (Op::Respond, "respond"),
    (Op::Location, "location"),
    (Op::Arrived, "arrived"),
    (Op::Tick, "tick"),
    (Op::Traffic, "traffic_epoch"),
];

/// Attempted and failed counts of one operation type.
#[derive(Clone, Copy, Default)]
pub struct Count {
    pub attempted: u64,
    pub failed: u64,
}

/// Nanoseconds per stage, indexed like `Stage::ALL`.
pub type StageNs = [u64; Stage::ALL.len()];

pub fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("every stage is in Stage::ALL")
}

/// The program's stage time summed over the traced calls of one operation
/// type, joined by trace id.
#[derive(Clone, Default)]
pub struct CallStages {
    pub calls: u64,
    /// Traced calls whose span tree was missing or truncated.
    pub unjoined: u64,
    pub call_ns: u64,
    pub match_ns: u64,
    pub stage_ns: StageNs,
}

/// Per-request matcher and oracle work, summed from counter deltas.
#[derive(Clone, Copy, Default)]
pub struct Work {
    pub requests: u64,
    pub considered: u64,
    pub pruned: u64,
    pub verified: u64,
    pub cells: u64,
    pub candidates: u64,
    pub options: u64,
    pub exact: u64,
    pub lower_bounds: u64,
    pub cache_hits: u64,
}

/// Everything one round measured.
pub struct Pass {
    pub traced: bool,
    /// Share of the machine's CPU time the hypervisor took during the round.
    pub steal_share: f64,
    pub setup_s: f64,
    /// Each recovery of the round's journal.
    pub recover_s: Vec<f64>,
    /// Peak live heap of the timed phase above the live heap before
    /// set-up: what set-up built and kept is live throughout, and what
    /// earlier rounds left (their sample sets) is not counted.
    pub heap_peak_mb: f64,
    pub offer_ns: Vec<u64>,
    pub confirm_ns: Vec<u64>,
    pub location_ns: Vec<u64>,
    pub arrived_ns: Vec<u64>,
    pub tick_ns: Vec<u64>,
    pub traffic_ns: Vec<u64>,
    pub match_ns: Vec<u64>,
    pub sessions: u64,
    /// Wall time of the timed phase, check and measurement time excluded.
    pub timed_ns: u64,
    /// Time spent inside the measured program calls.
    pub call_ns: u64,
    pub counts: [Count; OPS.len()],
    pub assignment_failed: u64,
    pub http: Count,
    pub work: Work,
    pub events: u64,
    pub evictions: u64,
    /// Fleet means sampled once per simulated minute: (nodes, stops,
    /// on-board riders) summed, and the vehicle-samples they cover.
    pub fleet: (u64, u64, u64, u64),
    pub spans: Spans,
    pub call_stages: HashMap<&'static str, CallStages>,
    /// Per traced call: `service.submit` stage time minus match time, and
    /// the server's handle time of location updates and arrivals.
    pub submit_unattributed_ns: Vec<u64>,
    pub handle_location_ns: Vec<u64>,
    pub handle_arrived_ns: Vec<u64>,
    pub rtt_minus_handle_ns: Vec<u64>,
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    pub probe: Option<OracleProbe>,
    pub journal: Option<JournalFacts>,
}

impl Pass {
    pub fn new(traced: bool) -> Pass {
        Pass {
            traced,
            steal_share: 0.0,
            setup_s: 0.0,
            recover_s: Vec::new(),
            heap_peak_mb: 0.0,
            offer_ns: Vec::new(),
            confirm_ns: Vec::new(),
            location_ns: Vec::new(),
            arrived_ns: Vec::new(),
            tick_ns: Vec::new(),
            traffic_ns: Vec::new(),
            match_ns: Vec::new(),
            sessions: 0,
            timed_ns: 0,
            call_ns: 0,
            counts: [Count::default(); OPS.len()],
            assignment_failed: 0,
            http: Count::default(),
            work: Work::default(),
            events: 0,
            evictions: 0,
            fleet: (0, 0, 0, 0),
            spans: Spans::new(traced),
            call_stages: HashMap::new(),
            submit_unattributed_ns: Vec::new(),
            handle_location_ns: Vec::new(),
            handle_arrived_ns: Vec::new(),
            rtt_minus_handle_ns: Vec::new(),
            stages: Vec::new(),
            probe: None,
            journal: None,
        }
    }

    fn count_mut(&mut self, op: Op) -> &mut Count {
        &mut self.counts[OPS.iter().position(|(o, _)| *o == op).expect("known op")]
    }

    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.iter().map(|c| c.failed).sum()
    }
}

/// Timings of the separate probe oracle (traced pass).
pub struct OracleProbe {
    pub distance_cold_ns: Vec<u64>,
    pub lower_bound_ns: Vec<u64>,
    pub customize_ns: Vec<u64>,
}

/// What the wire workload's journal held at the end of a traced round.
pub struct JournalFacts {
    /// Operations journaled since the service was born.
    pub ops: u64,
    /// Size of the write-ahead files and the operations they still hold.
    pub wal_bytes: u64,
    pub wal_ops: u64,
    pub tail_ops: u64,
}

/// How a stop was served.
enum Arrival {
    PickedUp,
    DroppedOff(f64),
    Nothing,
}

/// Runs one whole round: set-up, the timed replay, the output checks that
/// need the final state, recovery, and the traffic coda.
pub fn round(
    spec: &Spec,
    seed: u64,
    telemetry: TelemetryConfig,
    journal_dir: &Path,
    pass: &mut Pass,
    checker: &mut Checker,
    agreement: bool,
) {
    let _ = std::fs::remove_dir_all(journal_dir);
    let steal_before = steal_secs();
    let round_started = Instant::now();
    let heap_before_mb = CountingAlloc::live_mb();
    let started = Instant::now();
    let mut stack = setup(spec, seed, telemetry, journal_dir);
    pass.setup_s = started.elapsed().as_secs_f64();
    CountingAlloc::reset_peak();

    let mut epoch_times = Vec::new();
    let images = Replay::new(
        spec,
        seed,
        &mut stack,
        pass,
        checker,
        &mut epoch_times,
        journal_dir,
    )
    .run();
    pass.heap_peak_mb = CountingAlloc::peak_mb() - heap_before_mb;
    if pass.traced {
        let t = stack.service.telemetry();
        pass.stages = Stage::ALL
            .iter()
            .map(|&s| (s, t.stage_snapshot(s)))
            .collect();
    }
    if agreement {
        matcher_agreement(&stack, seed, checker);
    }
    let end = START_SECS + spec.window_secs;
    let coda_times: Vec<f64> = (0..CODA_EPOCHS).map(|k| end + k as f64 * MINUTE).collect();
    if pass.traced {
        let times = if spec.traffic {
            &epoch_times
        } else {
            &coda_times
        };
        pass.probe = Some(probe_oracle(spec, &stack, times, seed));
    }

    // Recovery: the wire workload recovers the journal it wrote; the
    // in-process workloads snapshot their final state into a fresh journal
    // and recover from that.
    let Stack {
        service,
        server,
        client,
        net,
        grid,
        ..
    } = stack;
    drop(client);
    if let Some(mut server) = server {
        server.shutdown();
    }
    // A connection thread leaves the server's drain count before it drops
    // its handle on the service, so `shutdown` can return while one still
    // holds it: wait for the last of them.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shared = service;
    let mut service = loop {
        match Arc::try_unwrap(shared) {
            Ok(service) => break service,
            Err(again) if Instant::now() < deadline => {
                shared = again;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => panic!("the stopped server still holds the service"),
        }
    };
    if spec.wire {
        checker.expect(service.sync_journal(), || "journal sync failed".into());
        if pass.traced {
            pass.journal = Some(journal_facts(&service, journal_dir));
        }
    } else {
        let journal = Journal::create(journal_dir, JournalConfig::default())
            .expect("journal directory is writable");
        service = service.with_journal(journal);
        checker.expect(service.snapshot().is_some(), || {
            "final-state snapshot failed".into()
        });
    }
    let live = service.fingerprint();
    drop(service);
    // Every recovery runs on a fresh engine built off the clock. Each crash
    // image is recovered once; the round's own journal several times, so
    // the round gives more than one sample of it, and the last recovery is
    // kept for the traffic coda.
    for (k, image) in images.iter().enumerate() {
        let service = recover(spec, &net, &grid, telemetry, &image.dir, pass);
        checker.expect(service.fingerprint() == image.fingerprint, || {
            format!("crash image {k} recovers to another state than the live one")
        });
        drop(service);
        let _ = std::fs::remove_dir_all(&image.dir);
    }
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        drop(recovered.take());
        let service = recover(spec, &net, &grid, telemetry, journal_dir, pass);
        checker.expect(service.fingerprint() == live, || {
            "recovered fingerprint differs from the live one".into()
        });
        recovered = Some(service);
    }
    let recovered = recovered.expect("recovered at least once");

    let profile = CongestionProfile::build(&net, CongestionConfig::default());
    for &t in &coda_times {
        let model = profile.model_at(&net, t);
        let started = Instant::now();
        recovered.apply_traffic_update(&model, t);
        pass.traffic_ns.push(started.elapsed().as_nanos() as u64);
        pass.count_mut(Op::Traffic).attempted += 1;
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(journal_dir);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    pass.steal_share =
        (steal_secs() - steal_before) / (round_started.elapsed().as_secs_f64() * cpus);
}

/// Recovers the journal in `dir` on a fresh engine and records the time
/// `RideService::recover` took.
fn recover(
    spec: &Spec,
    net: &Arc<RoadNetwork>,
    grid: &Arc<GridIndex>,
    telemetry: TelemetryConfig,
    dir: &Path,
    pass: &mut Pass,
) -> RideService {
    let engine = build_engine(spec, net, grid, telemetry);
    let started = Instant::now();
    let service = RideService::recover(engine, service_config(), dir, JournalConfig::default())
        .expect("the journal recovers");
    pass.recover_s.push(started.elapsed().as_secs_f64());
    service
}

/// A copy of the journal directory as a crash at that moment would leave
/// it, and the live fingerprint then.
struct CrashImage {
    dir: PathBuf,
    fingerprint: u64,
}

/// On the final state, a fixed seeded probe set matched with every
/// matcher must give identical skylines.
fn matcher_agreement(stack: &Stack, seed: u64, checker: &mut Checker) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA6EE);
    let n = stack.net.num_vertices() as u32;
    for i in 0..AGREEMENT_PROBES {
        let origin = VertexId(rng.gen_range(0..n));
        let mut destination = VertexId(rng.gen_range(0..n));
        while destination == origin {
            destination = VertexId(rng.gen_range(0..n));
        }
        let request = Request::new(
            RequestId(u64::MAX - i as u64),
            origin,
            destination,
            1,
            START_SECS,
        );
        let skylines: Vec<Vec<(u32, i64, i64)>> = MatcherKind::all()
            .iter()
            .map(|&kind| {
                let mut v: Vec<(u32, i64, i64)> = stack
                    .service
                    .match_request_with(kind, &request)
                    .map(|r| r.options)
                    .unwrap_or_default()
                    .iter()
                    .map(|o| {
                        (
                            o.vehicle.0,
                            (o.pickup_dist * 1e6).round() as i64,
                            (o.price * 1e9).round() as i64,
                        )
                    })
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        checker.expect(skylines.windows(2).all(|w| w[0] == w[1]), || {
            format!("matchers disagree on probe {origin} -> {destination}")
        });
    }
}

/// Times cold exact distances, lower bounds and metric customization on a
/// separate oracle with the workload's backend and final metric.
fn probe_oracle(spec: &Spec, stack: &Stack, model_times: &[f64], seed: u64) -> OracleProbe {
    let net = &stack.net;
    let landmarks = Arc::new(LandmarkIndex::build_auto(net, 8));
    let oracle = DistanceOracle::with_backend(
        Arc::clone(net),
        Arc::clone(&stack.grid),
        Some(landmarks),
        spec.backend,
    );
    let profile = CongestionProfile::build(net, CongestionConfig::default());
    // The first application builds the CCH topology lazily; it is set-up,
    // not customization.
    oracle.apply_traffic(&TrafficModel::free_flow(net));
    let customize_ns = model_times
        .iter()
        .map(|&t| {
            let model = profile.model_at(net, t);
            let started = Instant::now();
            oracle.apply_traffic(&model);
            started.elapsed().as_nanos() as u64
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0AC1E);
    let n = net.num_vertices() as u32;
    // Distances and bounds are timed on disjoint pairs: a CH bound can
    // settle a near pair exactly and seed the cache with it.
    let pairs: Vec<(VertexId, VertexId)> = (0..2 * ORACLE_PROBES)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    let (cold, bounded) = pairs.split_at(ORACLE_PROBES);
    let time = |pairs: &[(VertexId, VertexId)], f: &dyn Fn(VertexId, VertexId) -> f64| {
        pairs
            .iter()
            .map(|&(u, v)| {
                let started = Instant::now();
                std::hint::black_box(f(u, v));
                started.elapsed().as_nanos() as u64
            })
            .collect()
    };
    let distance_cold_ns = time(cold, &|u, v| oracle.distance(u, v));
    let lower_bound_ns = time(bounded, &|u, v| oracle.lower_bound(u, v));
    OracleProbe {
        distance_cold_ns,
        lower_bound_ns,
        customize_ns,
    }
}

fn journal_facts(service: &RideService, dir: &Path) -> JournalFacts {
    let ops = service.journal_next_seq().unwrap_or(0);
    // Snapshots prune older segments, so bytes per operation come from the
    // write-ahead files and the operations still in them.
    let wal_bytes = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| !e.file_name().to_string_lossy().starts_with("snapshot"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let (wal_ops, tail_ops) = Journal::open(dir, JournalConfig::default().with_sync_interval_ms(0))
        .map(|(recovered, _)| {
            let watermark = recovered.snapshot.as_ref().map_or(0, |(w, _)| *w);
            // Operations after the last snapshot are the ones recovery replays.
            let tail = recovered
                .ops
                .iter()
                .filter(|(s, _)| *s >= watermark)
                .count();
            (recovered.ops.len() as u64, tail as u64)
        })
        .unwrap_or((0, 0));
    JournalFacts {
        ops,
        wal_bytes,
        wal_ops,
        tail_ops,
    }
}

/// The closed loop of one round.
struct Replay<'a> {
    spec: &'a Spec,
    stack: &'a mut Stack,
    pass: &'a mut Pass,
    checker: &'a mut Checker,
    epoch_times: &'a mut Vec<f64>,
    /// The wire workload's journal directory, its crash images so far, the
    /// sequence number its last snapshot covers (as far as the benchmark
    /// has seen) and whether this snapshot cycle has its image.
    journal_dir: &'a Path,
    images: Vec<CrashImage>,
    wal_len: u64,
    cycle_start: u64,
    imaged: bool,
    motion_rng: ChaCha8Rng,
    rider_rng: ChaCha8Rng,
    /// The benchmark's own `dist(s, d)` at admission, per request.
    own_direct: HashMap<u64, f64>,
    /// Check and measurement time, excluded from the timed phase.
    aside_ns: u64,
    step_span: u32,
    /// The last trace id handed to a traced call.
    next_trace: u64,
    max_pickup_dist: f64,
    speed: f64,
}

impl<'a> Replay<'a> {
    fn new(
        spec: &'a Spec,
        seed: u64,
        stack: &'a mut Stack,
        pass: &'a mut Pass,
        checker: &'a mut Checker,
        epoch_times: &'a mut Vec<f64>,
        journal_dir: &'a Path,
    ) -> Self {
        let config = engine_config(spec);
        Replay {
            spec,
            stack,
            pass,
            checker,
            epoch_times,
            journal_dir,
            images: Vec::new(),
            wal_len: 0,
            cycle_start: 0,
            imaged: false,
            motion_rng: ChaCha8Rng::seed_from_u64(seed ^ 0x30710),
            rider_rng: ChaCha8Rng::seed_from_u64(seed ^ 0x21DE5),
            own_direct: HashMap::new(),
            aside_ns: 0,
            step_span: 0,
            next_trace: 0,
            max_pickup_dist: config.max_pickup_dist,
            speed: config.speed.mps(),
        }
    }

    /// Runs `f` off the clock: its time counts toward no metric.
    fn aside<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let started = Instant::now();
        let r = f(self);
        self.aside_ns += started.elapsed().as_nanos() as u64;
        r
    }

    fn run(mut self) -> Vec<CrashImage> {
        let events_before = self.stack.service.events_published();
        let evictions_before = self.stack.service.oracle().evictions();
        let end = START_SECS + self.spec.window_secs;
        let mut clock = START_SECS;
        let mut next_epoch = START_SECS + MINUTE;
        let mut next_sample = START_SECS;
        let mut next_trip = 0;
        let started = Instant::now();
        while clock < end - 1e-9 {
            let step_start = Instant::now();
            self.step_span = self.pass.spans.open("step", step_start);
            if clock >= next_sample - 1e-9 {
                self.aside(|r| r.sample_fleet());
                next_sample += MINUTE;
            }
            if self.stack.traffic.is_some() && clock >= next_epoch - 1e-9 {
                self.traffic_epoch(clock);
                next_epoch += MINUTE;
            }
            let step_end = clock + DT_SECS;
            while next_trip < self.stack.trips.len()
                && self.stack.trips[next_trip].time_secs < step_end
            {
                let trip = self.stack.trips[next_trip];
                next_trip += 1;
                self.submit_trip(&trip);
            }
            for i in 0..self.stack.fleet.len() {
                self.move_vehicle(i);
            }
            clock = step_end;
            self.tick(clock);
            if self.spec.wire {
                self.aside(|r| r.crash_image());
            }
            let step_ns = step_start.elapsed().as_nanos() as u64;
            self.pass.spans.close(self.step_span, step_ns);
        }
        let total = started.elapsed().as_nanos() as u64;
        self.pass.timed_ns += total.saturating_sub(self.aside_ns);
        self.pass.events += self.stack.service.events_published() - events_before;
        self.pass.evictions += self.stack.service.oracle().evictions() - evictions_before;
        self.images
    }

    /// Between two steps no request is in flight. A snapshot (taken by a
    /// `tick` when due) rotates the active `wal.bin` into a short fresh
    /// one; the first step end at which `IMAGE_TAIL` operations follow it
    /// copies the journal directory, after a sync, as a crash image.
    fn crash_image(&mut self) {
        let service = &self.stack.service;
        let next = service.journal_next_seq().unwrap_or(0);
        let wal_len = std::fs::metadata(self.journal_dir.join("wal.bin")).map_or(0, |m| m.len());
        if wal_len < self.wal_len {
            self.cycle_start = next;
            self.imaged = false;
        }
        self.wal_len = wal_len;
        if self.imaged || next - self.cycle_start < IMAGE_TAIL {
            return;
        }
        self.imaged = true;
        self.checker
            .expect(service.sync_journal(), || "journal sync failed".into());
        let dir = PathBuf::from(format!(
            "{}-image{}",
            self.journal_dir.display(),
            self.images.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("image directory is writable");
        for entry in std::fs::read_dir(self.journal_dir).expect("journal directory is readable") {
            let entry = entry.expect("journal directory is readable");
            std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("journal file copies");
        }
        let fingerprint = service.fingerprint();
        self.images.push(CrashImage { dir, fingerprint });
    }

    /// Times one program call and records its span. In the traced pass a
    /// call that can carry a trace context gets a trace id of the
    /// benchmark's (`traced`), and the program spans recorded under it are
    /// summed per stage: the call's own layer breakdown.
    fn call<R>(
        &mut self,
        name: &'static str,
        traced: bool,
        f: impl FnOnce(&mut Self, Option<TraceContext>) -> R,
    ) -> (R, u64, Option<StageNs>) {
        let ctx = (self.pass.traced && traced)
            .then(|| {
                self.next_trace += 1;
                self.stack
                    .service
                    .telemetry()
                    .adopt_trace(self.next_trace, 0)
            })
            .flatten();
        let started = Instant::now();
        let r = f(self, ctx);
        let ns = started.elapsed().as_nanos() as u64;
        self.pass.call_ns += ns;
        self.pass.spans.record(name, self.step_span, started, ns);
        let stages = ctx.map(|ctx| self.aside(|r| r.attribute(name, ctx.trace_id, ns)));
        (r, ns, stages)
    }

    /// Sums the program's spans of one traced call per stage.
    fn attribute(&mut self, name: &'static str, trace_id: u64, call_ns: u64) -> StageNs {
        let mut stage_ns = [0; Stage::ALL.len()];
        let tree = self.stack.service.telemetry().trace_tree(trace_id);
        let b = self.pass.call_stages.entry(name).or_default();
        match tree {
            Some(tree) if !tree.truncated => {
                for e in &tree.spans {
                    stage_ns[stage_index(e.stage)] += e.duration_ns;
                }
                b.calls += 1;
                b.call_ns += call_ns;
                for (sum, ns) in b.stage_ns.iter_mut().zip(stage_ns) {
                    *sum += ns;
                }
            }
            _ => b.unjoined += 1,
        }
        stage_ns
    }

    /// One HTTP request on the keep-alive connection; non-2xx and
    /// transport errors are failures.
    fn post(
        &mut self,
        path: &str,
        body: &str,
        ctx: Option<TraceContext>,
    ) -> Result<String, String> {
        let client = self.stack.client.as_mut().expect("wire workload");
        self.pass.http.attempted += 1;
        match client.post(path, body, ctx.map(|c| c.trace_id)) {
            Ok(status) if (200..300).contains(&status) => Ok(std::mem::take(&mut client.body)),
            Ok(status) => {
                self.pass.http.failed += 1;
                Err(format!("HTTP {status}: {}", client.body))
            }
            Err(e) => {
                self.pass.http.failed += 1;
                Err(e.to_string())
            }
        }
    }

    fn fail(&mut self, op: Op, what: String) {
        self.pass.count_mut(op).failed += 1;
        self.checker.first.push(format!("{op:?} failed: {what}"));
        self.checker.first.truncate(10);
    }

    fn traffic_epoch(&mut self, now: f64) {
        let (profile, model) = self.stack.traffic.as_mut().expect("traffic workload");
        profile.update_model(&self.stack.net, now, model);
        self.pass.count_mut(Op::Traffic).attempted += 1;
        let (_, ns, _) = self.call("service.apply_traffic_update", false, |r, _| {
            let (_, model) = r.stack.traffic.as_ref().expect("traffic workload");
            r.stack.service.apply_traffic_update(model, now)
        });
        self.pass.traffic_ns.push(ns);
        self.epoch_times.push(now);
    }

    fn submit_trip(&mut self, trip: &TimedTrip) {
        let now = trip.time_secs;
        let before = self.aside(|r| (r.stack.service.stats(), oracle_counts(&r.stack.service)));
        self.pass.count_mut(Op::Submit).attempted += 1;
        let wire = self.stack.client.is_some();
        let (offer, ns, delta) = if wire {
            let body = format!(
                "{{\"origin\":{},\"destination\":{},\"riders\":{},\"now\":{now}}}",
                trip.origin.0, trip.destination.0, trip.riders
            );
            let (r, ns, d) = self.call("http.rides", true, |r, ctx| r.post("/rides", &body, ctx));
            (r.map(Offered::Wire), ns, d)
        } else {
            let (offer, ns, delta) = self.call("service.submit", true, |r, ctx| {
                r.stack
                    .service
                    .submit_in(trip.origin, trip.destination, trip.riders, now, ctx)
            });
            let offer = offer.map(|o| Offered::Local(o.session.0, o.request.0, options_of(&o)));
            (offer.map_err(|e| e.to_string()), ns, delta)
        };
        let offer = match offer {
            Ok(offer) => offer,
            Err(e) => return self.fail(Op::Submit, e),
        };
        self.pass.offer_ns.push(ns);
        let parsed = self.aside(|r| {
            let after = (r.stack.service.stats(), oracle_counts(&r.stack.service));
            let match_ns = ((after.0.total_match_secs - before.0.total_match_secs) * 1e9) as u64;
            r.pass.match_ns.push(match_ns);
            if let Some(delta) = delta {
                let submit = delta[stage_index(Stage::ServiceSubmit)];
                r.pass
                    .submit_unattributed_ns
                    .push(submit.saturating_sub(match_ns));
                let name = if wire { "http.rides" } else { "service.submit" };
                r.pass.call_stages.entry(name).or_default().match_ns += match_ns;
            }
            let (a, b) = (after.0.match_work, before.0.match_work);
            let w = &mut r.pass.work;
            w.requests += 1;
            w.considered += a.vehicles_considered - b.vehicles_considered;
            w.pruned += a.vehicles_pruned - b.vehicles_pruned;
            w.verified += a.vehicles_verified - b.vehicles_verified;
            w.cells += a.cells_visited - b.cells_visited;
            w.candidates += a.candidates_generated - b.candidates_generated;
            w.options += after.0.options_returned - before.0.options_returned;
            w.exact += after.1 .0 - before.1 .0;
            w.lower_bounds += after.1 .1 - before.1 .1;
            w.cache_hits += after.1 .2 - before.1 .2;
            let parsed = match offer {
                Offered::Local(session, request, options) => Some((session, request, options)),
                Offered::Wire(body) => parse_offer(&body),
            };
            if let Some((_, request, options)) = &parsed {
                let metric = r.stack.service.oracle().metric_network();
                let direct = dijkstra(&metric, trip.origin, trip.destination);
                r.own_direct.insert(*request, direct);
                r.checker
                    .offer(options, trip.riders, direct, r.max_pickup_dist);
            } else {
                r.checker.expect(false, || "unparseable offer".into());
            }
            parsed
        });
        let Some((session, _, options)) = parsed else {
            return;
        };
        let choice = self.choose(&options);
        self.respond(session, choice, &options, now);
        self.pass.sessions += 1;
    }

    /// The rider's rule: price-first takes the cheapest option (earliest
    /// among equals), time-first takes option 0.
    fn choose(&mut self, options: &[OptionView]) -> Option<usize> {
        if options.is_empty() {
            return None;
        }
        let price_first = match self.spec.riders {
            Riders::PriceFirst => true,
            Riders::TimeFirst => false,
            Riders::Mixed => self.rider_rng.gen::<bool>(),
        };
        if !price_first {
            return Some(0);
        }
        (0..options.len()).min_by(|&a, &b| {
            let (a, b) = (&options[a], &options[b]);
            a.price
                .total_cmp(&b.price)
                .then(a.pickup_dist.total_cmp(&b.pickup_dist))
        })
    }

    fn respond(&mut self, session: u64, choice: Option<usize>, options: &[OptionView], now: f64) {
        self.pass.count_mut(Op::Respond).attempted += 1;
        let wire = self.stack.client.is_some();
        let (result, ns, _) = if wire {
            let body = match choice {
                Some(k) => format!("{{\"decision\":\"choose\",\"option\":{k},\"now\":{now}}}"),
                None => format!("{{\"decision\":\"decline\",\"now\":{now}}}"),
            };
            let path = format!("/sessions/{session}/respond");
            let (r, ns, d) = self.call("http.respond", true, |r, ctx| r.post(&path, &body, ctx));
            let vehicle = r
                .map(|body| wire::num(&body, "vehicle").map(|v| v as u32))
                .map_err(|e| (e.starts_with("HTTP 409"), e));
            (vehicle, ns, d)
        } else {
            let decision = match choice {
                Some(k) => Decision::Choose(OptionId(k as u32)),
                None => Decision::Decline,
            };
            let (r, ns, d) = self.call("service.respond", true, |r, ctx| {
                r.stack
                    .service
                    .respond_in(ptrider_core::SessionId(session), decision, now, ctx)
            });
            let vehicle = r.map(|c| c.map(|c| c.option.vehicle.0)).map_err(|e| {
                let assignment =
                    matches!(e, ServiceError::Engine(EngineError::AssignmentFailed(..)));
                (assignment, e.to_string())
            });
            (vehicle, ns, d)
        };
        match result {
            Ok(vehicle) => {
                if let Some(k) = choice {
                    self.pass.confirm_ns.push(ns);
                    self.aside(|r| {
                        r.checker.expect(vehicle == Some(options[k].vehicle), || {
                            format!("confirmed {vehicle:?}, chose {}", options[k].vehicle)
                        })
                    });
                }
            }
            Err((assignment, e)) => {
                self.pass.assignment_failed += u64::from(assignment);
                self.fail(Op::Respond, e);
            }
        }
    }

    fn move_vehicle(&mut self, i: usize) {
        let id = self.stack.fleet[i].0;
        let mut budget = self.speed * DT_SECS;
        for _ in 0..10_000 {
            if budget <= 1e-9 {
                break;
            }
            let (location, next) = self
                .stack
                .service
                .with_vehicle(id, |v| (v.location(), v.next_stop()))
                .expect("registered vehicle");
            let motion = &mut self.stack.fleet[i].1;
            match next {
                Some(stop) if stop.location == location => {
                    motion.clear();
                    if !self.serve_stop(id, stop) {
                        break;
                    }
                    continue;
                }
                Some(stop) => motion.route_to(&self.stack.net, location, stop.location),
                None => {
                    if motion.is_idle() {
                        motion.roam(&self.stack.net, location, &mut self.motion_rng);
                    }
                    if motion.is_idle() {
                        break;
                    }
                }
            }
            let (crossings, leftover) = self.stack.fleet[i].1.advance(budget);
            let consumed = budget - leftover;
            for c in &crossings {
                self.location(id, c.vertex, c.travelled);
            }
            budget = leftover;
            if crossings.is_empty() && consumed <= 1e-9 {
                break;
            }
        }
    }

    fn location(&mut self, id: VehicleId, vertex: VertexId, travelled: f64) {
        self.pass.count_mut(Op::Location).attempted += 1;
        let (result, ns, delta) = if self.stack.client.is_some() {
            let path = format!("/vehicles/{}/location", id.0);
            let body = format!("{{\"location\":{},\"travelled\":{travelled}}}", vertex.0);
            let (r, ns, d) = self.call("http.location", true, |r, ctx| r.post(&path, &body, ctx));
            (r.map(|_| ()), ns, d)
        } else {
            let (r, ns, d) = self.call("service.location_update", false, |r, _| {
                r.stack.service.location_update(id, vertex, travelled)
            });
            (r.map_err(|e| e.to_string()), ns, d)
        };
        self.pass.location_ns.push(ns);
        if let Some(d) = delta.filter(|_| self.stack.client.is_some()) {
            let handle = d[stage_index(Stage::ServerHandle)];
            self.pass.handle_location_ns.push(handle);
            self.pass
                .rtt_minus_handle_ns
                .push(ns.saturating_sub(handle));
        }
        if let Err(e) = result {
            self.fail(Op::Location, e);
        }
    }

    /// Serves the stop the vehicle stands at, checking `w`, `δ` and
    /// capacity around it. Returns `false` when the call failed.
    fn serve_stop(&mut self, id: VehicleId, stop: Stop) -> bool {
        let pre = self.aside(|r| {
            r.stack
                .service
                .with_vehicle(id, |v| (v.odometer(), v.request(stop.request).cloned()))
        });
        self.pass.count_mut(Op::Arrived).attempted += 1;
        let (result, ns, delta) = if self.stack.client.is_some() {
            let path = format!("/vehicles/{}/arrived", id.0);
            let (r, ns, d) = self.call("http.arrived", true, |r, ctx| r.post(&path, "", ctx));
            let arrival = r.map(|body| {
                if body.contains("\"picked_up\"") {
                    Arrival::PickedUp
                } else if body.contains("\"dropped_off\"") {
                    Arrival::DroppedOff(wire::num(&body, "onboard_distance").unwrap_or(f64::NAN))
                } else {
                    Arrival::Nothing
                }
            });
            (arrival, ns, d)
        } else {
            let (r, ns, d) = self.call("service.vehicle_arrived", false, |r, _| {
                r.stack.service.vehicle_arrived(id)
            });
            let arrival = r
                .map(|e| match e {
                    Some(StopEvent::PickedUp { .. }) => Arrival::PickedUp,
                    Some(StopEvent::DroppedOff {
                        onboard_distance, ..
                    }) => Arrival::DroppedOff(onboard_distance),
                    None => Arrival::Nothing,
                })
                .map_err(|e| e.to_string());
            (arrival, ns, d)
        };
        self.pass.arrived_ns.push(ns);
        if let Some(d) = delta.filter(|_| self.stack.client.is_some()) {
            self.pass
                .handle_arrived_ns
                .push(d[stage_index(Stage::ServerHandle)]);
        }
        let arrival = match result {
            Ok(a) => a,
            Err(e) => {
                self.fail(Op::Arrived, e);
                return false;
            }
        };
        self.aside(|r| {
            let Some((odometer, Some(request))) = pre else {
                r.checker.expect(false, || {
                    format!("stop of unknown request {}", stop.request)
                });
                return;
            };
            match (stop.kind, arrival) {
                (StopKind::Pickup, Arrival::PickedUp) => {
                    r.checker.pickup(odometer, request.pickup_deadline_odometer);
                    let (onboard, capacity) = r
                        .stack
                        .service
                        .with_vehicle(id, |v| (v.onboard_riders(), v.capacity()))
                        .expect("registered vehicle");
                    r.checker.capacity(onboard, capacity);
                }
                (StopKind::Dropoff, Arrival::DroppedOff(onboard)) => {
                    let own = r.own_direct.remove(&request.id.0).unwrap_or(f64::NAN);
                    r.checker
                        .dropoff(onboard, request.max_onboard_dist, request.direct_dist, own);
                }
                (kind, _) => r
                    .checker
                    .expect(false, || format!("{kind:?} stop served as something else")),
            }
        });
        true
    }

    fn tick(&mut self, now: f64) {
        self.pass.count_mut(Op::Tick).attempted += 1;
        let result = if self.stack.client.is_some() {
            let body = format!("{{\"now\":{now}}}");
            let (r, ns, _) = self.call("http.tick", true, |r, ctx| r.post("/tick", &body, ctx));
            self.pass.tick_ns.push(ns);
            r.map(|_| ())
        } else {
            let (_, ns, _) = self.call("service.tick", true, |r, ctx| {
                r.stack.service.tick_in(now, ctx)
            });
            self.pass.tick_ns.push(ns);
            Ok(())
        };
        if let Err(e) = result {
            self.fail(Op::Tick, e);
        }
    }

    /// Fleet means for the kinetic and index layers, and a capacity check
    /// over every vehicle.
    fn sample_fleet(&mut self) {
        let (nodes, stops, onboard, vehicles, over) = self.stack.service.with_vehicles(|it| {
            let mut acc = (0u64, 0u64, 0u64, 0u64, 0u64);
            for v in it {
                acc.0 += v.kinetic_tree().size() as u64;
                acc.1 += v.current_schedule().len() as u64;
                acc.2 += v.onboard_riders() as u64;
                acc.3 += 1;
                acc.4 += u64::from(v.onboard_riders() > v.capacity());
            }
            acc
        });
        self.checker
            .expect(over == 0, || format!("{over} vehicles over capacity"));
        let f = &mut self.pass.fleet;
        f.0 += nodes;
        f.1 += stops;
        f.2 += onboard;
        f.3 += vehicles;
    }
}

/// (exact computations, lower-bound queries, cache hits) of the oracle.
fn oracle_counts(service: &RideService) -> (u64, u64, u64) {
    let o = service.oracle();
    (
        o.exact_computations(),
        o.lower_bound_queries(),
        o.cache_hits(),
    )
}

/// An offer as it reaches the dispatcher.
enum Offered {
    Local(u64, u64, Vec<OptionView>),
    Wire(String),
}

fn options_of(offer: &ptrider_core::Offer) -> Vec<OptionView> {
    offer
        .options
        .iter()
        .map(|o| OptionView {
            vehicle: o.vehicle.0,
            pickup_dist: o.pickup_dist,
            price: o.price,
            detour_dist: o.detour_dist(),
        })
        .collect()
}

fn parse_offer(body: &str) -> Option<(u64, u64, Vec<OptionView>)> {
    Some((
        wire::num(body, "session")? as u64,
        wire::num(body, "request")? as u64,
        wire::offer_options(body)?,
    ))
}
