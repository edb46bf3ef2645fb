//! Proof of the tentpole contract: a warm five-stage implant pipeline
//! (sense → spike → bin → decode → packetize) streams a 1024-channel
//! frame train with **zero** heap allocations per step.
//!
//! A counting wrapper around the system allocator tracks every
//! allocation; the workspace denies `unsafe_code` — only this test
//! harness opts out to install the instrumented allocator.
//!
//! The counter is process-global on purpose: the multi-worker fleet
//! proof must see the scheduler's helper threads. So nothing else in
//! the process may allocate while a proof measures, and this file runs
//! without libtest (`harness = false` in `Cargo.toml`): [`main`] runs
//! the proofs one after another on the main thread. Under libtest, the
//! harness's own thread spawns and its "has been running for over 60
//! seconds" notices allocated inside the long scalar-kernel
//! measurements of a `MINDFUL_SIMD=0` run. [`main`] accepts libtest's
//! name filters, `--exact`, `--skip`, `--list` and `--quiet`, and
//! reports in libtest's format.

// SAFETY: the sole unsafe construct in this file is the `GlobalAlloc`
// impl below, which delegates straight to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mindful_decode::binning::BinAccumulator;
use mindful_decode::kalman::KalmanDecoder;
use mindful_decode::spike::SpikeDetector;
use mindful_dnn::infer::Network;
use mindful_dnn::models::ModelFamily;
use mindful_pipeline::prelude::*;
use mindful_signal::prelude::NeuralInterface;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const WINDOW: usize = 4;

/// Calibrates a detector and Kalman decoder from a recorded trajectory,
/// exactly as the glue sites do.
fn calibrate(ni: &mut NeuralInterface) -> (SpikeDetector, KalmanDecoder) {
    let frames = ni.record_trajectory(160).unwrap();
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&rows[..64], 2.5, 3).unwrap();
    let events: Vec<Vec<bool>> = rows.iter().map(|r| detector.step(r).unwrap()).collect();
    let bins = BinAccumulator::new(ni.channels(), WINDOW)
        .unwrap()
        .bin_all(&events)
        .unwrap();
    let bin_rows: Vec<Vec<f64>> = bins
        .iter()
        .map(|b| b.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let bin_intents: Vec<(f64, f64)> = (0..bins.len())
        .map(|k| {
            let i = frames[(k + 1) * WINDOW - 1].intent;
            (i.x, i.y)
        })
        .collect();
    let kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).unwrap();
    (detector, kalman)
}

/// The acceptance chain: a 1024-channel sensing front end feeding
/// spike detection, binning, Kalman decode, and RF packetization —
/// allocation-free once every buffer has seen one full window.
fn warm_five_stage_chain_is_allocation_free() {
    let mut ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    assert_eq!(ni.channels(), 1024);
    let (detector, kalman) = calibrate(&mut ni);
    let channels = ni.channels();

    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(channels, WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman))
        .with_stage(PacketizeStage::new(10).unwrap());

    // Warm-up: two full bin windows so every stage (including the
    // window-gated decode tail) has sized its buffers.
    let mut warm_emitted = 0;
    for _ in 0..2 * WINDOW {
        if pipeline.step().unwrap().is_some() {
            warm_emitted += 1;
        }
    }
    assert_eq!(warm_emitted, 2, "decode tail emits once per window");

    let mut emitted = 0;
    let allocs = allocations_during(|| {
        for _ in 0..32 {
            if pipeline.step().unwrap().is_some() {
                emitted += 1;
            }
        }
    });
    assert_eq!(emitted, 32 / WINDOW);
    assert_eq!(
        allocs, 0,
        "a warm sense→spike→bin→decode→packetize chain must not allocate"
    );

    // `telemetry()` clones — allowed to allocate, checked outside the
    // measured region.
    let t = pipeline.telemetry();
    assert_eq!(t[0].frames_in, (2 * WINDOW + 32) as u64);
    assert!(t[4].bytes_out > 0);
}

/// The observability contract of this PR: the same five-stage chain
/// with full registry instrumentation — per-stage frame counters,
/// latency histograms, buffer gauges — still streams with **zero**
/// allocations per warm step. Registration allocates up front;
/// recording must not.
fn warm_instrumented_five_stage_chain_is_allocation_free() {
    let registry = mindful_core::obs::Registry::new();
    let mut ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    assert_eq!(ni.channels(), 1024);
    let (detector, kalman) = calibrate(&mut ni);
    let channels = ni.channels();

    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(channels, WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman))
        .with_stage(PacketizeStage::new(10).unwrap())
        .with_instrumentation(&registry, "pipe");

    // Warm-up also initializes the observability thread-locals (shard
    // selection, span clock) so the measured region starts truly warm.
    for _ in 0..2 * WINDOW {
        pipeline.step().unwrap();
    }

    let mut emitted = 0;
    let allocs = allocations_during(|| {
        for _ in 0..32 {
            if pipeline.step().unwrap().is_some() {
                emitted += 1;
            }
        }
    });
    assert_eq!(emitted, 32 / WINDOW);
    assert_eq!(
        allocs, 0,
        "a warm instrumented chain must not allocate: metric recording is atomics only"
    );

    // Scraping allocates by design — outside the measured region — and
    // the scrape must agree with the driver's own telemetry exactly.
    // Without the `obs` feature instrumentation is a no-op and the
    // registry stays empty; the allocation-free property above is the
    // part that holds in every configuration.
    #[cfg(feature = "obs")]
    let snapshot = registry.snapshot();
    #[cfg(feature = "obs")]
    for (i, t) in pipeline.telemetry().iter().enumerate() {
        let base = format!("pipe.{i}.{}", t.name);
        assert_eq!(
            snapshot.counter(&format!("{base}.frames_in")),
            Some(t.frames_in),
            "{base}"
        );
        assert_eq!(
            snapshot.counter(&format!("{base}.frames_out")),
            Some(t.frames_out),
            "{base}"
        );
        assert_eq!(
            snapshot.counter(&format!("{base}.bytes_out")),
            Some(t.bytes_out),
            "{base}"
        );
        assert_eq!(
            snapshot.gauge(&format!("{base}.buffer_bytes")).unwrap().1,
            t.peak_buffer_bytes as u64,
            "{base}: gauge high water tracks the peak buffer"
        );
        assert_eq!(
            snapshot
                .histogram(&format!("{base}.latency_ns"))
                .unwrap()
                .count,
            t.frames_in,
            "{base}: one latency sample per input frame"
        );
    }
}

/// The serving tentpole's memory contract: a warm [`Fleet`] epoch —
/// ready-list scan, phased dispatch, real steps, load shedding into
/// concealment, backpressure rejections, and metric recording — runs
/// with **zero** heap allocations.
///
/// The proof covers the serial path (one worker, everything inline)
/// and the pooled multi-worker paths (2 and 4 workers): the
/// scheduler's helper threads are started once at construction, and
/// handing them a phase — publish, wake, barrier — allocates nothing.
/// A realtime session alongside the two best-effort ones gives every
/// epoch two dispatch phases, so the barrier between them is inside
/// the measured region too.
fn warm_fleet_epoch_is_allocation_free() {
    use std::num::{NonZeroU32, NonZeroUsize};

    for workers in [1, 2, 4] {
        let registry = mindful_core::obs::Registry::new();
        let sched = mindful_core::pool::Scheduler::new(NonZeroUsize::new(workers).unwrap());
        let config = FleetConfig {
            capacity: NonZeroUsize::new(8).unwrap(),
            quantum: NonZeroU32::new(4).unwrap(),
            max_backlog: 16,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::observed(&sched, config, &registry, "zfleet");
        // One plain chain (backlogged under pressure, rejections at the
        // cap), one sheddable chain (gap markers into its concealer
        // every epoch), and one realtime chain in a phase of its own:
        // every warm path sits inside the measured region.
        let plain = fleet
            .admit(SessionSpec::new(
                Pipeline::new()
                    .with_stage(SenseStage::new(2, 16, 10, 3, IntentSchedule::FigureEight).unwrap())
                    .with_stage(PacketizeStage::new(10).unwrap()),
            ))
            .unwrap();
        let shedding = fleet
            .admit(
                SessionSpec::new(
                    Pipeline::new()
                        .with_stage(
                            SenseStage::new(2, 16, 10, 4, IntentSchedule::FigureEight).unwrap(),
                        )
                        .with_stage(ConcealStage::new(4, DegradePolicy::HoldLast).unwrap()),
                )
                .with_shed(1, FrameKind::Codes),
            )
            .unwrap();
        let realtime = fleet
            .admit(
                SessionSpec::new(
                    Pipeline::new()
                        .with_stage(
                            SenseStage::new(2, 16, 10, 5, IntentSchedule::FigureEight).unwrap(),
                        )
                        .with_stage(PacketizeStage::new(10).unwrap()),
                )
                .with_class(PriorityClass::Realtime),
            )
            .unwrap();

        // Warm-up: grow the ready lists, pipeline buffers, and backlog
        // to steady state (the plain session saturates its bound and
        // starts rejecting; the sheddable one sheds every epoch).
        for _ in 0..5 {
            fleet.request(plain, 8).unwrap();
            fleet.request(shedding, 8).unwrap();
            fleet.request(realtime, 4).unwrap();
            fleet.drive_epoch().unwrap();
        }

        let allocs = allocations_during(|| {
            for _ in 0..8 {
                fleet.request(plain, 8).unwrap();
                fleet.request(shedding, 8).unwrap();
                fleet.request(realtime, 4).unwrap();
                fleet.drive_epoch().unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "a warm fleet epoch on {workers} workers must not allocate: \
             scheduling, pool hand-off, stepping, shedding, and metric \
             recording all reuse warm state"
        );

        // The degraded and rejected paths really ran inside the measured
        // region.
        let shed_report = fleet.evict(shedding).unwrap();
        assert!(shed_report.shed >= 8 * 4, "every measured epoch shed");
        let plain_report = fleet.evict(plain).unwrap();
        assert!(
            plain_report.rejected > 0,
            "backpressure rejected at the cap"
        );
        assert_eq!(
            plain_report.backlog,
            config.max_backlog - config.quantum.get(),
            "steady state: the bound fills each round, one quantum drains"
        );
        assert_eq!(fleet.evict(realtime).unwrap().steps, 13 * 4);
        assert_eq!(sched.stats().epochs, 13, "{workers} workers");
    }
}

/// The secure-link chain of the authenticated-framing PR: sense →
/// packetize → authenticated ARQ link (seal + NH/SipHash MAC verify +
/// replay window) → neural firewall — allocation-free once the link's
/// seal buffer, the MAC pad, and the firewall's baselines are warm.
fn warm_secure_chain_is_allocation_free() {
    use mindful_rf::arq::ArqConfig;
    use mindful_rf::auth::{AuthConfig, AuthKey};

    let ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    let channels = ni.channels();
    let auth = AuthConfig::new(AuthKey::from_seed(0xA110C, 2));
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(PacketizeStage::new(10).unwrap())
        .with_stage(
            LinkStage::with_channel(ArqConfig::selective_repeat(4), None, 1, Some(&auth)).unwrap(),
        )
        .with_stage(FirewallStage::new(channels, FirewallConfig::default()).unwrap());

    // Warm-up long enough to flush the link's playout delay and to
    // finish the firewall's warm-up window, so the measured region is
    // pure steady state.
    let mut warm_emitted = 0;
    for _ in 0..80 {
        if pipeline.step().unwrap().is_some() {
            warm_emitted += 1;
        }
    }
    assert!(warm_emitted > 0, "the link plays out during warm-up");

    let mut emitted = 0;
    let allocs = allocations_during(|| {
        for _ in 0..32 {
            if pipeline.step().unwrap().is_some() {
                emitted += 1;
            }
        }
    });
    assert_eq!(emitted, 32, "steady state plays out every frame");
    assert_eq!(
        allocs, 0,
        "a warm sense→packetize→auth-link→firewall chain must not allocate: \
         sealing, MAC verification, and coherence scoring reuse their buffers"
    );

    // The crypto path really ran: every frame sealed and accepted, and
    // the firewall scored a coherent stream without quarantining.
    let telemetry = pipeline.telemetry();
    let link = telemetry[2].secure.expect("link reports secure telemetry");
    assert!(link.sealed >= (80 + 32) as u64);
    assert_eq!(link.rejected_auth, 0);
    let firewall = telemetry[3]
        .secure
        .expect("firewall reports secure telemetry");
    assert_eq!(firewall.firewalled, 0);
}

/// The computation-centric variant: sensing straight into the embedded
/// DNN, allocation-free after one warm frame.
fn warm_dnn_chain_is_allocation_free() {
    let ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    let channels = ni.channels() as u64;
    let network = Network::with_seeded_weights(ModelFamily::Mlp.architecture(channels).unwrap(), 7);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(DnnStage::new(network, 10).unwrap());

    for _ in 0..2 {
        pipeline.step().unwrap().expect("dnn emits every frame");
    }
    let allocs = allocations_during(|| {
        for _ in 0..32 {
            pipeline.step().unwrap().expect("dnn emits every frame");
        }
    });
    assert_eq!(allocs, 0, "a warm sense→dnn chain must not allocate");
}

/// The quantized twin: the int8 datapath reuses the same workspace
/// arenas (i8 ping-pong + i32 accumulators grown once at
/// construction), so a warm Int8 chain is just as allocation-free.
fn warm_int8_dnn_chain_is_allocation_free() {
    let ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    let channels = ni.channels() as u64;
    let network = Network::with_seeded_weights(ModelFamily::Mlp.architecture(channels).unwrap(), 7);
    let stage = DnnStage::with_precision(
        std::sync::Arc::new(network),
        10,
        mindful_pipeline::Precision::Int8,
    )
    .unwrap();
    assert_eq!(stage.precision(), mindful_pipeline::Precision::Int8);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(stage);

    for _ in 0..2 {
        pipeline.step().unwrap().expect("dnn emits every frame");
    }
    let allocs = allocations_during(|| {
        for _ in 0..32 {
            pipeline.step().unwrap().expect("dnn emits every frame");
        }
    });
    assert_eq!(allocs, 0, "a warm int8 sense→dnn chain must not allocate");
}

/// The instrumented computation-centric chain: per-stage metrics *and*
/// the inference engine's per-layer span tracing (ring-buffer writes on
/// this thread) — still allocation-free per warm step.
fn warm_instrumented_dnn_chain_is_allocation_free() {
    let registry = mindful_core::obs::Registry::new();
    let ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    let channels = ni.channels() as u64;
    let network = Network::with_seeded_weights(ModelFamily::Mlp.architecture(channels).unwrap(), 7);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(DnnStage::new(network, 10).unwrap())
        .with_instrumentation(&registry, "dnnchain");

    for _ in 0..2 {
        pipeline.step().unwrap().expect("dnn emits every frame");
    }
    mindful_core::obs::clear_spans();
    let allocs = allocations_during(|| {
        for _ in 0..32 {
            pipeline.step().unwrap().expect("dnn emits every frame");
        }
    });
    assert_eq!(
        allocs, 0,
        "a warm instrumented sense→dnn chain must not allocate, span tracing included"
    );

    #[cfg(feature = "obs")]
    assert_eq!(
        registry.snapshot().counter("dnnchain.1.dnn.frames_in"),
        Some(2 + 32)
    );
    if mindful_core::obs::spans_enabled() {
        let mut spans = Vec::new();
        let overwritten = mindful_core::obs::drain_spans(&mut spans);
        assert!(
            spans.len() as u64 + overwritten > 0,
            "per-layer spans were recorded during the measured steps"
        );
        assert!(spans.iter().all(|s| s.name.starts_with("dnn.")));
    }
}

/// Every proof, in the order [`main`] runs them.
const PROOFS: [(&str, fn()); 7] = [
    (
        "warm_five_stage_chain_is_allocation_free",
        warm_five_stage_chain_is_allocation_free,
    ),
    (
        "warm_instrumented_five_stage_chain_is_allocation_free",
        warm_instrumented_five_stage_chain_is_allocation_free,
    ),
    (
        "warm_fleet_epoch_is_allocation_free",
        warm_fleet_epoch_is_allocation_free,
    ),
    (
        "warm_secure_chain_is_allocation_free",
        warm_secure_chain_is_allocation_free,
    ),
    (
        "warm_dnn_chain_is_allocation_free",
        warm_dnn_chain_is_allocation_free,
    ),
    (
        "warm_int8_dnn_chain_is_allocation_free",
        warm_int8_dnn_chain_is_allocation_free,
    ),
    (
        "warm_instrumented_dnn_chain_is_allocation_free",
        warm_instrumented_dnn_chain_is_allocation_free,
    ),
];

/// libtest's command-line subset: which proofs to run, and how to
/// report them.
#[derive(Default)]
struct Args {
    filters: Vec<String>,
    skip: Vec<String>,
    exact: bool,
    list: bool,
    quiet: bool,
    /// `--ignored`: this file has no ignored proofs, so run none.
    ignored_only: bool,
}

impl Args {
    fn parse() -> Self {
        let mut args = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) if arg.starts_with("--") => (flag.to_owned(), Some(value)),
                _ => (arg.clone(), None),
            };
            match flag.as_str() {
                "--exact" => args.exact = true,
                "--list" => args.list = true,
                "-q" | "--quiet" => args.quiet = true,
                "--ignored" => args.ignored_only = true,
                "--skip" => args
                    .skip
                    .extend(inline.map(str::to_owned).or_else(|| it.next())),
                // Value-taking libtest options this harness ignores.
                "--test-threads" | "--logfile" | "--color" | "--format" | "-Z"
                | "--shuffle-seed" => {
                    if inline.is_none() {
                        it.next();
                    }
                }
                _ if arg.starts_with('-') => {}
                _ => args.filters.push(arg),
            }
        }
        args
    }

    fn selects(&self, name: &str) -> bool {
        let hit = |pattern: &String| {
            if self.exact {
                name == pattern
            } else {
                name.contains(pattern.as_str())
            }
        };
        !self.ignored_only
            && (self.filters.is_empty() || self.filters.iter().any(hit))
            && !self.skip.iter().any(hit)
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    let selected: Vec<(&str, fn())> = PROOFS
        .into_iter()
        .filter(|(name, _)| args.selects(name))
        .collect();
    if args.list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        if !args.quiet {
            println!(
                "\n{} test{}, 0 benchmarks",
                selected.len(),
                plural(selected.len())
            );
        }
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    println!(
        "\nrunning {} test{}",
        selected.len(),
        plural(selected.len())
    );
    let mut failed = Vec::new();
    for (name, proof) in &selected {
        if !args.quiet {
            print!("test {name} ... ");
            std::io::stdout().flush().expect("stdout flushes");
        }
        let outcome = catch_unwind(AssertUnwindSafe(proof));
        if outcome.is_err() {
            failed.push(*name);
        }
        let verdict = match (args.quiet, outcome.is_ok()) {
            (true, true) => ".",
            (true, false) => "F",
            (false, true) => "ok\n",
            (false, false) => "FAILED\n",
        };
        print!("{verdict}");
    }
    if args.quiet {
        println!();
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        PROOFS.len() - selected.len(),
        start.elapsed().as_secs_f64(),
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
