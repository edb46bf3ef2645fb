//! The three workloads: their inputs, their fleets, and the loops that
//! drive them.

use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::Arc;

use mindful_core::obs::Registry;
use mindful_core::pool::Scheduler;
use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS, CNN_WINDOW};
use mindful_pipeline::{
    ConcealStage, DegradePolicy, DnnStage, FirewallConfig, FirewallStage, Fleet, FleetConfig,
    Frame, FrameBuf, FrameKind, LinkStage, PacketizeStage, Pipeline, PriorityClass, ReplaySource,
    SessionId, SessionReport, SessionSpec, Stage, StageOutput,
};
use mindful_rf::arq::ArqConfig;
use mindful_rf::auth::{AuthConfig, AuthKey};
use mindful_rf::fault::{FaultConfig, FaultPlan, WireFaultInjector};
use mindful_signal::interface::NeuralInterface;

use crate::trace::{self, now_ns, Check, Sink, Span, Traced};

pub type Res<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The paper's application period: one decoder output per 2 kHz sample.
const PERIOD_NS: u64 = 500_000;
const SAMPLE_BITS: u8 = 10;
const TELEMETRY_CHANNELS: usize = 1024;
const TELEMETRY_GRID: usize = 32;
/// Realtime decode input is the first 128 channels of a 12×12 grid.
const DECODE_GRID: usize = 12;
const WIRE_FAULT_RATE: f64 = 0.02;
const ARQ_WINDOW: usize = 16;
const ARQ_RTT: u64 = 2;
const KEY_ID: u8 = 7;
/// Throughput is reported as the median over windows this long.
const WINDOW_NS: u64 = 1_000_000_000;
/// fleet-fine evicts and re-admits one telemetry session this often
/// (wall time, so the churn count of a run does not depend on speed).
const CHURN_NS: u64 = 50_000_000;
/// Telemetry demand per epoch: one step runs (quantum 1), two shed.
const TELEMETRY_DEMAND: u32 = 3;
/// Tape lengths (frames replayed cyclically).
const MLP_TAPE: usize = 64;
const CNN_TAPE: usize = 16;
const CODE_TAPE: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Rt2khz,
    FleetFine,
    CnnBulk,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rt-2khz" => Some(Self::Rt2khz),
            "fleet-fine" => Some(Self::FleetFine),
            "cnn-bulk" => Some(Self::CnnBulk),
            _ => None,
        }
    }

    pub fn open_loop(self) -> bool {
        self == Self::Rt2khz
    }

    /// Scheduler workers: one for the realtime loop, every core for the
    /// closed loops.
    pub fn workers(self, nproc: usize) -> usize {
        if self == Self::Rt2khz {
            1
        } else {
            nproc
        }
    }

    fn quantum(self) -> u32 {
        if self == Self::CnnBulk {
            2
        } else {
            1
        }
    }

    fn warmup_epochs(self) -> usize {
        match self {
            Self::Rt2khz => 32,
            Self::FleetFine => 32,
            Self::CnnBulk => 2,
        }
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A decoder session's replay tape with its expected outputs.
struct DecodeTape {
    frames: Arc<[Vec<f32>]>,
    expected: Arc<[Vec<f32>]>,
}

/// Everything generated from the seed before set-up is timed.
pub struct Inputs {
    workload: Workload,
    seed: u64,
    family: ModelFamily,
    decode: Vec<DecodeTape>,
    codes: Vec<Arc<[Vec<u16>]>>,
}

fn model_seed(seed: u64) -> u64 {
    mix(seed, 1)
}

fn codes_to_unit(code: u16) -> f32 {
    f32::from(code) / f32::from(1u16 << (SAMPLE_BITS - 1)) - 1.0
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Res<Self> {
        let (family, decoders, telemetry) = match workload {
            Workload::Rt2khz => (ModelFamily::Mlp, 2, 0),
            Workload::FleetFine => (ModelFamily::Mlp, 4, 4),
            Workload::CnnBulk => (ModelFamily::DnCnn, 4, 0),
        };
        let reference =
            Network::with_seeded_weights(family.architecture(BASE_CHANNELS)?, model_seed(seed));
        let channels = BASE_CHANNELS as usize;
        let mut decode = Vec::with_capacity(decoders);
        for s in 0..decoders {
            let mut ni =
                NeuralInterface::new(DECODE_GRID, 160, SAMPLE_BITS, mix(seed, 100 + s as u64))?;
            let (inputs, window) = match family {
                ModelFamily::Mlp => (MLP_TAPE, 1),
                ModelFamily::DnCnn => (CNN_TAPE, CNN_WINDOW as usize),
            };
            let recorded = ni.record_trajectory(inputs + window - 1)?;
            let frames: Vec<Vec<f32>> = (0..inputs)
                .map(|i| {
                    recorded[i..i + window]
                        .iter()
                        .flat_map(|f| f.samples[..channels].iter().map(|&c| codes_to_unit(c)))
                        .collect()
                })
                .collect();
            let expected = frames
                .iter()
                .map(|f| reference.forward(f))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            decode.push(DecodeTape {
                frames: frames.into(),
                expected: expected.into(),
            });
        }
        let codes = (0..telemetry)
            .map(|s| -> Res<Arc<[Vec<u16>]>> {
                let mut ni = NeuralInterface::new(
                    TELEMETRY_GRID,
                    256,
                    SAMPLE_BITS,
                    mix(seed, 200 + s as u64),
                )?;
                Ok(ni
                    .record_trajectory(CODE_TAPE)?
                    .into_iter()
                    .map(|f| f.samples)
                    .collect::<Vec<_>>()
                    .into())
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Self {
            workload,
            seed,
            family,
            decode,
            codes,
        })
    }
}

/// Replays pre-recorded digitized code frames: the telemetry source.
struct CodeReplay {
    tape: Arc<[Vec<u16>]>,
    cursor: usize,
}

impl Stage for CodeReplay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn process(
        &mut self,
        _input: &Frame<'_>,
        out: &mut FrameBuf,
    ) -> mindful_pipeline::Result<StageOutput> {
        out.begin_codes().extend_from_slice(&self.tape[self.cursor]);
        self.cursor = (self.cursor + 1) % self.tape.len();
        Ok(StageOutput::Emitted)
    }
}

/// One fleet position: a live session plus the benchmark's own ledger
/// for it. A churned seat keeps its sink for the replacement.
struct Seat {
    id: SessionId,
    sink: Arc<Sink>,
    class: PriorityClass,
    /// Index into the decode or code tapes.
    tape: usize,
    telemetry: bool,
    accepted: u64,
    generation: u64,
}

/// Per-epoch timestamps for the trace analysis.
#[derive(Debug, Clone, Copy)]
pub struct EpochRec {
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub request_ns: f64,
    pub sessions: [usize; PriorityClass::COUNT],
}

/// What one measured pass did.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Process CPU time (every thread) over the pass, less the
    /// generator's wait between ticks.
    pub cpu_s: f64,
    /// Session-steps per second in each one-second window of the pass.
    pub window_rates: Vec<f64>,
    /// Program CPU µs per session-step in each window.
    pub window_cpu: Vec<f64>,
    pub requested: u64,
    pub stepped: u64,
    pub shed: u64,
    /// Steps of the on-time denominator (realtime class, or every step
    /// in a workload without one) and how many met the period.
    pub deadline_requested: u64,
    pub on_time: u64,
    pub lateness_ns: Vec<u64>,
    pub epoch_ns: Vec<u64>,
    pub gen_lag_ns: Vec<u64>,
    pub epochs: Vec<EpochRec>,
}

/// Link-layer totals over every telemetry session, read from the
/// link's own telemetry at eviction.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkTotals {
    pub sent: u64,
    pub played: u64,
    pub lost: u64,
    pub naks: u64,
    pub auth_rejects: u64,
}

/// One measurement window: its wall and program CPU time go to the
/// pass whose mode it ran in.
struct Window {
    start: u64,
    steps: u64,
    cpu: u64,
    /// CPU the generator burned waiting for ticks, left out of the
    /// program's CPU time.
    wait_cpu: u64,
}

impl Window {
    fn open(start: u64) -> Self {
        Self {
            start,
            steps: 0,
            cpu: trace::process_cpu_ns(),
            wait_cpu: 0,
        }
    }

    fn close(self, pass: &mut Pass, end: u64) {
        let wall = end.saturating_sub(self.start);
        if wall == 0 {
            return;
        }
        let cpu = (trace::process_cpu_ns() - self.cpu).saturating_sub(self.wait_cpu);
        pass.wall_s += wall as f64 / 1e9;
        pass.cpu_s += cpu as f64 / 1e9;
        // A short final window says little about the rate.
        if wall >= WINDOW_NS / 2 && self.steps > 0 {
            pass.window_rates
                .push(self.steps as f64 * 1e9 / wall as f64);
            pass.window_cpu.push(cpu as f64 / 1e3 / self.steps as f64);
        }
    }
}

/// A built fleet and the benchmark's ledger of it.
pub struct Rig<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    fleet: Fleet<'a>,
    registry: &'a Registry,
    pub workers: usize,
    network: Arc<Network>,
    seats: Vec<Seat>,
    /// Steps and shed over every epoch this fleet drove (warm-up too),
    /// to reconcile with the registry.
    fleet_steps: u64,
    fleet_shed: u64,
    pub stage_errors: u64,
    pub admit_ns: Vec<u64>,
    pub evict_ns: Vec<u64>,
    /// Spans of evicted sessions, tagged with their seat's class.
    pub retired: Vec<(Span, PriorityClass)>,
    pub link: LinkTotals,
    problems: Vec<String>,
    churns: u64,
}

impl<'a> Rig<'a> {
    /// Set-up proper: builds the network, the fleet and its sessions.
    pub fn build(
        inputs: &'a Inputs,
        scheduler: &'a Scheduler,
        registry: &'a Registry,
    ) -> Res<Self> {
        let workload = inputs.workload;
        let network = Arc::new(Network::with_seeded_weights(
            inputs.family.architecture(BASE_CHANNELS)?,
            model_seed(inputs.seed),
        ));
        let config = FleetConfig {
            capacity: NonZeroUsize::new(16).expect("nonzero"),
            quantum: NonZeroU32::new(workload.quantum()).expect("nonzero"),
            max_backlog: 8,
            ..FleetConfig::default()
        };
        let mut rig = Self {
            workload,
            inputs,
            fleet: Fleet::observed(scheduler, config, registry, "serve"),
            registry,
            workers: scheduler.workers().get(),
            network,
            seats: Vec::new(),
            fleet_steps: 0,
            fleet_shed: 0,
            stage_errors: 0,
            admit_ns: Vec::new(),
            evict_ns: Vec::new(),
            retired: Vec::new(),
            link: LinkTotals::default(),
            problems: Vec::new(),
            churns: 0,
        };
        let class = match workload {
            Workload::CnnBulk => PriorityClass::BestEffort,
            _ => PriorityClass::Realtime,
        };
        for tape in 0..inputs.decode.len() {
            rig.seat(class, tape, false)?;
        }
        for tape in 0..inputs.codes.len() {
            rig.seat(PriorityClass::BestEffort, tape, true)?;
        }
        Ok(rig)
    }

    fn seat(&mut self, class: PriorityClass, tape: usize, telemetry: bool) -> Res<()> {
        let sink = Sink::new();
        let spec = self.spec(class, tape, telemetry, 0, &sink)?;
        let id = self.admit(spec)?;
        self.seats.push(Seat {
            id,
            sink,
            class,
            tape,
            telemetry,
            accepted: 0,
            generation: 0,
        });
        Ok(())
    }

    fn admit(&mut self, spec: SessionSpec) -> Res<SessionId> {
        let t = now_ns();
        let id = self.fleet.admit(spec)?;
        self.admit_ns.push(now_ns() - t);
        Ok(id)
    }

    fn spec(
        &self,
        class: PriorityClass,
        tape: usize,
        telemetry: bool,
        generation: u64,
        sink: &Arc<Sink>,
    ) -> Res<SessionSpec> {
        if telemetry {
            let codes = &self.inputs.codes[tape];
            let seed = mix(self.inputs.seed, 1_000 + 1_000 * tape as u64 + generation);
            let plan = FaultPlan::new(FaultConfig::wire_composite(WIRE_FAULT_RATE), seed)?;
            let auth = AuthConfig::new(AuthKey::from_seed(seed, KEY_ID));
            let link = LinkStage::with_channel(
                ArqConfig::selective_repeat(ARQ_WINDOW),
                Some(WireFaultInjector::new(plan)),
                ARQ_RTT,
                Some(&auth),
            )?;
            let playout = |count_gaps| Check::Playout {
                tape: Arc::clone(codes),
                played: 0,
                count_gaps,
            };
            let source = CodeReplay {
                tape: Arc::clone(codes),
                cursor: 0,
            };
            let pipeline = Pipeline::new()
                .with_stage(Traced::new(source, trace::REPLAY, sink, Check::None))
                .with_stage(Traced::new(
                    PacketizeStage::new(SAMPLE_BITS)?,
                    trace::PACKETIZE,
                    sink,
                    Check::None,
                ))
                .with_stage(Traced::new(link, trace::LINK, sink, playout(false)))
                .with_stage(Traced::new(
                    FirewallStage::new(TELEMETRY_CHANNELS, FirewallConfig::default())?,
                    trace::FIREWALL,
                    sink,
                    playout(true),
                ))
                .with_stage(Traced::new(
                    ConcealStage::new(TELEMETRY_CHANNELS, DegradePolicy::HoldLast)?,
                    trace::CONCEAL,
                    sink,
                    Check::None,
                ));
            return Ok(SessionSpec::new(pipeline)
                .with_class(class)
                .with_shed(4, FrameKind::Codes));
        }
        let decode = &self.inputs.decode[tape];
        let width = decode.frames[0].len();
        let check = Check::Decoder {
            tape: Arc::clone(&decode.frames),
            expected: Arc::clone(&decode.expected),
            next: 0,
        };
        let pipeline = Pipeline::new()
            .with_stage(Traced::new(
                ReplaySource::new(decode.frames.to_vec())?,
                trace::REPLAY,
                sink,
                Check::None,
            ))
            .with_stage(Traced::new(
                ConcealStage::new(width, DegradePolicy::HoldLast)?,
                trace::CONCEAL,
                sink,
                Check::None,
            ))
            .with_stage(Traced::new(
                DnnStage::shared(Arc::clone(&self.network), SAMPLE_BITS)?,
                trace::DNN,
                sink,
                check,
            ));
        let spec = SessionSpec::new(pipeline)
            .with_class(class)
            .with_shed(1, FrameKind::Activations);
        Ok(if class == PriorityClass::Realtime {
            spec.with_deadline_ns(PERIOD_NS)
        } else {
            spec
        })
    }

    fn demand(&self, seat: &Seat) -> u32 {
        if seat.telemetry {
            TELEMETRY_DEMAND
        } else {
            self.workload.quantum()
        }
    }

    /// Queues one epoch's demand on every seat; returns
    /// (requested, requested by deadline-bound seats).
    fn request_all(&mut self) -> Res<(u64, u64)> {
        let mut requested = 0;
        let mut deadline = 0;
        for i in 0..self.seats.len() {
            let want = self.demand(&self.seats[i]);
            let seat = &mut self.seats[i];
            let accepted = self.fleet.request(seat.id, want)?;
            seat.accepted += u64::from(accepted);
            requested += u64::from(want);
            if seat.class == PriorityClass::Realtime {
                deadline += u64::from(want);
            }
        }
        Ok((requested, deadline))
    }

    /// Drives one epoch; a stage error is counted, not fatal (the
    /// session freezes and its steps count as failed).
    fn drive(&mut self) -> mindful_pipeline::EpochReport {
        if self.fleet.drive_epoch().is_err() {
            self.stage_errors += 1;
        }
        let report = *self.fleet.last_epoch();
        self.fleet_steps += report.steps;
        self.fleet_shed += report.shed;
        report
    }

    pub fn warm_up(&mut self) -> Res<()> {
        for _ in 0..self.workload.warmup_epochs() {
            self.request_all()?;
            self.drive();
        }
        Ok(())
    }

    /// Reserves span room in every sink (done before a traced pass, so
    /// set-up never pays for it).
    pub fn reserve_spans(&self, per_seat: usize) {
        for seat in &self.seats {
            seat.sink.reserve(per_seat);
        }
    }

    fn span_room_low(&self) -> bool {
        self.seats.iter().any(|s| s.sink.room() < 256)
    }

    /// Measures for `seconds`. Without `alternate` every window is
    /// untraced; with it, one-second windows alternate untraced and
    /// traced, so both halves see the same host conditions. Returns the
    /// [untraced, traced] passes. Tracing stops the run early when a
    /// span buffer is nearly full.
    pub fn run(&mut self, seconds: f64, alternate: bool) -> Res<[Pass; 2]> {
        let budget = (seconds * 1e9) as u64;
        let open = self.workload.open_loop();
        let expect_epochs = if open {
            (budget / PERIOD_NS) as usize + 16
        } else {
            (seconds * 4_000.0) as usize + 16
        };
        let mut passes = [Pass::default(), Pass::default()];
        for pass in &mut passes {
            pass.lateness_ns.reserve(expect_epochs);
            pass.epoch_ns.reserve(expect_epochs);
            pass.epochs.reserve(expect_epochs);
            if open {
                pass.gen_lag_ns.reserve(expect_epochs);
            }
        }
        let t0 = now_ns() + if open { PERIOD_NS } else { 0 };
        let end = t0 + budget;
        let mut window = Window::open(t0);
        let mut mode = 0;
        trace::set_tracing(false);
        let mut next_churn = t0 + CHURN_NS;
        let mut tick = 0_u64;
        loop {
            let due = if open {
                let due = t0 + tick * PERIOD_NS;
                if due >= end {
                    break;
                }
                let spin_start = trace::thread_cpu_ns();
                while now_ns() < due {
                    std::hint::spin_loop();
                }
                window.wait_cpu += trace::thread_cpu_ns() - spin_start;
                due
            } else {
                let now = now_ns();
                if now >= end {
                    break;
                }
                now
            };
            if mode == 1 && self.span_room_low() {
                break;
            }
            let issue = now_ns();
            let (requested, deadline) = self.request_all()?;
            let start = now_ns();
            let report = self.drive();
            let done = now_ns();
            tick += 1;
            let pass = &mut passes[mode];
            let lateness = done - due;
            pass.requested += requested;
            pass.stepped += report.steps;
            pass.shed += report.shed;
            window.steps += report.steps;
            let (bound, served) = if deadline > 0 {
                (
                    deadline,
                    report.by_class[PriorityClass::Realtime.index()].steps,
                )
            } else {
                (requested, report.steps)
            };
            pass.deadline_requested += bound;
            if lateness <= PERIOD_NS {
                pass.on_time += served;
            }
            pass.lateness_ns.push(lateness);
            pass.epoch_ns.push(done - start);
            if open {
                pass.gen_lag_ns.push(issue - due);
            }
            pass.epochs.push(EpochRec {
                due,
                start,
                end: done,
                request_ns: (start - issue) as f64 / self.seats.len() as f64,
                sessions: report.by_class.map(|c| c.sessions),
            });
            if self.workload == Workload::FleetFine && done >= next_churn {
                self.churn(alternate)?;
                next_churn += CHURN_NS;
            }
            if done - window.start >= WINDOW_NS {
                window.close(&mut passes[mode], done);
                window = Window::open(done);
                if alternate {
                    mode ^= 1;
                    trace::set_tracing(mode == 1);
                }
            }
        }
        trace::set_tracing(false);
        window.close(&mut passes[mode], now_ns());
        Ok(passes)
    }

    /// Evicts one telemetry session (rotating) and admits a fresh one
    /// into its seat.
    fn churn(&mut self, traced: bool) -> Res<()> {
        let telemetry: Vec<usize> = (0..self.seats.len())
            .filter(|&i| self.seats[i].telemetry)
            .collect();
        if telemetry.is_empty() {
            return Ok(());
        }
        let i = telemetry[(self.churns as usize) % telemetry.len()];
        self.churns += 1;
        self.retire(i, traced);
        let seat = &self.seats[i];
        let generation = seat.generation + 1;
        let spec = self.spec(seat.class, seat.tape, true, generation, &seat.sink)?;
        let id = self.admit(spec)?;
        let seat = &mut self.seats[i];
        seat.id = id;
        seat.accepted = 0;
        seat.generation = generation;
        Ok(())
    }

    /// Evicts seat `i`'s session and checks its ledger.
    fn retire(&mut self, i: usize, keep_spans: bool) {
        let (id, accepted, class, telemetry) = {
            let seat = &self.seats[i];
            (seat.id, seat.accepted, seat.class, seat.telemetry)
        };
        let t = now_ns();
        let evicted = self.fleet.evict(id);
        self.evict_ns.push(now_ns() - t);
        let gaps = self.seats[i].sink.take_gaps();
        match evicted {
            Ok(report) => self.audit(&report, accepted, gaps, telemetry),
            Err(e) => self.problems.push(format!("evicting {id}: {e}")),
        }
        if keep_spans {
            let mut spans = Vec::new();
            self.seats[i].sink.drain_into(&mut spans);
            self.retired.extend(spans.into_iter().map(|s| (s, class)));
        }
    }

    /// Checks one session's final report against the benchmark's own
    /// counts.
    fn audit(&mut self, report: &SessionReport, accepted: u64, gaps: u64, telemetry: bool) {
        let ledger = report.steps + report.shed + u64::from(report.backlog);
        if ledger != accepted {
            self.problems.push(format!(
                "{}: accepted {accepted} != stepped {} + shed {} + backlog {}",
                report.id, report.steps, report.shed, report.backlog
            ));
        }
        let conceal = if telemetry { 4 } else { 1 };
        let degraded = report
            .telemetry
            .get(conceal)
            .and_then(|t| t.faults)
            .map_or(u64::MAX, |f| f.degraded);
        if degraded != report.shed + gaps {
            self.problems.push(format!(
                "{}: conceal degraded {degraded} != shed {} + upstream gaps {gaps}",
                report.id, report.shed
            ));
        }
        if telemetry {
            let (packetize, link) = (&report.telemetry[1], &report.telemetry[2]);
            let faults = link.faults.unwrap_or_default();
            self.link.sent += packetize.frames_out;
            self.link.played += link.frames_out;
            self.link.lost += faults.lost;
            self.link.naks += faults.naks;
            self.link.auth_rejects += link.secure.map_or(0, |s| s.rejected_auth);
            if link.frames_out != packetize.frames_out {
                // A stream shorter than the ARQ window ends inside the
                // receiver's playout warm-up, where the link's drain has
                // been seen to stop with every frame still buffered.
                let short = if packetize.frames_out < ARQ_WINDOW as u64 {
                    format!(" (the stream ended inside the {ARQ_WINDOW}-frame playout warm-up)")
                } else {
                    String::new()
                };
                self.problems.push(format!(
                    "{}: link played {} of {} frames sent after the drain{short}",
                    report.id, link.frames_out, packetize.frames_out
                ));
            }
        }
    }

    /// Evicts every session, then reconciles the checkers and the
    /// registry with the benchmark's counts. Returns the spans of the
    /// sessions still live (tagged by class) when `keep_spans`.
    pub fn finish(&mut self, keep_spans: bool) -> Vec<String> {
        for i in 0..self.seats.len() {
            self.retire(i, keep_spans);
        }
        let checked: u64 = self.seats.iter().map(|s| s.sink.checked()).sum();
        let mismatches: u64 = self.seats.iter().map(|s| s.sink.mismatches()).sum();
        if mismatches > 0 {
            self.problems.push(format!(
                "{mismatches} of {checked} checked outputs mismatched"
            ));
        }
        if checked == 0 {
            self.problems.push("no output was checked".to_string());
        }
        let snapshot = self.registry.snapshot();
        for (name, ours) in [
            ("serve.steps", self.fleet_steps),
            ("serve.shed", self.fleet_shed),
        ] {
            if snapshot.counter(name) != Some(ours) {
                self.problems.push(format!(
                    "registry {name} = {:?}, benchmark counted {ours}",
                    snapshot.counter(name)
                ));
            }
        }
        std::mem::take(&mut self.problems)
    }

    /// Whether the fleet's registry recorded anything (the `obs`
    /// feature is compiled in).
    pub fn obs_on(&self) -> bool {
        self.registry
            .snapshot()
            .counter("serve.epochs")
            .unwrap_or(0)
            > 0
    }

    pub fn dropped_spans(&self) -> u64 {
        self.seats.iter().map(|s| s.sink.dropped()).sum()
    }
}
