//! Outside-in instrumentation: a [`Traced`] wrapper around every stage
//! the benchmark builds, recording spans into a preallocated per-seat
//! [`Sink`] and checking the stage's outputs as they pass.
//!
//! Tracing is switched on and off process-wide ([`set_tracing`]); with
//! it off a wrapped stage reads no clock and only runs its output
//! check, so the untraced pass measures the program, not the tracer.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mindful_pipeline::{
    FaultTelemetry, Frame, FrameBuf, Result, SecureTelemetry, Stage, StageOutput,
};

/// Stage names in metric order; a [`Span`] stores the index.
pub const STAGES: [&str; 6] = ["replay", "conceal", "dnn", "packetize", "link", "firewall"];
pub const REPLAY: u8 = 0;
pub const CONCEAL: u8 = 1;
pub const DNN: u8 = 2;
pub const PACKETIZE: u8 = 3;
pub const LINK: u8 = 4;
pub const FIREWALL: u8 = 5;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the first call in this process: the one clock
/// every span and every benchmark-side timestamp is read from.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU-time clock binding below assumes 64-bit Linux");

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields, the
    // C layout on 64-bit Linux) that outlives the call, and the clock
    // ids are the Linux CPU-time clocks, which always exist.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clock {clock} unavailable");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// CPU time of the whole process, exited threads included. Time the
/// hypervisor steals is not counted, which is why the cost metric is
/// read from here rather than from the wall clock.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A small dense id for the calling thread. The scheduler spawns fresh
/// workers per dispatch phase, so ids are never shared across phases.
fn thread_id() -> u32 {
    THREAD.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// One stage call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: u8,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
}

/// Spans and check counters of one fleet seat (one session at a time;
/// a churned seat is reused by its replacement session).
#[derive(Debug)]
pub struct Sink {
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    checked: AtomicU64,
    mismatches: AtomicU64,
    /// Empty frames the firewall emitted (link losses and quarantines):
    /// each one is a gap the concealer degrades besides shed steps.
    gaps: AtomicU64,
}

impl Sink {
    /// An empty sink; [`Sink::reserve`] makes room before tracing.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            checked: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            gaps: AtomicU64::new(0),
        })
    }

    fn push(&self, span: Span) {
        let mut spans = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking stage");
        if spans.len() < spans.capacity() {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Makes room for `additional` spans up front.
    pub fn reserve(&self, additional: usize) {
        self.spans
            .lock()
            .expect("span sink poisoned")
            .reserve_exact(additional);
    }

    /// Spans that still fit without reallocating.
    pub fn room(&self) -> usize {
        let spans = self.spans.lock().expect("span sink poisoned");
        spans.capacity() - spans.len()
    }

    /// Moves the recorded spans out, keeping the buffer for reuse.
    pub fn drain_into(&self, out: &mut Vec<Span>) {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        out.extend_from_slice(&spans);
        spans.clear();
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    /// Gaps counted since the last call (one session's share).
    pub fn take_gaps(&self) -> u64 {
        self.gaps.swap(0, Ordering::Relaxed)
    }

    fn verdict(&self, ok: bool) {
        self.checked.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What a wrapped stage's outputs must satisfy.
pub enum Check {
    None,
    /// Decoder outputs are bit-identical to `Network::forward` on the
    /// same frame: input `k` must be replay tape frame `k` and its
    /// output the one precomputed for that frame. Decoder sessions never
    /// shed, so a frame off the tape is itself a mismatch.
    Decoder {
        tape: Arc<[Vec<f32>]>,
        expected: Arc<[Vec<f32>]>,
        next: usize,
    },
    /// Playouts come out in send order: playout `p` is byte-identical
    /// to tape frame `p` or the explicit empty gap marker.
    Playout {
        tape: Arc<[Vec<u16>]>,
        played: usize,
        count_gaps: bool,
    },
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Check {
    fn run(&mut self, input: Option<&Frame<'_>>, out: &FrameBuf, sink: &Sink) {
        match self {
            Self::None => {}
            Self::Decoder {
                tape,
                expected,
                next,
            } => {
                let k = *next % tape.len();
                *next += 1;
                let ok = matches!(
                    (input, out.as_frame()),
                    (Some(Frame::Activations(x)), Frame::Activations(y))
                        if same_bits(x, &tape[k]) && same_bits(y, &expected[k])
                );
                sink.verdict(ok);
            }
            Self::Playout {
                tape,
                played,
                count_gaps,
            } => {
                let Frame::Codes(codes) = out.as_frame() else {
                    sink.verdict(false);
                    return;
                };
                let want = &tape[*played % tape.len()];
                *played += 1;
                if codes.is_empty() {
                    if *count_gaps {
                        sink.gaps.fetch_add(1, Ordering::Relaxed);
                    }
                    sink.verdict(true);
                } else {
                    sink.verdict(codes == want.as_slice());
                }
            }
        }
    }
}

/// A stage wrapped by the benchmark: spans around every call while
/// tracing is on, and the stage's output check always.
pub struct Traced<S> {
    inner: S,
    stage: u8,
    sink: Arc<Sink>,
    check: Check,
}

impl<S: Stage> Traced<S> {
    pub fn new(inner: S, stage: u8, sink: &Arc<Sink>, check: Check) -> Self {
        Self {
            inner,
            stage,
            sink: Arc::clone(sink),
            check,
        }
    }

    fn record(&self, start: Option<u64>) {
        if let Some(start) = start {
            self.sink.push(Span {
                stage: self.stage,
                thread: thread_id(),
                start,
                end: now_ns(),
            });
        }
    }
}

impl<S: Stage> Stage for Traced<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let start = TRACING.load(Ordering::Relaxed).then(now_ns);
        let outcome = self.inner.process(input, out)?;
        self.record(start);
        if outcome == StageOutput::Emitted {
            self.check.run(Some(input), out, &self.sink);
        }
        Ok(outcome)
    }

    fn finish(&mut self, out: &mut FrameBuf) -> Result<StageOutput> {
        let outcome = self.inner.finish(out)?;
        if outcome == StageOutput::Emitted {
            self.check.run(None, out, &self.sink);
        }
        Ok(outcome)
    }

    fn fault_telemetry(&self) -> Option<FaultTelemetry> {
        self.inner.fault_telemetry()
    }

    fn secure_telemetry(&self) -> Option<SecureTelemetry> {
        self.inner.secure_telemetry()
    }
}
