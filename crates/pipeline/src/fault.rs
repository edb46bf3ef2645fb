//! Fault injection, link resilience, and graceful degradation stages.
//!
//! Three stages turn the happy-path pipeline of PR 3 into one that
//! survives the faults a safety-power-capped implant link actually
//! produces (Section 5 sizes the uplink at BER 1e-6 with no headroom
//! to spare):
//!
//! * [`FaultStage`] — deterministic front-end fault injection over
//!   typed frames (frame drops, dead/saturated channel runs, NaN
//!   bursts), driven by a seeded [`FaultPlan`].
//! * [`LinkStage`] — the packet path: transmits each wire frame
//!   through an (optionally faulty) channel into the selective-repeat
//!   [`ArqLink`] receiver, emitting in-order playouts after a fixed
//!   window delay. A lost frame comes out as an *empty* codes frame —
//!   the in-band gap marker the concealment stage consumes.
//! * [`ConcealStage`] — degradation policies for missing or
//!   quarantined data: hold-last-value, zero-fill, or linear
//!   extrapolation, plus the NaN-quarantine guard that keeps
//!   non-finite values out of the stateful decoders and the DNN.
//!
//! Each stage reports a [`FaultTelemetry`] snapshot through
//! [`Stage::fault_telemetry`], which the pipeline driver threads into
//! its per-stage [`crate::StageTelemetry`].

use mindful_decode::DecodeError;
use mindful_rf::arq::{ArqConfig, ArqLink, ArqStats};
use mindful_rf::auth::{AuthConfig, AuthStats};
use mindful_rf::fault::{AttackCounters, FaultPlan, FrameFault, WireFaultInjector};

use crate::error::{PipelineError, Result};
use crate::frame::{Frame, FrameBuf, StageOutput};
use crate::secure::SecureTelemetry;
use crate::stage::Stage;

/// Fault counters a stage exposes to the pipeline driver.
///
/// The same shape serves all three fault-handling stages; counters a
/// stage has no business with stay zero (an injector never recovers,
/// a concealer never NAKs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultTelemetry {
    /// Faults injected upstream of (or by) this stage.
    pub injected: u64,
    /// Fault events detected (corrupt packets, sequence gaps,
    /// duplicates, out-of-window arrivals).
    pub detected: u64,
    /// Gaps filled by retransmission or late arrival.
    pub recovered: u64,
    /// Frames that reached their playout deadline unfilled.
    pub lost: u64,
    /// Frames synthesized by a degradation policy (gap concealment).
    pub degraded: u64,
    /// Frames with non-finite channels repaired by the quarantine
    /// guard.
    pub quarantined: u64,
    /// NAKs sent by the ARQ receiver.
    pub naks: u64,
    /// Longest burst of consecutive missing frames.
    pub max_gap: u64,
    /// Total gap-detection-to-recovery latency in steps (divide by
    /// `recovered` for the mean).
    pub recovery_steps: u64,
}

impl FaultTelemetry {
    /// Folds another snapshot into this one (counters add; `max_gap`
    /// takes the max) — used to aggregate a whole chain.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            injected: self.injected + other.injected,
            detected: self.detected + other.detected,
            recovered: self.recovered + other.recovered,
            lost: self.lost + other.lost,
            degraded: self.degraded + other.degraded,
            quarantined: self.quarantined + other.quarantined,
            naks: self.naks + other.naks,
            max_gap: self.max_gap.max(other.max_gap),
            recovery_steps: self.recovery_steps + other.recovery_steps,
        }
    }

    fn from_arq(stats: ArqStats, injected: u64) -> Self {
        Self {
            injected,
            detected: stats.corrupted
                + stats.gaps_detected
                + stats.duplicates
                + stats.out_of_window,
            recovered: stats.recovered,
            lost: stats.lost,
            degraded: 0,
            quarantined: 0,
            naks: stats.naks_sent,
            max_gap: stats.max_gap,
            recovery_steps: stats.recovery_steps,
        }
    }
}

/// Saturation level used for real-valued frames (activations live in
/// `[-1, 1)` and decoded intents in roughly the same range).
pub const VALUE_SATURATION: f64 = 1.0;

/// Deterministic front-end fault injection as a pipeline stage.
///
/// Consumes and re-emits codes, values, activations, or counts frames,
/// applying at most one [`FrameFault`] per frame as decided by its
/// seeded [`FaultPlan`]: a dropped frame becomes an *empty* frame of
/// the same kind (the in-band gap marker), dead channels read zero,
/// saturated channels read full scale, and NaN bursts overwrite a
/// channel run with NaN (real-valued frames only — integer frames
/// veto the burst). With [`mindful_rf::fault::FaultConfig::none`] the
/// stage is a bit-exact passthrough.
pub struct FaultStage {
    plan: FaultPlan,
    /// Full-scale code for saturated channels.
    code_limit: u16,
}

impl FaultStage {
    /// Wraps a plan; `sample_bits` sets the full-scale code that
    /// saturated channels are driven to.
    ///
    /// # Errors
    ///
    /// Returns an invalid-parameter error for a zero or over-16 bit
    /// width.
    pub fn new(plan: FaultPlan, sample_bits: u8) -> Result<Self> {
        if sample_bits == 0 || sample_bits > 16 {
            return Err(mindful_rf::RfError::InvalidParameter {
                name: "sample bits",
                value: f64::from(sample_bits),
            }
            .into());
        }
        let code_limit = if sample_bits == 16 {
            u16::MAX
        } else {
            (1_u16 << sample_bits) - 1
        };
        Ok(Self { plan, code_limit })
    }

    /// The plan's injected-fault counters.
    #[must_use]
    pub fn counters(&self) -> mindful_rf::fault::FaultCounters {
        self.plan.counters()
    }

    fn apply<T: Copy>(
        fault: Option<FrameFault>,
        input: &[T],
        out: &mut Vec<T>,
        zero: T,
        saturated: T,
        nan: Option<T>,
    ) {
        match fault {
            Some(FrameFault::Drop) => {}
            None => out.extend_from_slice(input),
            Some(FrameFault::DeadChannels { start, len }) => {
                out.extend_from_slice(input);
                out[start..start + len].fill(zero);
            }
            Some(FrameFault::SaturatedChannels { start, len }) => {
                out.extend_from_slice(input);
                out[start..start + len].fill(saturated);
            }
            Some(FrameFault::NanBurst { start, len }) => {
                out.extend_from_slice(input);
                // Vetoed at draw time for integer frames, so `nan` is
                // always present here.
                if let Some(nan) = nan {
                    out[start..start + len].fill(nan);
                }
            }
        }
    }
}

impl Stage for FaultStage {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        match input {
            Frame::Codes(codes) => {
                let fault = self.plan.next_frame_fault(codes.len(), false);
                Self::apply(fault, codes, out.begin_codes(), 0, self.code_limit, None);
            }
            Frame::Counts(counts) => {
                let fault = self.plan.next_frame_fault(counts.len(), false);
                Self::apply(
                    fault,
                    counts,
                    out.begin_counts(),
                    0,
                    u32::from(self.code_limit),
                    None,
                );
            }
            Frame::Values(values) => {
                let fault = self.plan.next_frame_fault(values.len(), true);
                Self::apply(
                    fault,
                    values,
                    out.begin_values(),
                    0.0,
                    VALUE_SATURATION,
                    Some(f64::NAN),
                );
            }
            Frame::Activations(values) => {
                let fault = self.plan.next_frame_fault(values.len(), true);
                Self::apply(
                    fault,
                    values,
                    out.begin_activations(),
                    0.0,
                    VALUE_SATURATION as f32,
                    Some(f32::NAN),
                );
            }
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "fault",
                    actual: other.kind(),
                })
            }
        }
        Ok(StageOutput::Emitted)
    }

    fn fault_telemetry(&self) -> Option<FaultTelemetry> {
        Some(FaultTelemetry {
            injected: self.plan.counters().total(),
            ..FaultTelemetry::default()
        })
    }
}

/// The packet path: wire transmission (optionally through a fault
/// injector) into the selective-repeat ARQ receiver.
///
/// Consumes bytes frames (from a [`crate::PacketizeStage`]); emits one
/// codes frame per step after a fixed `window`-step playout delay
/// ([`StageOutput::Pending`] during warmup). A frame the receiver had
/// to give up on comes out as an *empty* codes frame — downstream, a
/// [`ConcealStage`] turns that marker into a policy-degraded frame.
/// End of stream is handled by [`Stage::finish`]: each call drains one
/// buffered frame (servicing any outstanding retransmissions on the
/// way), so a driven [`crate::Pipeline::finish`] plays out every
/// transmitted frame exactly once.
pub struct LinkStage {
    link: ArqLink,
    samples: Vec<u16>,
}

impl LinkStage {
    /// Builds the link path. `plan` is the forward channel's wire
    /// fault model (`None` for a clean channel); `rtt` is the NAK
    /// round-trip in steps.
    ///
    /// # Errors
    ///
    /// Propagates ARQ config validation errors.
    pub fn new(config: ArqConfig, plan: Option<FaultPlan>, rtt: u64) -> Result<Self> {
        let injector = plan.map(WireFaultInjector::new);
        Self::with_channel(config, injector, rtt, None)
    }

    /// Builds the link path over an explicit channel model: an
    /// optional pre-built [`WireFaultInjector`] (which may carry an
    /// [`mindful_rf::fault::Adversary`]) and an optional [`AuthConfig`]
    /// that seals every frame and authenticates every delivery.
    ///
    /// # Errors
    ///
    /// Propagates ARQ and auth config validation errors.
    pub fn with_channel(
        config: ArqConfig,
        injector: Option<WireFaultInjector>,
        rtt: u64,
        auth: Option<&AuthConfig>,
    ) -> Result<Self> {
        let link = match auth {
            None => ArqLink::new(config, injector, rtt)?,
            Some(auth) => ArqLink::with_auth(config, injector, rtt, auth)?,
        };
        Ok(Self {
            link,
            samples: Vec::new(),
        })
    }

    /// Receiver-side ARQ counters.
    #[must_use]
    pub fn stats(&self) -> ArqStats {
        self.link.stats()
    }

    /// Forward-channel fault counters (`None` for a clean link).
    #[must_use]
    pub fn fault_counters(&self) -> Option<mindful_rf::fault::FaultCounters> {
        self.link.fault_counters()
    }

    /// The authentication ledger (`None` on an unauthenticated link).
    #[must_use]
    pub fn auth_stats(&self) -> Option<AuthStats> {
        self.link.auth_stats()
    }

    /// The channel adversary's attack ledger (`None` without one).
    #[must_use]
    pub fn attack_counters(&self) -> Option<AttackCounters> {
        self.link.attack_counters()
    }

    fn emit(&mut self, playout: mindful_rf::arq::Playout, out: &mut FrameBuf) {
        let codes = out.begin_codes();
        if playout.delivered {
            codes.extend_from_slice(&self.samples);
        }
        // A lost frame stays empty: the in-band gap marker.
    }
}

impl Stage for LinkStage {
    fn name(&self) -> &'static str {
        "link"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let Frame::Bytes(wire) = input else {
            return Err(PipelineError::UnexpectedFrame {
                stage: "link",
                actual: input.kind(),
            });
        };
        match self.link.step_into(wire, &mut self.samples)? {
            None => Ok(StageOutput::Pending),
            Some(playout) => {
                self.emit(playout, out);
                Ok(StageOutput::Emitted)
            }
        }
    }

    fn finish(&mut self, out: &mut FrameBuf) -> Result<StageOutput> {
        match self.link.finish_into(&mut self.samples) {
            None => Ok(StageOutput::Pending),
            Some(playout) => {
                self.emit(playout, out);
                Ok(StageOutput::Emitted)
            }
        }
    }

    fn fault_telemetry(&self) -> Option<FaultTelemetry> {
        let injected = self.link.fault_counters().map_or(0, |c| c.total());
        Some(FaultTelemetry::from_arq(self.link.stats(), injected))
    }

    fn secure_telemetry(&self) -> Option<SecureTelemetry> {
        self.link
            .auth_stats()
            .map(|stats| SecureTelemetry::from_auth(&stats))
    }
}

/// How a [`ConcealStage`] synthesizes a missing or quarantined value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Repeat the channel's last good value (zero before any).
    HoldLast,
    /// Emit zero.
    ZeroFill,
    /// First-order linear extrapolation from the last two good frames
    /// (`2·last − older`) — the causal-stream form of linear
    /// interpolation, since a real-time chain cannot wait for the next
    /// good frame. Falls back to hold-last (then zero) while history
    /// builds.
    Interpolate,
}

/// Graceful degradation for missing or quarantined frames, and the
/// NaN-quarantine guard in front of the stateful decoders / DNN.
///
/// Consumes codes, values, activations, or counts frames of a fixed
/// channel width. An *empty* frame (the gap marker a [`LinkStage`] or
/// [`FaultStage`] emits for a dropped frame) is replaced by a frame
/// synthesized under the configured [`DegradePolicy`]; a frame
/// carrying NaN or infinite channels has exactly those channels
/// repaired by the same policy. Every frame this stage emits is
/// finite, full-width, and of the input's kind.
pub struct ConcealStage {
    channels: usize,
    policy: DegradePolicy,
    /// Last emitted frame (history for hold-last / extrapolation).
    last: Vec<f64>,
    /// The frame before `last`.
    older: Vec<f64>,
    /// Frames seen so far, capped at 2 (history depth).
    seen: usize,
    degraded: u64,
    quarantined: u64,
    scratch: Vec<f64>,
}

impl ConcealStage {
    /// A concealer for `channels`-wide frames under `policy`. The
    /// width is fixed up front so a gap can be concealed even before
    /// the first good frame arrives.
    ///
    /// # Errors
    ///
    /// Returns an invalid-parameter error for zero channels.
    pub fn new(channels: usize, policy: DegradePolicy) -> Result<Self> {
        if channels == 0 {
            return Err(DecodeError::InvalidParameter {
                name: "channels",
                value: 0.0,
            }
            .into());
        }
        Ok(Self {
            channels,
            policy,
            last: vec![0.0; channels],
            older: vec![0.0; channels],
            seen: 0,
            degraded: 0,
            quarantined: 0,
            scratch: Vec::new(),
        })
    }

    /// Frames synthesized whole (gap markers concealed).
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    /// Frames with non-finite channels repaired.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The policy's prediction for channel `c` given current history.
    fn predict(&self, c: usize) -> f64 {
        match (self.policy, self.seen) {
            (DegradePolicy::ZeroFill, _) | (_, 0) => 0.0,
            (DegradePolicy::HoldLast, _) | (DegradePolicy::Interpolate, 1) => self.last[c],
            (DegradePolicy::Interpolate, _) => 2.0 * self.last[c] - self.older[c],
        }
    }

    /// Rolls the history forward by one emitted frame: `older ← last ←
    /// frame`. The concealed frame itself enters the history so a run
    /// of consecutive gaps continues the policy's trajectory.
    fn roll<T: Copy + Into<f64>>(&mut self, frame: &[T]) {
        core::mem::swap(&mut self.older, &mut self.last);
        for (slot, &v) in self.last.iter_mut().zip(frame) {
            *slot = v.into();
        }
        self.seen = (self.seen + 1).min(2);
    }

    /// Conceals a gap: synthesizes a whole frame under the policy —
    /// chosen once per frame — straight into the history, where
    /// `self.last` then holds it.
    fn synthesize(&mut self) {
        self.degraded += 1;
        match (self.policy, self.seen) {
            (DegradePolicy::ZeroFill, _) | (_, 0) => self.older.fill(0.0),
            (DegradePolicy::HoldLast, _) | (DegradePolicy::Interpolate, 1) => {
                self.older.copy_from_slice(&self.last);
            }
            (DegradePolicy::Interpolate, _) => {
                for (older, &last) in self.older.iter_mut().zip(&self.last) {
                    *older = 2.0 * last - *older;
                }
            }
        }
        core::mem::swap(&mut self.older, &mut self.last);
        self.seen = (self.seen + 1).min(2);
    }

    /// The NaN-quarantine guard over a real-valued frame loaded into
    /// `self.scratch`: repairs exactly its non-finite channels under the
    /// policy, then rolls the repaired frame into the history.
    fn quarantine(&mut self) {
        if self.scratch.iter().any(|v| !v.is_finite()) {
            self.quarantined += 1;
            for c in 0..self.channels {
                if !self.scratch[c].is_finite() {
                    self.scratch[c] = self.predict(c);
                }
            }
        }
        let frame = core::mem::take(&mut self.scratch);
        self.roll(&frame);
        self.scratch = frame;
    }

    /// Conceals an integer frame. `Codes` and `Counts` cannot carry a
    /// non-finite channel, so a good frame is emitted as a copy. A gap
    /// is synthesized in f64, where an integer stream's history stays
    /// integral, and leaves through `cast`: the saturating `as`, which
    /// on integral values is exactly round-then-clamp into the range.
    fn conceal_integers<T: Copy + Into<f64>>(
        &mut self,
        frame: &[T],
        out: &mut Vec<T>,
        cast: impl Fn(f64) -> T,
    ) {
        if frame.is_empty() {
            self.synthesize();
            out.extend(self.last.iter().map(|&v| cast(v)));
        } else {
            self.roll(frame);
            out.extend_from_slice(frame);
        }
    }

    /// Conceals a real-valued frame: a gap is synthesized, a good frame
    /// goes through the NaN-quarantine guard in f64.
    fn conceal_reals<T: Copy + Into<f64>>(
        &mut self,
        frame: &[T],
        out: &mut Vec<T>,
        cast: impl Fn(f64) -> T,
    ) {
        let emitted = if frame.is_empty() {
            self.synthesize();
            &self.last
        } else {
            self.scratch.clear();
            self.scratch.extend(frame.iter().map(|&v| v.into()));
            self.quarantine();
            &self.scratch
        };
        out.extend(emitted.iter().map(|&v| cast(v)));
    }

    /// Width check for a frame; an empty frame is the gap marker.
    fn check_width(&self, len: usize) -> Result<()> {
        if len != 0 && len != self.channels {
            return Err(DecodeError::ShapeMismatch {
                expected: self.channels,
                actual: len,
            }
            .into());
        }
        Ok(())
    }
}

impl Stage for ConcealStage {
    fn name(&self) -> &'static str {
        "conceal"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        match input {
            Frame::Codes(codes) => {
                self.check_width(codes.len())?;
                self.conceal_integers(codes, out.begin_codes(), |v| v as u16);
            }
            Frame::Counts(counts) => {
                self.check_width(counts.len())?;
                self.conceal_integers(counts, out.begin_counts(), |v| v as u32);
            }
            Frame::Values(values) => {
                self.check_width(values.len())?;
                self.conceal_reals(values, out.begin_values(), |v| v);
            }
            Frame::Activations(values) => {
                self.check_width(values.len())?;
                self.conceal_reals(values, out.begin_activations(), |v| v as f32);
            }
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "conceal",
                    actual: other.kind(),
                })
            }
        }
        Ok(StageOutput::Emitted)
    }

    fn fault_telemetry(&self) -> Option<FaultTelemetry> {
        Some(FaultTelemetry {
            degraded: self.degraded,
            quarantined: self.quarantined,
            ..FaultTelemetry::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Pipeline;
    use crate::stages::PacketizeStage;
    use mindful_rf::fault::FaultConfig;

    fn plan(config: FaultConfig, seed: u64) -> FaultPlan {
        FaultPlan::new(config, seed).unwrap()
    }

    #[test]
    fn zero_rate_fault_stage_is_a_bit_exact_passthrough() {
        let mut stage = FaultStage::new(plan(FaultConfig::none(), 1), 10).unwrap();
        let mut out = FrameBuf::new();
        let codes: Vec<u16> = (0..64).collect();
        for _ in 0..100 {
            stage.process(&Frame::Codes(&codes), &mut out).unwrap();
            assert_eq!(out.as_frame(), Frame::Codes(codes.as_slice()));
        }
        let values = [0.5_f64, -0.25, 1.0];
        stage.process(&Frame::Values(&values), &mut out).unwrap();
        let Frame::Values(v) = out.as_frame() else {
            panic!("kind preserved");
        };
        assert_eq!(
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(stage.fault_telemetry().unwrap().injected, 0);
    }

    #[test]
    fn fault_stage_injects_every_frame_fault_kind() {
        let mut stage = FaultStage::new(plan(FaultConfig::frame_composite(0.9), 3), 10).unwrap();
        let mut out = FrameBuf::new();
        let values: Vec<f64> = (0..64).map(|c| 0.01 * f64::from(c)).collect();
        let (mut gaps, mut dead, mut sat, mut nan) = (0_u64, 0_u64, 0_u64, 0_u64);
        for _ in 0..500 {
            stage.process(&Frame::Values(&values), &mut out).unwrap();
            let Frame::Values(v) = out.as_frame() else {
                panic!("kind preserved");
            };
            if v.is_empty() {
                gaps += 1;
            } else {
                assert_eq!(v.len(), values.len());
                if v.iter().any(|x| x.is_nan()) {
                    nan += 1;
                }
                if v.iter().zip(&values).any(|(&a, &b)| a == 0.0 && b != 0.0) {
                    dead += 1;
                }
                if v.contains(&VALUE_SATURATION) {
                    sat += 1;
                }
            }
        }
        let counters = stage.counters();
        assert_eq!(gaps, counters.drops);
        assert_eq!(nan, counters.nan_bursts);
        assert!(dead >= 1 && sat >= 1, "dead {dead}, saturated {sat}");
        assert_eq!(stage.fault_telemetry().unwrap().injected, counters.total());
    }

    #[test]
    fn fault_stage_never_nans_integer_frames() {
        let mut config = FaultConfig::none();
        config.nan_burst = 0.9;
        let mut stage = FaultStage::new(plan(config, 5), 10).unwrap();
        let mut out = FrameBuf::new();
        let codes: Vec<u16> = (0..32).collect();
        for _ in 0..200 {
            stage.process(&Frame::Codes(&codes), &mut out).unwrap();
            assert_eq!(out.as_frame(), Frame::Codes(codes.as_slice()));
        }
        assert_eq!(stage.counters().nan_bursts, 0);
    }

    #[test]
    fn link_stage_round_trips_a_clean_packet_stream() {
        let window = 4;
        let mut p = Pipeline::new()
            .with_stage(PacketizeStage::new(10).unwrap())
            .with_stage(LinkStage::new(ArqConfig::selective_repeat(window), None, 2).unwrap());
        let mut seen = Vec::new();
        for k in 0..20_u16 {
            let codes = [k, k + 1, k + 2];
            if let Some(out) = p.push(Frame::Codes(&codes)).unwrap() {
                let Frame::Codes(played) = out.as_frame() else {
                    panic!("link emits codes");
                };
                seen.push(played.to_vec());
            }
        }
        assert_eq!(seen.len(), 20 - window, "window-delayed playout");
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[15], vec![15, 16, 17]);
        let flushed = p.finish().unwrap();
        assert_eq!(flushed, window as u64, "finish drains the buffered tail");
        let telemetry = p.telemetry();
        let faults = telemetry[1].faults.unwrap();
        assert_eq!(faults.lost + faults.detected + faults.naks, 0);
    }

    /// Regression: a session evicted after fewer frames than the ARQ
    /// window used to lose its whole stream at [`Pipeline::finish`] —
    /// the link reported `Pending` during warm-up and the drain stopped.
    #[test]
    fn finish_drains_a_stream_shorter_than_the_link_window() {
        let window = 16;
        let mut p = Pipeline::new()
            .with_stage(PacketizeStage::new(10).unwrap())
            .with_stage(LinkStage::new(ArqConfig::selective_repeat(window), None, 2).unwrap());
        for k in 0..8_u16 {
            let codes = [k, k + 1, k + 2];
            assert!(p.push(Frame::Codes(&codes)).unwrap().is_none(), "warm-up");
        }
        assert_eq!(p.finish().unwrap(), 8, "finish plays every buffered frame");
        assert_eq!(
            p.last_output().unwrap().as_frame(),
            Frame::Codes(&[7, 8, 9][..])
        );
        assert_eq!(p.finish().unwrap(), 0, "nothing is left buffered");
        let faults = p.telemetry()[1].faults.unwrap();
        assert_eq!(faults.lost + faults.detected + faults.naks, 0);
    }

    #[test]
    fn conceal_policies_fill_gaps_as_documented() {
        let mut out = FrameBuf::new();
        // Hold-last repeats; zero-fill zeroes; extrapolation continues
        // the linear trend 10, 20 -> 30.
        for (policy, expect) in [
            (DegradePolicy::HoldLast, vec![20_u16, 20]),
            (DegradePolicy::ZeroFill, vec![0, 0]),
            (DegradePolicy::Interpolate, vec![30, 30]),
        ] {
            let mut stage = ConcealStage::new(2, policy).unwrap();
            stage.process(&Frame::Codes(&[10, 10]), &mut out).unwrap();
            stage.process(&Frame::Codes(&[20, 20]), &mut out).unwrap();
            stage.process(&Frame::Codes(&[]), &mut out).unwrap();
            assert_eq!(
                out.as_frame(),
                Frame::Codes(expect.as_slice()),
                "{policy:?}"
            );
            assert_eq!(stage.degraded(), 1);
            assert_eq!(stage.fault_telemetry().unwrap().degraded, 1);
        }
    }

    #[test]
    fn conceal_before_any_history_and_under_consecutive_gaps() {
        let mut out = FrameBuf::new();
        let mut stage = ConcealStage::new(3, DegradePolicy::Interpolate).unwrap();
        // A gap before the first good frame still emits a full-width
        // frame (zeros — no history yet).
        stage.process(&Frame::Codes(&[]), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[0, 0, 0]));
        stage.process(&Frame::Codes(&[4, 4, 4]), &mut out).unwrap();
        stage.process(&Frame::Codes(&[6, 6, 6]), &mut out).unwrap();
        // Consecutive gaps continue the trend: 8, then 10.
        stage.process(&Frame::Codes(&[]), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[8, 8, 8]));
        stage.process(&Frame::Codes(&[]), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[10, 10, 10]));
        assert_eq!(stage.degraded(), 3);
        // Extrapolated codes clamp at zero rather than wrapping.
        let mut stage = ConcealStage::new(1, DegradePolicy::Interpolate).unwrap();
        stage.process(&Frame::Codes(&[10]), &mut out).unwrap();
        stage.process(&Frame::Codes(&[2]), &mut out).unwrap();
        stage.process(&Frame::Codes(&[]), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[0]), "2*2-10 clamps to 0");
    }

    #[test]
    fn conceal_quarantines_non_finite_channels() {
        let mut out = FrameBuf::new();
        let mut stage = ConcealStage::new(3, DegradePolicy::HoldLast).unwrap();
        stage
            .process(&Frame::Values(&[1.0, 2.0, 3.0]), &mut out)
            .unwrap();
        stage
            .process(&Frame::Values(&[4.0, f64::NAN, f64::INFINITY]), &mut out)
            .unwrap();
        let Frame::Values(v) = out.as_frame() else {
            panic!("kind preserved");
        };
        assert_eq!(v, &[4.0, 2.0, 3.0], "good channels pass, bad ones hold");
        assert_eq!(stage.quarantined(), 1);
        assert_eq!(stage.degraded(), 0);
        // The repaired frame entered history: a following gap holds it.
        stage.process(&Frame::Values(&[]), &mut out).unwrap();
        let Frame::Values(v) = out.as_frame() else {
            panic!("kind preserved");
        };
        assert_eq!(v, &[4.0, 2.0, 3.0]);
        // f32 activations are guarded too.
        let mut stage = ConcealStage::new(2, DegradePolicy::ZeroFill).unwrap();
        stage
            .process(&Frame::Activations(&[f32::NAN, 0.5]), &mut out)
            .unwrap();
        assert_eq!(out.as_frame(), Frame::Activations(&[0.0, 0.5]));
        assert_eq!(stage.quarantined(), 1);
    }

    #[test]
    fn conceal_validates_width_and_kind() {
        let mut out = FrameBuf::new();
        assert!(ConcealStage::new(0, DegradePolicy::ZeroFill).is_err());
        let mut stage = ConcealStage::new(2, DegradePolicy::ZeroFill).unwrap();
        assert!(stage.process(&Frame::Codes(&[1, 2, 3]), &mut out).is_err());
        assert!(stage.process(&Frame::Bytes(&[1]), &mut out).is_err());
        assert!(stage.process(&Frame::Empty, &mut out).is_err());
    }

    #[test]
    fn telemetry_merge_adds_counters_and_maxes_gaps() {
        let a = FaultTelemetry {
            injected: 3,
            max_gap: 2,
            recovered: 1,
            ..FaultTelemetry::default()
        };
        let b = FaultTelemetry {
            injected: 4,
            max_gap: 5,
            lost: 2,
            ..FaultTelemetry::default()
        };
        let m = a.merged(b);
        assert_eq!(m.injected, 7);
        assert_eq!(m.max_gap, 5);
        assert_eq!(m.recovered, 1);
        assert_eq!(m.lost, 2);
    }
}
