//! The neural firewall and the secure-link telemetry it reports.
//!
//! The paper's L8 Neural Gateway is the trust boundary between the
//! wireless link and everything that can move a prosthetic: frames
//! crossing it must be *authentic* (the [`mindful_rf::auth`] layer, a
//! [`LinkStage`](crate::LinkStage) concern) and *coherent* — plausible
//! as a continuation of the neural stream, even when correctly signed.
//! [`FirewallStage`] implements the coherence screen as a streaming
//! stage: it maintains exponentially weighted per-channel statistics
//! plus two scalar stream statistics, scores every frame with a
//! bounded coherence metric `exp(-(penalty_γ + penalty_φ + penalty_τ))`
//! (the ONI coherence form, with the three variance terms standing in
//! for gain, frame-power, and rate-of-change drift), and replaces any
//! frame scoring below threshold with the in-band *gap marker* (an
//! empty frame) that a downstream [`ConcealStage`](crate::ConcealStage)
//! already knows how to degrade gracefully. A quarantined frame never
//! updates the statistics, so an attacker cannot walk the baseline
//! toward an implausible operating point.
//!
//! Both the firewall and an authenticated link report through
//! [`SecureTelemetry`], the security analogue of
//! [`FaultTelemetry`](crate::FaultTelemetry): the driver snapshots it
//! into [`crate::StageTelemetry::secure`] after every step and mirrors
//! it into `secure.*` gauges when instrumented (leaf names from
//! [`mindful_core::obs::names`]).

use mindful_decode::DecodeError;
use mindful_rf::auth::AuthStats;
use mindful_rf::RfError;

use crate::error::{PipelineError, Result};
use crate::frame::{Frame, FrameBuf, StageOutput};
use crate::stage::Stage;

/// Scale for [`SecureTelemetry::coherence_ppm`]: a coherence score of
/// `1.0` (perfectly in-family) is reported as one million.
pub const COHERENCE_SCALE: u64 = 1_000_000;

/// Security counters a stage exposes to the pipeline driver.
///
/// One shape serves both ends of the trust boundary: an authenticated
/// [`LinkStage`](crate::LinkStage) fills the frame-authentication
/// counters (from [`AuthStats`]) and a [`FirewallStage`] fills the
/// coherence fields; counters a stage has no business with stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecureTelemetry {
    /// Frames sealed by the authenticated sender.
    pub sealed: u64,
    /// Sealed frames that passed MAC + replay verification.
    pub accepted: u64,
    /// Frames rejected by authentication (MAC mismatch, malformed
    /// envelope, key mismatch) — forged traffic, never accepted.
    pub rejected_auth: u64,
    /// Authentic frames rejected because their nonce was already
    /// accepted once.
    pub replayed: u64,
    /// Frames older than the replay window can vouch for.
    pub stale: u64,
    /// Frames quarantined by the firewall's coherence screen.
    pub firewalled: u64,
    /// Latest coherence score in parts-per-million of `1.0`
    /// ([`COHERENCE_SCALE`] before any frame is scored).
    pub coherence_ppm: u64,
}

impl Default for SecureTelemetry {
    fn default() -> Self {
        Self {
            sealed: 0,
            accepted: 0,
            rejected_auth: 0,
            replayed: 0,
            stale: 0,
            firewalled: 0,
            coherence_ppm: COHERENCE_SCALE,
        }
    }
}

impl SecureTelemetry {
    /// Folds another snapshot into this one (counters add;
    /// `coherence_ppm` takes the minimum — the chain is as coherent as
    /// its most suspicious stage) — used to aggregate a whole chain.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            sealed: self.sealed + other.sealed,
            accepted: self.accepted + other.accepted,
            rejected_auth: self.rejected_auth + other.rejected_auth,
            replayed: self.replayed + other.replayed,
            stale: self.stale + other.stale,
            firewalled: self.firewalled + other.firewalled,
            coherence_ppm: self.coherence_ppm.min(other.coherence_ppm),
        }
    }

    /// The authenticated-link view of the ledger.
    #[must_use]
    pub fn from_auth(stats: &AuthStats) -> Self {
        Self {
            sealed: stats.sealed,
            accepted: stats.accepted,
            rejected_auth: stats.rejected_auth(),
            replayed: stats.replayed,
            stale: stats.stale,
            ..Self::default()
        }
    }
}

/// Tuning for a [`FirewallStage`]'s coherence screen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirewallConfig {
    /// Exponentially weighted moving-statistic smoothing factor in
    /// `(0, 1)`: the effective memory is roughly `1 / alpha` frames.
    pub alpha: f64,
    /// Frames observed before the screen goes live. During warmup
    /// every frame passes and trains the statistics.
    pub warmup: u64,
    /// Squared-deviation tolerance (in variance units) for the
    /// per-channel gain term γ before it starts contributing penalty.
    pub gain_tol: f64,
    /// Squared-deviation tolerance for the scalar frame-power (φ) and
    /// rate-of-change (τ) terms.
    pub stat_tol: f64,
    /// Coherence scores strictly below this are quarantined.
    pub threshold: f64,
}

impl Default for FirewallConfig {
    fn default() -> Self {
        Self {
            alpha: 0.05,
            warmup: 64,
            gain_tol: 9.0,
            stat_tol: 36.0,
            threshold: 0.5,
        }
    }
}

impl FirewallConfig {
    fn validate(&self) -> Result<()> {
        let bad = |name: &'static str, value: f64| -> Result<()> {
            Err(RfError::InvalidParameter { name, value }.into())
        };
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return bad("firewall alpha", self.alpha);
        }
        if self.warmup == 0 {
            return bad("firewall warmup", 0.0);
        }
        if !(self.gain_tol > 0.0 && self.gain_tol.is_finite()) {
            return bad("firewall gain tolerance", self.gain_tol);
        }
        if !(self.stat_tol > 0.0 && self.stat_tol.is_finite()) {
            return bad("firewall stat tolerance", self.stat_tol);
        }
        if !(self.threshold >= 0.0 && self.threshold < 1.0) {
            return bad("firewall threshold", self.threshold);
        }
        Ok(())
    }
}

/// One exponentially weighted mean/variance tracker.
#[derive(Debug, Clone, Copy, Default)]
struct EwStat {
    mean: f64,
    var: f64,
}

impl EwStat {
    /// `μ += α·d; σ² ← (1−α)(σ² + α·d²)` — the standard EW update that
    /// keeps the variance consistent with the shifting mean.
    #[inline]
    fn update(&mut self, x: f64, alpha: f64) {
        let d = x - self.mean;
        self.mean += alpha * d;
        self.var = (1.0 - alpha) * (self.var + alpha * d * d);
    }

    /// Squared deviation of `x` in units of the tracked variance, with
    /// a relative floor so a perfectly flat baseline (variance zero)
    /// does not turn measurement noise into infinities.
    #[inline]
    fn z_squared(&self, x: f64) -> f64 {
        let eps = 1e-6 + 1e-4 * self.mean * self.mean;
        let d = x - self.mean;
        d * d / (self.var + eps)
    }
}

/// The L8 neural firewall: a streaming coherence screen in front of
/// the decoders and the DNN.
///
/// Consumes codes, values, activations, or counts frames of a fixed
/// channel width. Each frame is scored against exponentially weighted
/// statistics of the stream itself — per-channel level (gain drift γ),
/// frame variance (power drift φ), and mean absolute step from the
/// last accepted frame (rate-of-change τ). Frames scoring below the
/// configured threshold are *quarantined*: the stage emits the empty
/// gap marker instead, which a downstream
/// [`ConcealStage`](crate::ConcealStage) conceals under its policy.
/// Accepted frames pass through bit-exact and train the statistics;
/// quarantined frames train nothing. An empty input frame (a gap
/// marker from upstream) passes through untouched and unscored.
pub struct FirewallStage {
    channels: usize,
    config: FirewallConfig,
    /// Per-channel level statistics (the γ term).
    gain: Vec<EwStat>,
    /// Frame-variance statistic (the φ term).
    power: EwStat,
    /// Mean-absolute-step statistic (the τ term).
    rate: EwStat,
    /// Last accepted frame, for the rate-of-change term.
    prev: Vec<f64>,
    /// Whether `prev` is the frame's *immediate* predecessor. A
    /// quarantine or an upstream gap breaks the chain: judging a
    /// resumption's step against a stale predecessor would turn every
    /// recovery into a fresh anomaly.
    tau_valid: bool,
    /// Accepted frames so far (drives warmup).
    seen: u64,
    firewalled: u64,
    /// Latest coherence score in `[0, 1]`.
    coherence: f64,
    scratch: Vec<f64>,
    /// Per-channel γ penalties of the frame being scored.
    penalties: Vec<f64>,
}

/// A frame's variance (the φ statistic) and mean absolute step from its
/// predecessor (the τ statistic), shared by scoring and training.
#[derive(Debug, Clone, Copy)]
struct Moments {
    var: f64,
    step: f64,
}

impl FirewallStage {
    /// A firewall for `channels`-wide frames under `config`.
    ///
    /// # Errors
    ///
    /// Returns an invalid-parameter error for zero channels or an
    /// out-of-range config field.
    pub fn new(channels: usize, config: FirewallConfig) -> Result<Self> {
        if channels == 0 {
            return Err(DecodeError::InvalidParameter {
                name: "channels",
                value: 0.0,
            }
            .into());
        }
        config.validate()?;
        Ok(Self {
            channels,
            config,
            gain: vec![EwStat::default(); channels],
            power: EwStat::default(),
            rate: EwStat::default(),
            prev: vec![0.0; channels],
            tau_valid: false,
            seen: 0,
            firewalled: 0,
            coherence: 1.0,
            scratch: Vec::new(),
            penalties: Vec::new(),
        })
    }

    /// Frames quarantined so far.
    #[must_use]
    pub fn firewalled(&self) -> u64 {
        self.firewalled
    }

    /// The latest frame's coherence score in `[0, 1]` (`1.0` before
    /// any frame is scored).
    #[must_use]
    pub fn coherence(&self) -> f64 {
        self.coherence
    }

    /// Tolerance-gated penalty: deviations inside `tol` are free,
    /// beyond it the cost grows linearly in units of the tolerance.
    #[inline]
    fn penalty(z2: f64, tol: f64) -> f64 {
        ((z2 - tol) / tol).max(0.0)
    }

    /// The frame's variance and its mean absolute step from `prev`,
    /// from `Σx` and `Σ|x − prev|` accumulated channel by channel.
    fn moments(&self, sum: f64, step: f64) -> Moments {
        let n = self.channels as f64;
        let mean = sum / n;
        let mut var = 0.0;
        for &x in &self.scratch {
            var += (x - mean) * (x - mean);
        }
        Moments {
            var: var / n,
            step: step / n,
        }
    }

    /// The moments of `self.scratch` alone, for a frame that trains
    /// without being scored (warmup).
    fn unscored_moments(&self) -> Moments {
        let (mut sum, mut step) = (0.0, 0.0);
        for (&x, &p) in self.scratch.iter().zip(&self.prev) {
            sum += x;
            step += (x - p).abs();
        }
        self.moments(sum, step)
    }

    /// Scores `self.scratch` against the current statistics and returns
    /// the score with the frame's moments, which [`Self::train`] reuses
    /// if the frame is accepted. Non-finite channels are maximally
    /// incoherent (score zero, no moments) — the NaN screen in front of
    /// the NaN screen.
    ///
    /// The per-channel γ penalties are computed branch-free into
    /// `self.penalties` first; γ, `Σx` and the τ step then accumulate in
    /// one pass with three independent sums, each in channel order, so
    /// every score is bit-identical to summing them one pass at a time.
    fn score(&mut self) -> (f64, Option<Moments>) {
        if !self.scratch.iter().fold(true, |ok, x| ok & x.is_finite()) {
            return (0.0, None);
        }
        let tol = self.config.gain_tol;
        self.penalties.resize(self.channels, 0.0);
        for ((g, stat), &x) in self.penalties.iter_mut().zip(&self.gain).zip(&self.scratch) {
            *g = Self::penalty(stat.z_squared(x), tol);
        }
        let (mut gamma, mut sum, mut step) = (0.0, 0.0, 0.0);
        for ((&g, &x), &p) in self.penalties.iter().zip(&self.scratch).zip(&self.prev) {
            gamma += g;
            sum += x;
            step += (x - p).abs();
        }
        let moments = self.moments(sum, step);
        gamma /= self.channels as f64;
        let phi = Self::penalty(self.power.z_squared(moments.var), self.config.stat_tol);
        // No immediate predecessor: no step to judge.
        let tau = if self.tau_valid {
            Self::penalty(self.rate.z_squared(moments.step), self.config.stat_tol)
        } else {
            0.0
        };
        ((-(gamma + phi + tau)).exp(), Some(moments))
    }

    /// Trains the statistics on the (accepted) frame in `self.scratch`,
    /// whose moments are `moments`, and rolls it into the rate-of-change
    /// history.
    fn train(&mut self, moments: Moments) {
        let alpha = self.config.alpha;
        for (stat, &x) in self.gain.iter_mut().zip(&self.scratch) {
            stat.update(x, alpha);
        }
        self.power.update(moments.var, alpha);
        if self.tau_valid {
            self.rate.update(moments.step, alpha);
        }
        self.prev.copy_from_slice(&self.scratch);
        self.tau_valid = true;
        self.seen += 1;
    }

    /// Screens the frame currently in `self.scratch`; returns whether
    /// it passes. Warmup frames always pass; every accepted frame
    /// trains the statistics, a quarantined frame trains nothing.
    fn admit(&mut self) -> bool {
        if self.seen < self.config.warmup {
            self.coherence = 1.0;
            let moments = self.unscored_moments();
            self.train(moments);
            return true;
        }
        let (coherence, moments) = self.score();
        self.coherence = coherence;
        if coherence < self.config.threshold {
            self.firewalled += 1;
            self.tau_valid = false;
            false
        } else {
            // A non-finite frame is only accepted under a zero threshold;
            // it has no scored moments, so train computes its own.
            let moments = moments.unwrap_or_else(|| self.unscored_moments());
            self.train(moments);
            true
        }
    }

    fn check_width(&self, len: usize) -> Result<()> {
        if len != self.channels {
            return Err(DecodeError::ShapeMismatch {
                expected: self.channels,
                actual: len,
            }
            .into());
        }
        Ok(())
    }
}

impl Stage for FirewallStage {
    fn name(&self) -> &'static str {
        "firewall"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        // A gap marker from upstream passes through unscored — the
        // link already accounted for it and the concealer owns it —
        // but it still breaks the rate-of-change chain.
        if input.is_empty() {
            self.tau_valid = false;
        }
        self.scratch.clear();
        match input {
            Frame::Codes(codes) => {
                let buf = out.begin_codes();
                if !codes.is_empty() {
                    self.check_width(codes.len())?;
                    self.scratch.extend(codes.iter().map(|&c| f64::from(c)));
                    if self.admit() {
                        buf.extend_from_slice(codes);
                    }
                }
            }
            Frame::Counts(counts) => {
                let buf = out.begin_counts();
                if !counts.is_empty() {
                    self.check_width(counts.len())?;
                    self.scratch.extend(counts.iter().map(|&c| f64::from(c)));
                    if self.admit() {
                        buf.extend_from_slice(counts);
                    }
                }
            }
            Frame::Values(values) => {
                let buf = out.begin_values();
                if !values.is_empty() {
                    self.check_width(values.len())?;
                    self.scratch.extend_from_slice(values);
                    if self.admit() {
                        buf.extend_from_slice(values);
                    }
                }
            }
            Frame::Activations(values) => {
                let buf = out.begin_activations();
                if !values.is_empty() {
                    self.check_width(values.len())?;
                    self.scratch.extend(values.iter().map(|&v| f64::from(v)));
                    if self.admit() {
                        buf.extend_from_slice(values);
                    }
                }
            }
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "firewall",
                    actual: other.kind(),
                })
            }
        }
        Ok(StageOutput::Emitted)
    }

    fn secure_telemetry(&self) -> Option<SecureTelemetry> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(SecureTelemetry {
            firewalled: self.firewalled,
            coherence_ppm: (self.coherence.clamp(0.0, 1.0) * COHERENCE_SCALE as f64).round() as u64,
            ..SecureTelemetry::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A steady in-family stream: small sinusoidal wobble around a
    /// per-channel baseline.
    fn steady(step: u64, channels: usize) -> Vec<u16> {
        (0..channels)
            .map(|c| {
                let base = 400.0 + 3.0 * c as f64;
                let wobble = 25.0 * ((step as f64 * 0.37 + c as f64).sin());
                (base + wobble) as u16
            })
            .collect()
    }

    fn warm_stage(channels: usize, steps: u64) -> (FirewallStage, FrameBuf) {
        let mut stage = FirewallStage::new(channels, FirewallConfig::default()).unwrap();
        let mut out = FrameBuf::new();
        for k in 0..steps {
            let codes = steady(k, channels);
            stage.process(&Frame::Codes(&codes), &mut out).unwrap();
        }
        (stage, out)
    }

    #[test]
    fn config_validation_rejects_out_of_range_fields() {
        for bad in [
            FirewallConfig {
                alpha: 0.0,
                ..FirewallConfig::default()
            },
            FirewallConfig {
                alpha: 1.0,
                ..FirewallConfig::default()
            },
            FirewallConfig {
                warmup: 0,
                ..FirewallConfig::default()
            },
            FirewallConfig {
                gain_tol: 0.0,
                ..FirewallConfig::default()
            },
            FirewallConfig {
                stat_tol: -1.0,
                ..FirewallConfig::default()
            },
            FirewallConfig {
                threshold: 1.0,
                ..FirewallConfig::default()
            },
        ] {
            assert!(FirewallStage::new(8, bad).is_err(), "{bad:?}");
        }
        assert!(FirewallStage::new(0, FirewallConfig::default()).is_err());
    }

    #[test]
    fn in_family_stream_passes_bit_exact_with_no_quarantines() {
        let channels = 32;
        let mut stage = FirewallStage::new(channels, FirewallConfig::default()).unwrap();
        let mut out = FrameBuf::new();
        for k in 0..2_000 {
            let codes = steady(k, channels);
            stage.process(&Frame::Codes(&codes), &mut out).unwrap();
            assert_eq!(
                out.as_frame(),
                Frame::Codes(codes.as_slice()),
                "step {k}: clean frame must pass bit-exact"
            );
        }
        assert_eq!(stage.firewalled(), 0);
        let t = stage.secure_telemetry().unwrap();
        assert_eq!(t.firewalled, 0);
        assert!(
            t.coherence_ppm > 900_000,
            "steady stream scores near 1.0, got {} ppm",
            t.coherence_ppm
        );
    }

    #[test]
    fn dead_channel_run_is_quarantined() {
        let channels = 32;
        let (mut stage, mut out) = warm_stage(channels, 500);
        // Half the array goes dark: a gross gain anomaly.
        let mut codes = steady(500, channels);
        for code in codes.iter_mut().take(channels / 2) {
            *code = 0;
        }
        stage.process(&Frame::Codes(&codes), &mut out).unwrap();
        assert_eq!(
            out.as_frame(),
            Frame::Codes(&[]),
            "anomalous frame must come out as the gap marker"
        );
        assert_eq!(stage.firewalled(), 1);
        assert!(stage.coherence() < 0.5);
    }

    #[test]
    fn saturated_array_is_quarantined_and_does_not_walk_the_baseline() {
        let channels = 16;
        let (mut stage, mut out) = warm_stage(channels, 500);
        let hot = vec![1023_u16; channels];
        for _ in 0..50 {
            stage.process(&Frame::Codes(&hot), &mut out).unwrap();
            assert_eq!(out.as_frame(), Frame::Codes(&[]));
        }
        assert_eq!(stage.firewalled(), 50, "every saturated frame caught");
        // Quarantined frames trained nothing: the in-family stream
        // still passes.
        let codes = steady(501, channels);
        stage.process(&Frame::Codes(&codes), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(codes.as_slice()));
        assert_eq!(stage.firewalled(), 50);
    }

    #[test]
    fn gap_markers_pass_through_unscored() {
        let (mut stage, mut out) = warm_stage(8, 200);
        let before = stage.secure_telemetry().unwrap();
        stage.process(&Frame::Codes(&[]), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[]));
        assert_eq!(stage.secure_telemetry().unwrap(), before);
    }

    #[test]
    fn non_finite_values_score_zero_coherence() {
        let channels = 8;
        let config = FirewallConfig {
            warmup: 4,
            ..FirewallConfig::default()
        };
        let mut stage = FirewallStage::new(channels, config).unwrap();
        let mut out = FrameBuf::new();
        let clean = vec![0.25_f64; channels];
        for _ in 0..8 {
            stage.process(&Frame::Values(&clean), &mut out).unwrap();
        }
        let mut poisoned = clean.clone();
        poisoned[3] = f64::NAN;
        stage.process(&Frame::Values(&poisoned), &mut out).unwrap();
        assert_eq!(out.as_frame(), Frame::Values(&[]));
        assert_eq!(stage.coherence(), 0.0);
        assert_eq!(stage.firewalled(), 1);
    }

    #[test]
    fn width_and_kind_are_validated() {
        let mut stage = FirewallStage::new(4, FirewallConfig::default()).unwrap();
        let mut out = FrameBuf::new();
        assert!(stage.process(&Frame::Codes(&[1, 2]), &mut out).is_err());
        assert!(stage.process(&Frame::Bytes(&[1]), &mut out).is_err());
        assert!(stage.process(&Frame::Empty, &mut out).is_err());
    }

    #[test]
    fn telemetry_merge_adds_counters_and_takes_worst_coherence() {
        let link = SecureTelemetry {
            sealed: 10,
            accepted: 9,
            rejected_auth: 1,
            ..SecureTelemetry::default()
        };
        let firewall = SecureTelemetry {
            firewalled: 2,
            coherence_ppm: 250_000,
            ..SecureTelemetry::default()
        };
        let m = link.merged(firewall);
        assert_eq!(m.sealed, 10);
        assert_eq!(m.accepted, 9);
        assert_eq!(m.rejected_auth, 1);
        assert_eq!(m.firewalled, 2);
        assert_eq!(m.coherence_ppm, 250_000, "min wins");
    }
}
