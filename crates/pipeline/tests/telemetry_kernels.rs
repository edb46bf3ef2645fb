//! Kernel equivalence for the telemetry path: the single-pass
//! [`FirewallStage`] and the copy-through [`ConcealStage`] against the
//! straightforward per-channel loops they replaced, kept here as
//! oracles.
//!
//! Every comparison is bit-exact — emitted frames, coherence scores,
//! and counters — on seeded streams that cover the edges the fast paths
//! reason about: non-finite channels, gain drift, upstream gaps that
//! break the rate-of-change chain, the warm-up boundary, and
//! extrapolation outside the integer code range.

use mindful_pipeline::prelude::*;
use mindful_pipeline::{Frame, FrameBuf, Stage};

/// SplitMix64: a tiny seeded generator for reproducible streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1_u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A frame's kind and channel bit patterns: equality here is bit
/// equality, NaN payloads and signed zeros included.
fn bits(frame: Frame<'_>) -> (FrameKind, Vec<u64>) {
    let words = match frame {
        Frame::Codes(v) => v.iter().map(|&x| u64::from(x)).collect(),
        Frame::Counts(v) => v.iter().map(|&x| u64::from(x)).collect(),
        Frame::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        Frame::Activations(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
        other => panic!("unexpected {:?} frame", other.kind()),
    };
    (frame.kind(), words)
}

/// An owned input frame of any kind the two stages accept.
#[derive(Debug, Clone)]
enum Input {
    Codes(Vec<u16>),
    Counts(Vec<u32>),
    Values(Vec<f64>),
    Activations(Vec<f32>),
}

impl Input {
    fn frame(&self) -> Frame<'_> {
        match self {
            Self::Codes(v) => Frame::Codes(v),
            Self::Counts(v) => Frame::Counts(v),
            Self::Values(v) => Frame::Values(v),
            Self::Activations(v) => Frame::Activations(v),
        }
    }

    /// The empty frame of this kind: the in-band gap marker.
    fn gap(&self) -> Self {
        match self {
            Self::Codes(_) => Self::Codes(Vec::new()),
            Self::Counts(_) => Self::Counts(Vec::new()),
            Self::Values(_) => Self::Values(Vec::new()),
            Self::Activations(_) => Self::Activations(Vec::new()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Codes,
    Counts,
    Values,
    Activations,
}

const KINDS: [Kind; 4] = [Kind::Codes, Kind::Counts, Kind::Values, Kind::Activations];

/// Builds one frame of `kind` from per-channel levels. Integer kinds
/// saturate into their range; real kinds keep the level as is
/// (non-finite levels included).
fn build(kind: Kind, levels: &[f64]) -> Input {
    match kind {
        Kind::Codes => Input::Codes(levels.iter().map(|&v| v as u16).collect()),
        Kind::Counts => Input::Counts(levels.iter().map(|&v| v as u32).collect()),
        Kind::Values => Input::Values(levels.to_vec()),
        Kind::Activations => Input::Activations(levels.iter().map(|&v| v as f32).collect()),
    }
}

/// A neural-looking stream with the firewall's failure modes mixed in:
/// per-channel baselines with noise, a slow gain drift on part of the
/// array, upstream gaps (single and in runs), gross anomalies (dead and
/// saturated runs) and — for real kinds — NaN and infinite channels.
fn telemetry_stream(kind: Kind, channels: usize, frames: usize, seed: u64) -> Vec<Input> {
    let mut rng = Rng(seed);
    let real = matches!(kind, Kind::Values | Kind::Activations);
    let scale = if real { 1.0 / 1024.0 } else { 1.0 };
    let base: Vec<f64> = (0..channels).map(|_| 200.0 + 600.0 * rng.unit()).collect();
    let mut gap_run = 0;
    (0..frames)
        .map(|k| {
            let drift = 1.0 + 0.002 * k as f64;
            let mut levels: Vec<f64> = base
                .iter()
                .enumerate()
                .map(|(c, &b)| {
                    let gain = if c % 3 == 0 { drift } else { 1.0 };
                    (b * gain + 40.0 * (rng.unit() - 0.5)) * scale
                })
                .collect();
            let roll = rng.below(100);
            if gap_run > 0 || roll < 4 {
                gap_run = if gap_run > 0 {
                    gap_run - 1
                } else {
                    rng.below(4)
                };
                return build(kind, &levels).gap();
            }
            let start = rng.below(channels as u64) as usize;
            let len = 1 + rng.below((channels - start) as u64) as usize;
            match roll {
                4..=6 => levels[start..start + len].fill(0.0),
                7..=9 => levels[start..start + len].fill(1023.0 * scale),
                10..=11 if real => levels[start] = f64::NAN,
                12 if real => levels[start] = f64::INFINITY,
                13 if real => levels[start..start + len].fill(f64::NEG_INFINITY),
                _ => {}
            }
            build(kind, &levels)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Firewall oracle: the seven-pass scorer and the training pass that
// recomputed the frame's moments.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct EwStat {
    mean: f64,
    var: f64,
}

impl EwStat {
    fn update(&mut self, x: f64, alpha: f64) {
        let d = x - self.mean;
        self.mean += alpha * d;
        self.var = (1.0 - alpha) * (self.var + alpha * d * d);
    }

    fn z_squared(&self, x: f64) -> f64 {
        let eps = 1e-6 + 1e-4 * self.mean * self.mean;
        let d = x - self.mean;
        d * d / (self.var + eps)
    }
}

struct OracleFirewall {
    channels: usize,
    config: FirewallConfig,
    gain: Vec<EwStat>,
    power: EwStat,
    rate: EwStat,
    prev: Vec<f64>,
    tau_valid: bool,
    seen: u64,
    firewalled: u64,
    coherence: f64,
    scratch: Vec<f64>,
}

impl OracleFirewall {
    fn new(channels: usize, config: FirewallConfig) -> Self {
        Self {
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
        }
    }

    fn penalty(z2: f64, tol: f64) -> f64 {
        ((z2 - tol) / tol).max(0.0)
    }

    fn score(&self) -> f64 {
        let mut gamma = 0.0;
        let mut sum = 0.0;
        for (c, stat) in self.gain.iter().enumerate() {
            let x = self.scratch[c];
            if !x.is_finite() {
                return 0.0;
            }
            gamma += Self::penalty(stat.z_squared(x), self.config.gain_tol);
            sum += x;
        }
        gamma /= self.channels as f64;
        let mean = sum / self.channels as f64;
        let var = self
            .scratch
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.channels as f64;
        let phi = Self::penalty(self.power.z_squared(var), self.config.stat_tol);
        let tau = if !self.tau_valid {
            0.0
        } else {
            let step = self
                .scratch
                .iter()
                .zip(&self.prev)
                .map(|(&x, &p)| (x - p).abs())
                .sum::<f64>()
                / self.channels as f64;
            Self::penalty(self.rate.z_squared(step), self.config.stat_tol)
        };
        (-(gamma + phi + tau)).exp()
    }

    fn train(&mut self) {
        let alpha = self.config.alpha;
        let mut sum = 0.0;
        for (c, stat) in self.gain.iter_mut().enumerate() {
            let x = self.scratch[c];
            stat.update(x, alpha);
            sum += x;
        }
        let mean = sum / self.channels as f64;
        let var = self
            .scratch
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.channels as f64;
        self.power.update(var, alpha);
        if self.tau_valid {
            let step = self
                .scratch
                .iter()
                .zip(&self.prev)
                .map(|(&x, &p)| (x - p).abs())
                .sum::<f64>()
                / self.channels as f64;
            self.rate.update(step, alpha);
        }
        self.prev.copy_from_slice(&self.scratch);
        self.tau_valid = true;
        self.seen += 1;
    }

    fn admit(&mut self) -> bool {
        if self.seen < self.config.warmup {
            self.coherence = 1.0;
            self.train();
            return true;
        }
        self.coherence = self.score();
        if self.coherence < self.config.threshold {
            self.firewalled += 1;
            self.tau_valid = false;
            false
        } else {
            self.train();
            true
        }
    }

    /// The old stage's `process`, returning the emitted frame.
    fn process(&mut self, input: &Input) -> Input {
        let empty = input.frame().is_empty();
        if empty {
            self.tau_valid = false;
            return input.gap();
        }
        self.scratch.clear();
        match input {
            Input::Codes(v) => self.scratch.extend(v.iter().map(|&c| f64::from(c))),
            Input::Counts(v) => self.scratch.extend(v.iter().map(|&c| f64::from(c))),
            Input::Values(v) => self.scratch.extend_from_slice(v),
            Input::Activations(v) => self.scratch.extend(v.iter().map(|&x| f64::from(x))),
        }
        if self.admit() {
            input.clone()
        } else {
            input.gap()
        }
    }
}

fn firewall_configs() -> Vec<FirewallConfig> {
    let base = FirewallConfig::default();
    vec![
        base,
        // A short warm-up puts the live screen's first frames, and the
        // warm-up boundary, in the middle of the stream.
        FirewallConfig { warmup: 5, ..base },
        // A jumpy screen that quarantines often, breaking the τ chain.
        FirewallConfig {
            warmup: 3,
            threshold: 0.95,
            gain_tol: 1.0,
            stat_tol: 1.0,
            alpha: 0.3,
        },
        // A zero threshold accepts even non-finite frames, which then
        // train without scored moments.
        FirewallConfig {
            warmup: 2,
            threshold: 0.0,
            ..base
        },
    ]
}

#[test]
fn firewall_matches_the_multi_pass_oracle_bit_for_bit() {
    let mut out = FrameBuf::new();
    for (ci, config) in firewall_configs().into_iter().enumerate() {
        for kind in KINDS {
            for (channels, frames) in [(1, 300), (7, 400), (64, 400), (1024, 120)] {
                let seed = 0xF1E7 ^ ((ci as u64) << 32) ^ channels as u64;
                let stream = telemetry_stream(kind, channels, frames, seed);
                let mut fast = FirewallStage::new(channels, config).unwrap();
                let mut oracle = OracleFirewall::new(channels, config);
                for (k, input) in stream.iter().enumerate() {
                    fast.process(&input.frame(), &mut out).unwrap();
                    let expected = oracle.process(input);
                    let ctx = format!("config {ci}, {kind:?}, {channels} ch, frame {k}");
                    assert_eq!(bits(out.as_frame()), bits(expected.frame()), "{ctx}");
                    assert_eq!(
                        fast.coherence().to_bits(),
                        oracle.coherence.to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(fast.firewalled(), oracle.firewalled, "{ctx}");
                }
                let t = fast.secure_telemetry().unwrap();
                assert_eq!(t.firewalled, oracle.firewalled);
                if ci == 2 {
                    assert!(
                        oracle.firewalled > 0,
                        "{kind:?} {channels}: the screen fired"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Concealer oracle: every frame through f64, rounded and clamped back,
// with the policy chosen per channel.
// ---------------------------------------------------------------------

struct OracleConceal {
    channels: usize,
    policy: DegradePolicy,
    last: Vec<f64>,
    older: Vec<f64>,
    seen: usize,
    degraded: u64,
    quarantined: u64,
    scratch: Vec<f64>,
}

impl OracleConceal {
    fn new(channels: usize, policy: DegradePolicy) -> Self {
        Self {
            channels,
            policy,
            last: vec![0.0; channels],
            older: vec![0.0; channels],
            seen: 0,
            degraded: 0,
            quarantined: 0,
            scratch: Vec::new(),
        }
    }

    fn predict(&self, c: usize) -> f64 {
        match (self.policy, self.seen) {
            (DegradePolicy::ZeroFill, _) | (_, 0) => 0.0,
            (DegradePolicy::HoldLast, _) | (DegradePolicy::Interpolate, 1) => self.last[c],
            (DegradePolicy::Interpolate, _) => 2.0 * self.last[c] - self.older[c],
        }
    }

    fn conceal(&mut self, gap: bool) {
        if gap {
            self.degraded += 1;
            self.scratch.clear();
            for c in 0..self.channels {
                self.scratch.push(self.predict(c));
            }
        } else if self.scratch.iter().any(|v| !v.is_finite()) {
            self.quarantined += 1;
            for c in 0..self.channels {
                if !self.scratch[c].is_finite() {
                    self.scratch[c] = self.predict(c);
                }
            }
        }
        core::mem::swap(&mut self.older, &mut self.last);
        self.last.copy_from_slice(&self.scratch);
        self.seen = (self.seen + 1).min(2);
    }

    fn round_clamp(v: f64, max: f64) -> f64 {
        v.round().clamp(0.0, max)
    }

    /// The old stage's `process`, returning the emitted frame.
    fn process(&mut self, input: &Input) -> Input {
        let gap = input.frame().is_empty();
        self.scratch.clear();
        if !gap {
            match input {
                Input::Codes(v) => self.scratch.extend(v.iter().map(|&c| f64::from(c))),
                Input::Counts(v) => self.scratch.extend(v.iter().map(|&c| f64::from(c))),
                Input::Values(v) => self.scratch.extend_from_slice(v),
                Input::Activations(v) => self.scratch.extend(v.iter().map(|&x| f64::from(x))),
            }
        }
        self.conceal(gap);
        let s = &self.scratch;
        match input {
            Input::Codes(_) => Input::Codes(
                s.iter()
                    .map(|&v| Self::round_clamp(v, f64::from(u16::MAX)) as u16)
                    .collect(),
            ),
            Input::Counts(_) => Input::Counts(
                s.iter()
                    .map(|&v| Self::round_clamp(v, f64::from(u32::MAX)) as u32)
                    .collect(),
            ),
            Input::Values(_) => Input::Values(s.clone()),
            Input::Activations(_) => Input::Activations(s.iter().map(|&v| v as f32).collect()),
        }
    }
}

const POLICIES: [DegradePolicy; 3] = [
    DegradePolicy::HoldLast,
    DegradePolicy::ZeroFill,
    DegradePolicy::Interpolate,
];

/// A stream whose frames swing between the ends of the integer range,
/// so linear extrapolation across a gap overshoots both ways (below 0
/// and above the code range) and runs of gaps keep walking outward.
fn swinging_stream(kind: Kind, channels: usize, frames: usize, seed: u64) -> Vec<Input> {
    let mut rng = Rng(seed);
    let top = match kind {
        Kind::Codes => f64::from(u16::MAX),
        Kind::Counts => f64::from(u32::MAX),
        Kind::Values | Kind::Activations => 1.0,
    };
    (0..frames)
        .map(|_| {
            let levels: Vec<f64> = (0..channels)
                .map(|_| match rng.below(4) {
                    0 => 0.0,
                    1 => top,
                    _ if kind == Kind::Values => top * rng.unit(),
                    _ => (top * rng.unit()).floor(),
                })
                .collect();
            let frame = build(kind, &levels);
            if rng.below(3) == 0 {
                frame.gap()
            } else {
                frame
            }
        })
        .collect()
}

#[test]
fn concealer_matches_the_per_channel_oracle_bit_for_bit() {
    let mut out = FrameBuf::new();
    for policy in POLICIES {
        for kind in KINDS {
            for channels in [1, 5, 64, 1024] {
                let seed = 0xC0C0 ^ channels as u64 ^ ((kind as u64) << 40);
                let telemetry = telemetry_stream(kind, channels, 200, seed);
                let swinging = swinging_stream(kind, channels, 200, seed + 1);
                let good = telemetry.iter().find(|f| !f.frame().is_empty()).unwrap();
                // A gap with no history, and gaps after one good frame.
                for prefix in [vec![good.gap()], vec![good.clone(), good.gap(), good.gap()]] {
                    let stream = prefix.iter().chain(&telemetry).chain(&swinging);
                    let mut fast = ConcealStage::new(channels, policy).unwrap();
                    let mut oracle = OracleConceal::new(channels, policy);
                    for (k, input) in stream.enumerate() {
                        fast.process(&input.frame(), &mut out).unwrap();
                        let expected = oracle.process(input);
                        let ctx = format!("{policy:?}, {kind:?}, {channels} ch, frame {k}");
                        assert_eq!(bits(out.as_frame()), bits(expected.frame()), "{ctx}");
                        assert_eq!(fast.degraded(), oracle.degraded, "{ctx}");
                        assert_eq!(fast.quarantined(), oracle.quarantined, "{ctx}");
                    }
                    assert!(oracle.degraded > 0, "gaps were concealed");
                    if matches!(kind, Kind::Values | Kind::Activations) {
                        assert!(oracle.quarantined > 0, "non-finite channels were repaired");
                    }
                }
            }
        }
    }
}

/// The extrapolation edges the saturating cast must clamp exactly like
/// round-then-clamp did: runs of gaps walking below zero and above the
/// top of the code range, for both integer kinds.
#[test]
fn interpolated_gaps_clamp_outside_the_code_range() {
    let mut out = FrameBuf::new();
    let cases: [(Input, Input, &[u64]); 4] = [
        (Input::Codes(vec![9]), Input::Codes(vec![2]), &[0, 0, 0]),
        (
            Input::Codes(vec![65_000]),
            Input::Codes(vec![65_500]),
            &[65_535, 65_535, 65_535],
        ),
        (Input::Counts(vec![7]), Input::Counts(vec![3]), &[0, 0, 0]),
        (
            Input::Counts(vec![u32::MAX - 1]),
            Input::Counts(vec![u32::MAX]),
            &[u64::from(u32::MAX); 3],
        ),
    ];
    for (first, second, expect) in cases {
        let mut fast = ConcealStage::new(1, DegradePolicy::Interpolate).unwrap();
        let mut oracle = OracleConceal::new(1, DegradePolicy::Interpolate);
        for input in [&first, &second] {
            fast.process(&input.frame(), &mut out).unwrap();
            oracle.process(input);
        }
        let gap = first.gap();
        for &want in expect {
            fast.process(&gap.frame(), &mut out).unwrap();
            let expected = oracle.process(&gap);
            assert_eq!(bits(out.as_frame()), bits(expected.frame()));
            assert_eq!(bits(out.as_frame()).1, vec![want], "{first:?} → {second:?}");
        }
        // The history kept walking past the clamp: a good frame resets it.
        fast.process(&second.frame(), &mut out).unwrap();
        oracle.process(&second);
        fast.process(&gap.frame(), &mut out).unwrap();
        assert_eq!(bits(out.as_frame()), bits(oracle.process(&gap).frame()));
    }
}
