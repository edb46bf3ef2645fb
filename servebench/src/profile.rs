//! Direct timings of single layers: the decoder forward pass and each
//! of its layers as a one-layer network, and one registry histogram
//! record.

use std::hint::black_box;
use std::time::Instant;

use mindful_core::obs::Histogram;
use mindful_dnn::arch::Architecture;
use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};

use crate::report::median_f;
use crate::rig::Res;

pub struct LayerTime {
    pub us: f64,
    pub gmacs: f64,
}

pub struct DnnProfile {
    pub forward_us: f64,
    pub layers: Vec<LayerTime>,
    /// Σ layer medians ÷ forward median.
    pub layer_sum_ratio: f64,
}

/// Median wall time of `network.forward_into` over `reps` calls, in µs.
fn forward_us(network: &Network, reps: usize) -> Res<f64> {
    let input: Vec<f32> = (0..network.architecture().input_values())
        .map(|i| ((i % 23) as f32 - 11.0) / 11.0)
        .collect();
    let mut workspace = network.workspace();
    for _ in 0..3 {
        black_box(network.forward_into(black_box(&input), &mut workspace)?);
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(network.forward_into(black_box(&input), &mut workspace)?);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median_f(&mut times))
}

pub fn dnn(family: ModelFamily, reps: usize, seed: u64) -> Res<DnnProfile> {
    let arch = family.architecture(BASE_CHANNELS)?;
    let forward = forward_us(&Network::with_seeded_weights(arch.clone(), seed), reps)?;
    let mut layers = Vec::with_capacity(arch.len());
    for (i, layer) in arch.layers().iter().enumerate() {
        let single = Architecture::new(format!("{}-L{i}", arch.name()), vec![*layer])?;
        let us = forward_us(&Network::with_seeded_weights(single, seed), reps)?;
        layers.push(LayerTime {
            us,
            gmacs: layer.macs() as f64 / (us * 1e3),
        });
    }
    let sum: f64 = layers.iter().map(|l| l.us).sum();
    Ok(DnnProfile {
        forward_us: forward,
        layers,
        layer_sum_ratio: sum / forward,
    })
}

/// Median cost of one `Histogram::record`, in ns.
pub fn histogram_record_ns() -> f64 {
    const BATCH: u64 = 1 << 18;
    let histogram = Histogram::new();
    let mut batches = Vec::with_capacity(7);
    for b in 0..7 {
        let t = Instant::now();
        for i in 0..BATCH {
            histogram.record(black_box((i + b) * 7_919 % 1_000_003));
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }
    black_box(histogram.count());
    median_f(&mut batches)
}
