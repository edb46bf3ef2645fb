//! Statistics over raw samples and the traced pass's span analysis.

use mindful_pipeline::PriorityClass;

use crate::rig::EpochRec;
use crate::trace::{Span, STAGES};

/// A nearest-rank percentile with its sample count and how many
/// samples lie above it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `q` of `samples` (sorted in place).
pub fn percentile(samples: &mut [u64], q: f64) -> Pct {
    if samples.is_empty() {
        return Pct::default();
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: samples[rank - 1] as f64,
        n,
        beyond: n - rank,
    }
}

pub fn median(samples: &mut [u64]) -> f64 {
    percentile(samples, 0.5).value
}

pub fn median_f(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// Per-layer figures derived from the traced pass's spans.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub epochs: usize,
    pub pre_dispatch_us: f64,
    pub post_dispatch_us: f64,
    pub queue_wait_us: f64,
    pub phase_gap_us: f64,
    pub busy_share: f64,
    pub worker_skew_us: f64,
    pub stage_us: [f64; STAGES.len()],
    pub stage_calls: [u64; STAGES.len()],
    /// Epochs whose summed stage spans exceed workers × epoch wall.
    pub overcommitted: usize,
}

/// Attributes every span to the epoch whose wall interval contains it
/// (spans outside every epoch, such as eviction drains, are left out)
/// and reduces the per-epoch figures to medians.
pub fn analyze(
    spans: &mut [(Span, PriorityClass)],
    epochs: &[EpochRec],
    workers: usize,
) -> SpanStats {
    spans.sort_unstable_by_key(|(s, _)| s.start);
    let mut stats = SpanStats::default();
    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut wait = Vec::new();
    let mut gap = Vec::new();
    let mut skew = Vec::new();
    let mut per_stage: Vec<Vec<u64>> = vec![Vec::new(); STAGES.len()];
    let (mut busy_total, mut capacity_total) = (0_u64, 0_u64);
    // (class, thread, busy ns) for the current epoch.
    let mut threads: Vec<(usize, u32, u64)> = Vec::new();
    let mut next = 0;
    for epoch in epochs {
        while next < spans.len() && spans[next].0.start < epoch.start {
            next += 1;
        }
        let (mut first, mut last, mut busy) = (u64::MAX, 0_u64, 0_u64);
        let (mut rt_end, mut be_start) = (None::<u64>, None::<u64>);
        threads.clear();
        while next < spans.len() && spans[next].0.start <= epoch.end {
            let (span, class) = spans[next];
            next += 1;
            if span.end > epoch.end {
                continue;
            }
            let took = span.end - span.start;
            first = first.min(span.start);
            last = last.max(span.end);
            busy += took;
            per_stage[usize::from(span.stage)].push(took);
            match class {
                PriorityClass::Realtime => {
                    rt_end = Some(rt_end.map_or(span.end, |e| e.max(span.end)))
                }
                PriorityClass::BestEffort => {
                    be_start = Some(be_start.map_or(span.start, |s| s.min(span.start)));
                }
                PriorityClass::Interactive => {}
            }
            let c = class.index();
            match threads
                .iter_mut()
                .find(|(tc, t, _)| *tc == c && *t == span.thread)
            {
                Some(entry) => entry.2 += took,
                None => threads.push((c, span.thread, took)),
            }
        }
        if busy == 0 {
            continue;
        }
        stats.epochs += 1;
        let wall = epoch.end - epoch.start;
        let capacity = workers as u64 * wall;
        if busy > capacity {
            stats.overcommitted += 1;
        }
        busy_total += busy;
        capacity_total += capacity;
        pre.push(first - epoch.start);
        post.push(epoch.end - last);
        wait.push(first.saturating_sub(epoch.due));
        if let (Some(rt), Some(be)) = (rt_end, be_start) {
            gap.push(be.saturating_sub(rt));
        }
        // Skew per dispatch phase: the workers a phase spawns are
        // min(workers, sessions); one that ran nothing counts as 0.
        let mut epoch_skew = 0;
        for c in 0..PriorityClass::COUNT {
            let expected = workers.min(epoch.sessions[c]);
            if expected < 2 {
                continue;
            }
            let mut loads: Vec<u64> = threads
                .iter()
                .filter(|(tc, _, _)| *tc == c)
                .map(|&(_, _, b)| b)
                .collect();
            loads.resize(loads.len().max(expected), 0);
            let max = loads.iter().copied().max().unwrap_or(0);
            let min = loads.iter().copied().min().unwrap_or(0);
            epoch_skew += max - min;
        }
        skew.push(epoch_skew);
    }
    let us = |v: f64| v / 1e3;
    stats.pre_dispatch_us = us(median(&mut pre));
    stats.post_dispatch_us = us(median(&mut post));
    stats.queue_wait_us = us(median(&mut wait));
    stats.phase_gap_us = us(median(&mut gap));
    stats.worker_skew_us = us(median(&mut skew));
    stats.busy_share = if capacity_total == 0 {
        0.0
    } else {
        busy_total as f64 / capacity_total as f64
    };
    for (i, calls) in per_stage.iter_mut().enumerate() {
        stats.stage_calls[i] = calls.len() as u64;
        stats.stage_us[i] = us(median(calls));
    }
    stats
}
