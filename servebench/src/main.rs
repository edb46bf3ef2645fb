//! The serving benchmark: one command, three workloads, outputs
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload rt-2khz|fleet-fine|cnn-bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced fleet.
//! `--trace 1` runs an untraced half and a traced half of the same
//! length and reports the per-layer metrics. Human-readable lines
//! (host fingerprint, sample counts) come first; the last line of
//! standard output is one JSON object. The exit code is nonzero when
//! any correctness check fails.

mod profile;
mod report;
mod rig;
mod trace;

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

use mindful_core::obs::Registry;
use mindful_core::pool::Scheduler;
use mindful_dnn::models::ModelFamily;

use report::{median_f, percentile, Pct};
use rig::{Inputs, Pass, Res, Rig, Workload};
use trace::STAGES;

/// Set-ups per run; `setup_s` is the median of their process CPU time
/// and `setup_wall_s` of their wall time.
const SETUPS: usize = 5;
/// Span room per fleet seat in a traced pass.
const SPANS_PER_SEAT: usize = 1 << 18;
/// End-to-end metrics that gate a change (`--trace 0`). Every other
/// untraced figure is a diagnostic reported with the per-layer set.
const GATED: &[&str] = &["setup_s", "cpu_us_per_step", "peak_rss_mib"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<Pct>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

fn pct_metric(name: &str, samples: &mut [u64], q: f64) -> Metric {
    let p = percentile(samples, q);
    Metric {
        name: name.to_string(),
        value: p.value / 1e3,
        unit: "us",
        samples: Some(p),
    }
}

/// Peak resident memory of this process image (`VmHWM`, which unlike
/// `getrusage` does not carry over the launcher's memory across exec).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median over the pass's one-second windows (the whole pass when it
/// is shorter than one window), so a stalled second moves it little.
fn steps_per_s(pass: &Pass) -> f64 {
    if pass.window_rates.is_empty() {
        return pass.stepped as f64 / pass.wall_s;
    }
    median_f(&mut pass.window_rates.clone())
}

/// Program CPU time per completed session-step.
fn cpu_us_per_step(pass: &Pass) -> f64 {
    pass.cpu_s * 1e6 / pass.stepped.max(1) as f64
}

/// The untraced figures of one pass.
fn untraced_metrics(pass: &mut Pass, (setup_cpu, setup_wall): (f64, f64)) -> Vec<Metric> {
    let failed = pass.requested.saturating_sub(pass.stepped + pass.shed);
    let mut out = vec![
        metric("setup_s", setup_cpu, "s"),
        metric("setup_wall_s", setup_wall, "s"),
        metric("steps_per_s", steps_per_s(pass), "1/s"),
        pct_metric("lateness_p50_us", &mut pass.lateness_ns, 0.5),
        pct_metric("lateness_p99_us", &mut pass.lateness_ns, 0.99),
        pct_metric("epoch_p50_us", &mut pass.epoch_ns, 0.5),
        pct_metric("epoch_p99_us", &mut pass.epoch_ns, 0.99),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("cpu_us_per_step", cpu_us_per_step(pass), "us"),
        metric(
            "on_time_rate",
            pass.on_time as f64 / pass.deadline_requested.max(1) as f64,
            "ratio",
        ),
        metric(
            "error_rate",
            failed as f64 / pass.requested.max(1) as f64,
            "ratio",
        ),
    ];
    if !pass.gen_lag_ns.is_empty() {
        out.push(pct_metric("gen.lag_p99_us", &mut pass.gen_lag_ns, 0.99));
    } else {
        out.push(metric("gen.lag_p99_us", 0.0, "us"));
    }
    out
}

fn dnn_metrics(out: &mut Vec<Metric>, seed: u64) -> Res<()> {
    for (family, label, reps) in [
        (ModelFamily::Mlp, "mlp", 200),
        (ModelFamily::DnCnn, "dncnn", 30),
    ] {
        let p = profile::dnn(family, reps, seed)?;
        out.push(metric(
            format!("dnn.{label}.forward_us"),
            p.forward_us,
            "us",
        ));
        for (i, layer) in p.layers.iter().enumerate() {
            out.push(metric(format!("dnn.{label}.L{i}.us"), layer.us, "us"));
            out.push(metric(
                format!("dnn.{label}.L{i}.gmacs"),
                layer.gmacs,
                "GMAC/s",
            ));
        }
        out.push(metric(
            format!("dnn.{label}.layer_sum_ratio"),
            p.layer_sum_ratio,
            "ratio",
        ));
    }
    Ok(())
}

struct Outcome {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Res<Outcome> {
    let nproc = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let workers = args.workload.workers(nproc);
    let inputs = Inputs::generate(args.workload, args.seed)?;
    let envs: Vec<(Scheduler, Registry)> = (0..SETUPS)
        .map(|_| {
            (
                Scheduler::new(NonZeroUsize::new(workers).expect("at least one worker")),
                Registry::new(),
            )
        })
        .collect();
    let mut setup_cpu = Vec::with_capacity(SETUPS);
    let mut setup_wall = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for (scheduler, registry) in &envs {
        drop(kept.take());
        let (t, cpu) = (Instant::now(), trace::process_cpu_ns());
        let mut rig = Rig::build(&inputs, scheduler, registry)?;
        rig.warm_up()?;
        setup_cpu.push((trace::process_cpu_ns() - cpu) as f64 / 1e9);
        setup_wall.push(t.elapsed().as_secs_f64());
        kept = Some(rig);
    }
    let mut rig = kept.expect("at least one set-up");
    let setup = (median_f(&mut setup_cpu), median_f(&mut setup_wall));

    let mut lines = vec![format!(
        "host nproc={nproc} simd={} obs={} workers={workers} oversubscribed={}",
        mindful_dnn::simd::level(),
        if rig.obs_on() { "on" } else { "off" },
        workers > nproc,
    )];
    if args.trace {
        rig.reserve_spans(SPANS_PER_SEAT);
    }
    let [mut untraced, traced] = rig.run(args.seconds, args.trace)?;
    let mut traced = args.trace.then_some(traced);
    let mut problems = rig.finish(args.trace);
    if rig.stage_errors > 0 {
        problems.push(format!(
            "{} epochs surfaced a stage error",
            rig.stage_errors
        ));
    }
    let (mut attempted, mut failed) = (0, 0);
    for pass in std::iter::once(&untraced).chain(traced.as_ref()) {
        attempted += pass.requested;
        failed += pass.requested.saturating_sub(pass.stepped + pass.shed);
    }
    let untraced_rate = steps_per_s(&untraced);
    lines.push(format!(
        "windows steps_per_s={:?}",
        untraced
            .window_rates
            .iter()
            .map(|r| r.round())
            .collect::<Vec<_>>()
    ));
    lines.push(format!(
        "windows cpu_us_per_step={:?}",
        untraced
            .window_cpu
            .iter()
            .map(|r| r.round())
            .collect::<Vec<_>>()
    ));
    let mut metrics = untraced_metrics(&mut untraced, setup);

    if let Some(traced) = traced.as_mut() {
        let stats = report::analyze(&mut rig.retired, &traced.epochs, rig.workers);
        if stats.overcommitted > 0 {
            problems.push(format!(
                "{} of {} epochs: summed stage spans exceed workers x epoch wall",
                stats.overcommitted, stats.epochs
            ));
        }
        if stats.epochs == 0 {
            problems.push("the traced pass attributed no spans to any epoch".to_string());
        }
        lines.push(format!(
            "trace epochs={} spans_dropped={}",
            stats.epochs,
            rig.dropped_spans()
        ));
        let mut request_ns: Vec<f64> = traced.epochs.iter().map(|e| e.request_ns).collect();
        let shed_per_epoch = traced.shed as f64 / traced.epochs.len().max(1) as f64;
        let mut admit = rig.admit_ns.clone();
        let mut evict = rig.evict_ns.clone();
        let link = rig.link;
        metrics.extend([
            metric("serve.pre_dispatch_us", stats.pre_dispatch_us, "us"),
            metric("serve.post_dispatch_us", stats.post_dispatch_us, "us"),
            metric("serve.queue_wait_us", stats.queue_wait_us, "us"),
            metric("serve.admit_us", report::median(&mut admit) / 1e3, "us"),
            metric("serve.evict_us", report::median(&mut evict) / 1e3, "us"),
            metric("serve.request_ns", median_f(&mut request_ns), "ns"),
            metric("serve.shed_per_epoch", shed_per_epoch, "count"),
            metric("pool.phase_gap_us", stats.phase_gap_us, "us"),
            metric("pool.worker_busy_share", stats.busy_share, "ratio"),
            metric("pool.worker_skew_us", stats.worker_skew_us, "us"),
        ]);
        for (i, name) in STAGES.iter().enumerate() {
            metrics.push(metric(format!("stage.{name}.us"), stats.stage_us[i], "us"));
            metrics.push(metric(
                format!("stage.{name}.calls"),
                stats.stage_calls[i] as f64,
                "count",
            ));
        }
        metrics.extend([
            metric(
                "link.delivered_ratio",
                if link.sent == 0 {
                    0.0
                } else {
                    (link.played - link.lost) as f64 / link.sent as f64
                },
                "ratio",
            ),
            metric("link.retransmits", link.naks as f64, "count"),
            metric("link.auth_rejects", link.auth_rejects as f64, "count"),
        ]);
        dnn_metrics(&mut metrics, rig::mix(args.seed, 9))?;
        metrics.push(metric(
            "obs.record_ns",
            profile::histogram_record_ns(),
            "ns",
        ));
        metrics.push(metric(
            "trace.overhead_ratio",
            steps_per_s(traced) / untraced_rate,
            "ratio",
        ));
        metrics.push(metric(
            "trace.cpu_overhead_ratio",
            cpu_us_per_step(traced) / cpu_us_per_step(&untraced),
            "ratio",
        ));
    }
    Ok(Outcome {
        lines,
        metrics,
        problems,
        attempted,
        failed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.lines {
        println!("# {line}");
    }
    for m in &outcome.metrics {
        let gated = GATED.contains(&m.name.as_str());
        let samples = m.samples.map_or(String::new(), |p| {
            format!(
                " n={} beyond={}{}",
                p.n,
                p.beyond,
                if p.beyond < 10 { " (too few)" } else { "" }
            )
        });
        println!(
            "# {:<26} {:>16} {:<7}{}{}",
            m.name,
            m.value,
            m.unit,
            samples,
            if gated { "" } else { " [diagnostic]" }
        );
    }
    let mut problems = outcome.problems;
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number", m.name));
    }
    for p in &problems {
        println!("# CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let reported: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| GATED.contains(&m.name.as_str()) != args.trace)
        .map(|m| {
            // A non-finite value has already failed the run; 0 keeps
            // the line valid JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        reported.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
