//! Stress and failure tests for the [`Scheduler`]'s persistent worker
//! pool.
//!
//! * **Phased stress** — every worker count from 1 to 64 runs
//!   thousands of `dispatch_phased` epochs with seeded random phase
//!   sizes. Every ready index must run exactly once per phase, no task
//!   of phase `p + 1` may start before phase `p` has finished, and the
//!   scheduler's epoch/task ledger must sum exactly.
//! * **Panics** — a task that panics on a helper or on the caller is
//!   re-raised on the caller after the barrier, and the same scheduler
//!   serves the next epoch.
//! * **Busy pool** — two threads dispatching on one scheduler, and a
//!   task dispatching from inside a task, both complete.
//! * **Shutdown** — dropping a scheduler joins every helper thread.
//!
//! Set `MINDFUL_SOAK_QUICK=1` (CI short mode) to shrink the epoch count.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mindful_core::pool::{Scheduler, SchedulerStats, TaskSlot};

/// Phases per stress epoch (the fleet's class count).
const PHASES: usize = 3;
/// Slots per phase band; a phase draws a random subset of its band.
const BAND: usize = 24;

fn workers(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("positive worker count")
}

fn epochs() -> usize {
    if mindful_core::env::soak_quick() {
        200
    } else {
        2_000
    }
}

/// SplitMix64: a seeded, dependency-free generator for phase shapes.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Fills `ready` with a random subset of phase `p`'s band, in random
/// order; sizes skew small so single-task and empty phases (the inline
/// paths) are frequent too.
fn draw_phase(rng: &mut SplitMix, p: usize, ready: &mut Vec<usize>) {
    ready.clear();
    let len = match rng.below(4) {
        0 => rng.below(2),
        1 => rng.below(BAND / 4 + 1),
        _ => rng.below(BAND + 1),
    };
    let mut band: Vec<usize> = (p * BAND..(p + 1) * BAND).collect();
    for k in 0..len {
        let pick = k + rng.below(BAND - k);
        band.swap(k, pick);
        ready.push(band[k]);
    }
}

#[test]
fn phased_epochs_run_every_task_once_behind_strict_barriers() {
    let epochs = epochs();
    for w in 1..=64 {
        let scheduler = Scheduler::new(workers(w));
        let slots: Vec<TaskSlot<u64>> = (0..PHASES * BAND).map(|_| TaskSlot::new(0)).collect();
        let mut rng = SplitMix(0x5EED_0000 + w as u64);
        let mut ready: [Vec<usize>; PHASES] = Default::default();
        let mut expect = vec![0_u64; slots.len()];
        let mut tasks = 0_u64;
        for epoch in 0..epochs {
            for (p, list) in ready.iter_mut().enumerate() {
                draw_phase(&mut rng, p, list);
                for &i in list.iter() {
                    expect[i] += 1;
                }
                tasks += list.len() as u64;
            }
            // `done[p]` counts finished tasks of phase `p`; a task of
            // phase `p` starts only once every earlier phase is full
            // and no later phase has begun.
            let done: [AtomicUsize; PHASES] = Default::default();
            let started: [AtomicUsize; PHASES] = Default::default();
            let lens: [usize; PHASES] = std::array::from_fn(|p| ready[p].len());
            let phases: [&[usize]; PHASES] = std::array::from_fn(|p| ready[p].as_slice());
            scheduler.dispatch_phased(&slots, &phases, |idx, count| {
                let p = idx / BAND;
                started[p].fetch_add(1, Ordering::SeqCst);
                for (q, (finished, &len)) in done.iter().zip(&lens).enumerate().take(p) {
                    assert_eq!(
                        finished.load(Ordering::SeqCst),
                        len,
                        "{w} workers, epoch {epoch}: phase {p} started before phase {q} drained"
                    );
                }
                for (q, later) in started.iter().enumerate().skip(p + 1) {
                    assert_eq!(
                        later.load(Ordering::SeqCst),
                        0,
                        "{w} workers, epoch {epoch}: phase {q} overlapped phase {p}"
                    );
                }
                *count += 1;
                done[p].fetch_add(1, Ordering::SeqCst);
            });
            for (finished, &len) in done.iter().zip(&lens) {
                assert_eq!(finished.load(Ordering::SeqCst), len);
            }
        }
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.into_inner(), expect[i], "{w} workers: slot {i}");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.epochs, epochs as u64, "{w} workers");
        assert_eq!(stats.tasks, tasks, "{w} workers");
        assert!(stats.steals <= stats.tasks, "{w} workers: {stats:?}");
        if w == 1 {
            assert_eq!(stats.steals, 0, "one worker never steals");
        }
    }
}

#[test]
fn chunked_maps_on_the_pool_match_the_serial_partition() {
    let items: Vec<u64> = (0..211).collect();
    // The serial reference: one init per contiguous chunk of
    // ⌈n / threads⌉ items, folded in order.
    let reference = |threads: usize| -> Vec<(u64, u64)> {
        let chunk = items.len().div_ceil(threads.min(items.len()));
        let mut out = Vec::new();
        for (ci, part) in items.chunks(chunk).enumerate() {
            let mut acc = ci as u64 * 1_000;
            for &x in part {
                acc = acc.wrapping_mul(31).wrapping_add(x);
                out.push((x, acc));
            }
        }
        out
    };
    for w in [1, 2, 3, 7, 16] {
        let scheduler = Scheduler::new(workers(w));
        for threads in [2, 3, 5, 16, 64, 300] {
            for _ in 0..20 {
                let chunk = items.len().div_ceil(threads.min(items.len()));
                let got = scheduler.map_init_with(
                    &items,
                    workers(threads),
                    || None::<u64>,
                    |acc, i, &x| {
                        let base = (i / chunk) as u64 * 1_000;
                        let next = acc.unwrap_or(base).wrapping_mul(31).wrapping_add(x);
                        *acc = Some(next);
                        (x, next)
                    },
                );
                assert_eq!(got, reference(threads), "{w} workers, {threads} chunks");
                let mut owned = items.clone();
                let got = scheduler.map_mut_with(&mut owned, workers(threads), |i, x| {
                    *x += i as u64;
                    *x
                });
                assert_eq!(got, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
            }
        }
    }
}

/// Runs `f`, expecting it to panic with a `&str` payload, and returns
/// that payload.
fn expect_panic(f: impl FnOnce()) -> String {
    let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the dispatch must panic");
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("a string payload")
}

/// Blocks until `n` distinct threads are inside the same phase, so the
/// test knows the helpers really took part (bounded, never a hang).
fn rendezvous(arrived: &AtomicUsize, n: usize) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(30);
    while arrived.load(Ordering::SeqCst) < n {
        assert!(Instant::now() < deadline, "helpers never joined the phase");
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn a_panicking_task_reraises_on_the_caller_and_the_pool_survives() {
    let scheduler = Scheduler::new(workers(4));
    let slots: Vec<TaskSlot<u64>> = (0..4).map(|_| TaskSlot::new(0)).collect();
    let ready: Vec<usize> = (0..4).collect();
    let caller = std::thread::current().id();

    for panic_on_caller in [false, true] {
        let arrived = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let message = expect_panic(|| {
            scheduler.dispatch(&slots, &ready, |_, count| {
                // Four tasks, four participants, each held here until
                // all four are in: every helper runs exactly one task.
                rendezvous(&arrived, 4);
                let on_caller = std::thread::current().id() == caller;
                if on_caller == panic_on_caller {
                    if !on_caller {
                        // Let the caller reach its barrier first.
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    panic!("task failed on purpose");
                }
                *count += 1;
                // Slow survivors: the caller must still wait for them.
                std::thread::sleep(Duration::from_millis(5));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(message, "task failed on purpose");
        let survivors = if panic_on_caller { 3 } else { 1 };
        assert_eq!(
            finished.load(Ordering::SeqCst),
            survivors,
            "the barrier waited for every participant before re-raising"
        );
    }

    // The next epoch runs on the same scheduler, helpers included.
    let arrived = AtomicUsize::new(0);
    scheduler.dispatch(&slots, &ready, |_, count| {
        rendezvous(&arrived, 4);
        *count += 1;
    });
    let total: u64 = slots.into_iter().map(TaskSlot::into_inner).sum();
    assert_eq!(total, 1 + 3 + 4, "every surviving task ran exactly once");
    assert_eq!(
        scheduler.stats().epochs,
        1,
        "panicked epochs are not accounted"
    );
}

#[test]
fn a_panicking_chunk_reraises_and_the_next_map_completes() {
    let scheduler = Scheduler::new(workers(3));
    let items: Vec<u32> = (0..30).collect();
    let message = expect_panic(|| {
        scheduler.map_with(&items, workers(3), |i, &x| {
            assert!(i != 17, "chunk failed on purpose");
            x
        });
    });
    assert_eq!(message, "chunk failed on purpose");
    assert_eq!(
        scheduler.map_with(&items, workers(3), |_, &x| x + 1)[29],
        30
    );
}

#[test]
fn concurrent_callers_share_one_scheduler() {
    let scheduler = Scheduler::new(workers(3));
    let rounds = if mindful_core::env::soak_quick() {
        300
    } else {
        3_000
    };
    std::thread::scope(|scope| {
        for caller in 0..2_u64 {
            let scheduler = &scheduler;
            scope.spawn(move || {
                let slots: Vec<TaskSlot<u64>> = (0..9).map(|_| TaskSlot::new(0)).collect();
                let high = [0_usize, 1, 2, 3];
                let low = [4_usize, 5, 6, 7, 8];
                for _ in 0..rounds {
                    scheduler.dispatch_phased(&slots, &[&high, &low], |idx, count| {
                        *count += idx as u64 + caller;
                    });
                }
                for (idx, slot) in slots.into_iter().enumerate() {
                    assert_eq!(slot.into_inner(), rounds * (idx as u64 + caller));
                }
            });
        }
    });
    let stats = scheduler.stats();
    assert_eq!(stats.epochs, 2 * rounds);
    assert_eq!(stats.tasks, 2 * rounds * 9);
}

#[test]
fn a_task_may_dispatch_on_its_own_scheduler() {
    let scheduler = Scheduler::new(workers(4));
    let outer: Vec<TaskSlot<Vec<u64>>> = (0..6).map(|_| TaskSlot::new(vec![0; 5])).collect();
    let ready: Vec<usize> = (0..outer.len()).collect();
    for _ in 0..50 {
        scheduler.dispatch(&outer, &ready, |idx, inner| {
            // Re-entrant: the pool is busy with the outer epoch, so the
            // nested one runs inline on this participant.
            let cells: Vec<TaskSlot<u64>> = inner.iter().map(|&v| TaskSlot::new(v)).collect();
            let all: Vec<usize> = (0..cells.len()).collect();
            scheduler.dispatch(&cells, &all, |k, v| *v += (idx * 10 + k) as u64);
            let squares = scheduler.map_with(&all, workers(4), |_, &k| k * k);
            assert_eq!(squares, vec![0, 1, 4, 9, 16]);
            for (slot, cell) in inner.iter_mut().zip(cells) {
                *slot = cell.into_inner();
            }
        });
    }
    for (idx, slot) in outer.into_iter().enumerate() {
        let want: Vec<u64> = (0..5).map(|k| 50 * (idx * 10 + k) as u64).collect();
        assert_eq!(slot.into_inner(), want);
    }
    let stats = scheduler.stats();
    assert_eq!(
        stats.epochs,
        50 * (1 + 6 * 2),
        "nested dispatches account too"
    );
}

static EXITED: AtomicUsize = AtomicUsize::new(0);

/// Counts the thread's exit when its thread-locals are destroyed.
struct ExitProbe;

impl Drop for ExitProbe {
    fn drop(&mut self) {
        EXITED.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static EXIT: ExitProbe = const { ExitProbe };
}

#[test]
fn dropping_a_scheduler_joins_its_threads() {
    const W: usize = 6;
    let scheduler = Scheduler::new(workers(W));
    let caller = std::thread::current().id();
    let slots: Vec<TaskSlot<()>> = (0..W).map(|_| TaskSlot::new(())).collect();
    let ready: Vec<usize> = (0..W).collect();
    let barrier = Barrier::new(W);
    scheduler.dispatch(&slots, &ready, |_, ()| {
        // W tasks held until W threads are in: all helpers take part.
        barrier.wait();
        if std::thread::current().id() != caller {
            EXIT.with(|_| ());
        }
    });
    assert_eq!(
        EXITED.load(Ordering::SeqCst),
        0,
        "helpers are parked, not gone"
    );
    drop(scheduler);
    assert_eq!(
        EXITED.load(Ordering::SeqCst),
        W - 1,
        "drop returned only after every helper thread exited"
    );
    assert_eq!(
        Scheduler::new(workers(1)).stats(),
        SchedulerStats::default()
    );
}
