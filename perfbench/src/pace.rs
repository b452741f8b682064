//! The machine's pace during a run, from a fixed reference task, and the
//! end-to-end times taken back to a reference pace.
//!
//! On a shared host the speed of a core moves by a third in phases of
//! seconds to minutes, as other tenants come and go, and every timing of
//! a run moves with it; no statistic taken inside one run removes a
//! phase that lasts the whole run. So the run also times a reference
//! task after set-ups and between gestures, and reports its end-to-end
//! times scaled by [`REFERENCE_MS`] over the task's median time in the
//! phase (set-up or timed loop) they were measured in: the times the
//! run would have measured had the machine run at the reference pace
//! throughout. A change to the program moves them as it moves the raw
//! times, which are printed beside them.
//!
//! The task is the benchmark's own code and calls no layer of the stack,
//! so no change to the program changes it. It does what a save or a
//! reopen of the SLIM stack mostly does: it formats a few megabytes of
//! mark records into a text buffer and hashes the bytes. Its time tracks
//! the cost of a pad save within a few percent across the host's phases,
//! where the save's own time moves by 30%. The buffer is allocated once
//! and reused, so the task's time does not depend on the state the
//! program leaves the allocator in.

use std::fmt::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::stats::Sample;

/// Least time between two runs of the task during a timed loop.
const INTERVAL: Duration = Duration::from_millis(500);

/// Mark records the task formats (about 3 MB of text).
const RECORDS: u64 = 60_000;

/// The task's median time on an unloaded core of a shared 2-vCPU x86-64
/// VM, ms. It sets the scale of the reported times; any constant would
/// do, as long as it never changes.
pub const REFERENCE_MS: f64 = 10.0;

struct State {
    last: Option<Instant>,
    /// Task times taken between set-ups, and during timed loops, ms, in
    /// the order taken.
    setup_ms: Vec<f64>,
    loop_ms: Vec<f64>,
    buf: String,
}

static STATE: Mutex<State> = Mutex::new(State {
    last: None,
    setup_ms: Vec::new(),
    loop_ms: Vec::new(),
    buf: String::new(),
});

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Time one run of the task, ms.
fn run_task(s: &mut State) -> f64 {
    if s.buf.capacity() == 0 {
        s.buf.reserve(4 << 20);
    }
    let t0 = Instant::now();
    s.buf.clear();
    for i in 0..RECORDS {
        let _ = writeln!(
            s.buf,
            "<mark id=\"m{:x}\" doc=\"d{}\" at=\"{}\"/>",
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20,
            i % 1020,
            i * 7
        );
    }
    let h = s.buf.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    std::hint::black_box(h);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    s.last = Some(Instant::now());
    ms
}

/// Time the task after a set-up; `setup_s` is paced by these.
pub fn after_setup() {
    let mut s = state();
    let ms = run_task(&mut s);
    s.setup_ms.push(ms);
}

/// Time the task if `INTERVAL` has passed since it last ran (between
/// gestures of a timed loop).
pub fn tick() {
    let mut s = state();
    let due = match s.last {
        Some(t) => t.elapsed() >= INTERVAL,
        None => true,
    };
    if due {
        let ms = run_task(&mut s);
        s.loop_ms.push(ms);
    }
}

fn sample(ms: &[f64]) -> Sample {
    let mut s = Sample::default();
    ms.iter().for_each(|v| s.push(*v));
    s
}

/// How many task times the timed loops have taken so far.
pub fn loop_mark() -> usize {
    state().loop_ms.len()
}

/// The median task time, ms, of the timed-loop samples taken since
/// `mark` (from [`loop_mark`]); `None` when there are none.
pub fn loop_median_since(mark: usize) -> Option<f64> {
    let s = state();
    let since = s.loop_ms.get(mark..).filter(|v| !v.is_empty())?;
    Some(sample(since).median())
}

/// A timed loop's wall time at the reference pace, given the task's
/// median time during the loop (as measured when the task never ran).
pub fn at_reference(wall_s: f64, pace_ms: Option<f64>) -> f64 {
    pace_ms.map_or(wall_s, |ms| wall_s * REFERENCE_MS / ms)
}

/// Take the run's end-to-end times to the reference pace, by the
/// slowdown (the task's median time over `REFERENCE_MS`) of the phase
/// they were measured in: `setup_s` by the set-ups', the rest by the
/// timed loop's. The task times and the slowdowns go to the run log.
pub fn adjust(out: &mut Outcome) {
    let s = state();
    if s.loop_ms.is_empty() {
        return;
    }
    let (mut setup_ms, mut loop_ms) = (sample(&s.setup_ms), sample(&s.loop_ms));
    drop(s);
    let looped = loop_ms.median() / REFERENCE_MS;
    let setup = if setup_ms.values().is_empty() {
        looped
    } else {
        setup_ms.median() / REFERENCE_MS
    };
    let lines = [
        format!("pace: set-up task {}", setup_ms.describe("ms")),
        format!("pace: loop task {}", loop_ms.describe("ms")),
        format!(
            "pace: slowdown {setup:.4} in set-up, {looped:.4} in the loop, \
             against {REFERENCE_MS} ms"
        ),
    ];
    out.info.extend(lines);
    scale(out, setup, looped);
}

/// Divide the times, and multiply the rates, by the slowdowns; leave
/// sizes as measured. Each figure as measured goes to the run log.
fn scale(out: &mut Outcome, setup: f64, looped: f64) {
    for (name, value) in out.e2e.iter_mut() {
        let adjusted = match *name {
            "ops_per_s" => *value * looped,
            "op_p50_us" | "commit_p50_ms" => *value / looped,
            "setup_s" => *value / setup,
            _ => continue,
        };
        out.info.push(format!(
            "{name}: {value} as measured, {adjusted} at the reference pace"
        ));
        *value = adjusted;
    }
}

/// Pin this thread, and every thread it starts from now on, to the CPU
/// it runs on, so the reference task and the work it paces share one
/// core (the `serve` writer included). Returns that CPU, or `None` where
/// the pin is refused, in which case the run goes on unpinned.
#[cfg(target_os = "linux")]
pub fn pin() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the mask is a live, initialised array of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    /// Every end-to-end metric is either scaled by the slowdown of the
    /// phase it was measured in or, being a size, left alone.
    #[test]
    fn times_divide_rates_multiply_sizes_stay() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.e2e.insert(name, 6.0);
        }
        scale(&mut out, 2.0, 1.5);
        let got: Vec<(&str, f64)> = out.e2e.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            got,
            [
                ("commit_p50_ms", 4.0),
                ("op_p50_us", 4.0),
                ("ops_per_s", 9.0),
                ("rss_mb", 6.0),
                ("setup_s", 3.0),
            ]
        );
    }
}
