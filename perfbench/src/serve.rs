//! The `serve` workload: one closed-loop client session submitting a
//! `PadOp` stream translated from a seeded slimgen trace (see [`stream`])
//! to `slimserve::PadService` — the queue, the
//! `catch_unwind` containment with its per-op checkpoint and marks
//! snapshot, and the commit per batch. Two threads run: the client and
//! the service's writer.
//!
//! The service runs over the healthy `ward_factory` universe (a frozen
//! `MockClock`, a generous deadline) and a pad preloaded in set-up with
//! `Size::preload` (10⁴) text marks, each placed as a scrap.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use slimgen::trace::{self, Mix, TraceOp};
use slimgen::Digest;
use slimserve::{
    ward_doc, ward_factory, PadConfig, PadMachine, PadOp, PadPartsFactory, PadService,
    WARD_PARAGRAPHS,
};
use superimposed::marks::resilience::{BreakerConfig, MockClock};
use superimposed::marks::{FaultProfile, FlakyControl, MarkManager, RetryPolicy};
use superimposed::slimio::MemVfs;
use superimposed::slimpad::PadEngine;

use crate::disk::Disk;
use crate::pace;
use crate::pad::{Res, PAD};
use crate::pins;
use crate::report::Outcome;
use crate::restart;
use crate::span::Tracer;
use crate::stats::Sample;

/// Sizes of a `serve` run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Text marks (and scraps) on the pad before the service starts.
    pub preload: u64,
    pub setups: usize,
    /// Ops generated (and pinned); a run times a prefix of them.
    pub stream_len: usize,
    /// Whether the inputs at this size are pinned (see `pins`).
    pub pinned: bool,
}

pub const QUICK: Size = Size {
    preload: 10_000,
    setups: 5,
    stream_len: 100_000,
    pinned: true,
};
#[cfg(test)]
pub const SMOKE: Size = Size {
    preload: 300,
    setups: 2,
    stream_len: 2_000,
    pinned: false,
};

fn factory() -> PadPartsFactory {
    ward_factory(
        MockClock::new(),
        FaultProfile::healthy(),
        FlakyControl::new(0),
        RetryPolicy::default(),
        BreakerConfig::default(),
        3,
    )
}

fn config() -> PadConfig {
    PadConfig {
        op_deadline_ms: 600_000,
        ..PadConfig::default()
    }
}

/// The `i`-th preloaded text mark.
fn preload_mark(i: u64) -> PadOp {
    let r = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    PadOp::CreateMark {
        doc: ward_doc(r),
        paragraph: r % WARD_PARAGRAPHS as u64,
        start: (r % 4) * 5,
        len: 6 + r % 12,
        label: format!("chart {i}"),
        pos: ((i % 40) as i64 * 12, (r % 30) as i64 * 10),
        bundle: None,
    }
}

/// The seeded op stream: slimgen's `Mix::Mixed` trace translated to
/// `PadOp`s as slimgen's pad soak (`chaos_pad::translate`) translates
/// it, keeping the verbs this workload measures:
///
/// - `PlaceMark` becomes a `CreateMark` of a new text mark;
/// - `Query` becomes a `Resolve`;
/// - `BeginOp` becomes an `Inspect`;
/// - `Annotate`, `Link`, `Undo` and `Extract` stay themselves.
///
/// Dropped are the verbs outside that set: `CreateBundle`, `DeleteScrap`
/// (a `Rebind` there), `Commit` (every batch commits) and the `BeginOp`s
/// that become `Compact`. Dropped too are the ops the engine would
/// refuse, so that no op fails: a `Link` whose two selectors pick the
/// same scrap, and an `Undo` that would not undo an `Annotate` or `Link`.
/// Such an Undo would reach past a `CreateMark`, whose commit ships the
/// marks and compacts the log, and so would find its checkpoint gone.
pub fn stream(seed: u64, len: usize, preload: u64) -> (Vec<PadOp>, Digest, Digest) {
    // About four in five trace ops are kept, so twice `len` is plenty.
    let ops = trace::generate(seed, 2 * len, Mix::Mixed);
    let trace_digest = trace::trace_digest(&ops);
    let mut out = Vec::with_capacity(len);
    let mut scraps = preload;
    let mut undoable = false;
    for (i, op) in (0u64..).zip(ops) {
        if out.len() == len {
            break;
        }
        let padop = match op {
            TraceOp::BeginOp if i % 3 != 0 => PadOp::Inspect,
            TraceOp::PlaceMark { mark, bundle } => {
                scraps += 1;
                undoable = false;
                PadOp::CreateMark {
                    doc: ward_doc(mark),
                    paragraph: mark % WARD_PARAGRAPHS as u64,
                    start: (mark % 4) * 5,
                    len: 6 + mark % 12,
                    label: format!("mark i{i}"),
                    pos: ((i as i64 % 50) * 9, ((mark % 16) as i64) * 11),
                    bundle: Some(bundle),
                }
            }
            TraceOp::Annotate { scrap, note } => {
                undoable = true;
                PadOp::Annotate {
                    scrap,
                    text: format!("note {note} i{i}"),
                }
            }
            TraceOp::Link { from, to } if from % scraps != to % scraps => {
                undoable = true;
                PadOp::Link { from, to }
            }
            TraceOp::Undo if undoable => {
                undoable = false;
                PadOp::Undo
            }
            TraceOp::Extract { scrap } => PadOp::Extract { scrap },
            TraceOp::Query { needle } => PadOp::Resolve { scrap: needle },
            _ => continue,
        };
        out.push(padop);
    }
    let mut d = Digest::new();
    for op in &out {
        d.update(format!("{op:?}").as_bytes());
    }
    (out, trace_digest, d)
}

fn kind(op: &PadOp) -> &'static str {
    match op {
        PadOp::CreateMark { .. } => "CreateMark",
        PadOp::Extract { .. } => "Extract",
        PadOp::Resolve { .. } => "Resolve",
        PadOp::Annotate { .. } => "Annotate",
        PadOp::Link { .. } => "Link",
        PadOp::Undo => "Undo",
        PadOp::Inspect => "Inspect",
        _ => "Other",
    }
}

fn span_name(op: &PadOp) -> &'static str {
    match op {
        PadOp::CreateMark { .. } => "slimserve.submit.CreateMark",
        PadOp::Extract { .. } => "slimserve.submit.Extract",
        PadOp::Resolve { .. } => "slimserve.submit.Resolve",
        PadOp::Annotate { .. } => "slimserve.submit.Annotate",
        PadOp::Link { .. } => "slimserve.submit.Link",
        PadOp::Undo => "slimserve.submit.Undo",
        PadOp::Inspect => "slimserve.submit.Inspect",
        _ => "slimserve.submit.Other",
    }
}

/// Ops whose ack follows a commit that made a change durable.
const MUTATING: [&str; 4] = ["CreateMark", "Annotate", "Link", "Undo"];
/// The save `commit_p50_ms` times, as in `charting`: the one with a new
/// mark, whose ack waits for the commit that ships the marks and the
/// compaction that follows. A run holds about 18 of them. Annotate and
/// Link acks wait for a small delta commit instead; a run holds about
/// 12, too few for a steady median, and they are reported per layer.
const SAVES: [&str; 1] = ["CreateMark"];

/// A fresh engine over the ward universe, as the service builds it.
fn machine(engine: PadEngine, parts: slimserve::PadParts) -> PadMachine {
    let mut engine = engine;
    engine.set_resolver(parts.resolver);
    PadMachine::new(engine, parts.search)
}

fn parts() -> Res<slimserve::PadParts> {
    Ok(factory()()?)
}

/// Set-up: preload the pad, snapshot it to a fresh disk, and start the
/// service over it. Returns the service, its disk, and a copy of the
/// preloaded files (the replay oracle's starting point).
fn setup(size: Size) -> Res<(PadService, Arc<Disk>, MemVfs)> {
    let p = parts()?;
    let mut engine = PadEngine::new("service-pad")?;
    *engine.marks_mut() = p.manager;
    let mut m = PadMachine::new(engine, p.search);
    for i in 0..size.preload {
        m.apply(&preload_mark(i))?;
    }
    let disk = Arc::new(Disk::new());
    m.engine_mut().enable_logging(&*disk, Path::new(PAD))?;
    let preloaded = disk.files();
    drop(m);
    let service = PadService::open(
        disk.clone(),
        Path::new(PAD),
        config(),
        Arc::new(MockClock::new()),
        factory(),
    )?;
    Ok((service, disk, preloaded))
}

#[derive(Default)]
struct Record {
    ops: usize,
    wall_s: f64,
    /// The pace task's median time during the loop, ms.
    pace_ms: Option<f64>,
    op_ns: f64,
    all_us: Sample,
    by_kind_us: BTreeMap<&'static str, Sample>,
    acked: Vec<PadOp>,
    refused: u64,
}

/// Submit and time the first `n` ops (fewer if the stream runs out).
fn drive(service: &PadService, ops: &[PadOp], n: usize, t: &Tracer) -> Record {
    let session = service.session();
    let mut r = Record::default();
    let mark = pace::loop_mark();
    let start = Instant::now();
    while r.ops < ops.len().min(n) {
        let op = &ops[r.ops];
        t.set_op(r.ops as u64);
        let t0 = Instant::now();
        let verdict = t.span(span_name(op), || session.submit(op.clone()));
        let ns = t0.elapsed().as_nanos() as f64;
        r.ops += 1;
        r.op_ns += ns;
        r.all_us.push(ns / 1e3);
        r.by_kind_us.entry(kind(op)).or_default().push(ns / 1e3);
        pace::tick();
        match verdict {
            Ok(_) => r.acked.push(op.clone()),
            Err(e) => {
                r.refused += 1;
                eprintln!("op {} refused: {e}", r.ops - 1);
            }
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r.pace_ms = pace::loop_median_since(mark);
    r
}

/// Reopen a copy of the service's committed pad.
fn reopen(files: &MemVfs) -> Res<PadEngine> {
    let (engine, _) = PadEngine::open_logged(&files.clone(), Path::new(PAD), parts()?.manager)?;
    Ok(engine)
}

/// Run `serve` once, timing `n` ops.
pub fn run(size: Size, seed: u64, n: usize, traced: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (ops, trace_digest, stream_digest) = stream(seed, size.stream_len, size.preload);
    pins::check(
        &mut out,
        "serve",
        seed,
        &[
            ("preload_marks", size.preload),
            ("trace_digest", trace_digest.0),
            ("padop_digest", stream_digest.0),
        ],
        size.pinned,
    );
    if size.pinned && !pins::is_pinned(seed) {
        let d = pins::DEFAULT_SEED;
        let (_, trace_digest, digest) = stream(d, size.stream_len, size.preload);
        pins::check(
            &mut out,
            "serve",
            d,
            &[("trace_digest", trace_digest.0), ("padop_digest", digest.0)],
            true,
        );
    }

    let mut setup_s = Sample::default();
    let mut kept = None;
    for _ in 0..size.setups {
        if let Some((service, _, _)) = kept.take() {
            PadService::shutdown(service);
        }
        let t0 = Instant::now();
        kept = Some(setup(size)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        pace::after_setup();
    }
    let (service, disk, preloaded) = kept.ok_or("no set-up")?;
    out.info(format!("setup {}", setup_s.describe("s")));

    let appended0 = disk.appended();
    let mut rec = drive(&service, &ops, n, &Tracer::new(false));
    // The workload's peak, before the oracle's replay and reopen add
    // their own.
    let rss_mb = crate::report::peak_rss_mb();
    out.verdict("the stream holds the run's ops", rec.ops == n);
    let live = service.digest();
    let stats = service.shutdown();
    out.attempted = rec.ops as u64;
    out.failed = rec.refused;
    out.verdict(
        "PadServeStats::unaccounted() == 0",
        stats.unaccounted() == 0,
    );
    out.verdict(
        "every op was acknowledged",
        rec.refused == 0 && stats.acked == rec.ops as u64,
    );

    // The oracle: replay the acknowledged ops, in order, on the
    // preloaded pad; its digest must equal the live one.
    let p = parts()?;
    let (engine, _) = PadEngine::open_logged(&preloaded, Path::new(PAD), p.manager)?;
    let mut mirror = machine(engine, parts()?);
    let replay_ok = rec.acked.iter().all(|op| mirror.apply(op).is_ok());
    out.verdict(
        "a PadMachine replay of the acked ops reproduces the live digest",
        replay_ok && mirror.digest() == live,
    );
    let engine = reopen(&disk.files())?;
    out.verdict(
        "a reopen from the disk bytes has the live digest",
        machine(engine, parts()?).digest() == live,
    );
    let wal = disk.appended() - appended0;
    let mutating: usize = MUTATING
        .iter()
        .filter_map(|k| rec.by_kind_us.get(k))
        .map(Sample::len)
        .sum();
    out.exact.insert("acked", stats.acked);
    out.exact.insert("commits", stats.commits);
    out.exact.insert("compactions", stats.compactions);
    out.exact.insert("wal_bytes", wal);
    out.exact.insert("live_digest", live);
    out.info(format!(
        "{} ops in {:.2} s = {:.1}/s; {} commits, {} compactions, {} B appended ({:.0} B per mutating op)",
        rec.ops,
        rec.wall_s,
        rec.ops as f64 / rec.wall_s,
        stats.commits,
        stats.compactions,
        wal,
        wal as f64 / mutating.max(1) as f64
    ));

    if !traced {
        let mut commit_us = Sample::default();
        for k in SAVES {
            if let Some(s) = rec.by_kind_us.get(k) {
                s.values().iter().for_each(|v| commit_us.push(*v));
            }
        }
        // A CreateMark costs about four other ops, and a run of ~70 ops
        // holds a seeded number of them, so throughput is taken at the
        // whole stream's mix: each kind's mean time, weighted by the
        // kind's share of the stream, as the pad workloads do.
        let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
        for op in &ops {
            *shares.entry(kind(op)).or_insert(0.0) += 1.0 / ops.len() as f64;
        }
        let mean_us: f64 = shares
            .iter()
            .map(|(k, share)| share * rec.by_kind_us.get(k).map_or(0.0, Sample::mean))
            .sum();
        out.e2e.insert("setup_s", setup_s.median());
        out.e2e.insert("ops_per_s", 1e6 / mean_us);
        out.e2e.insert("op_p50_us", rec.all_us.median());
        out.e2e.insert("commit_p50_ms", commit_us.median() / 1e3);
        out.e2e.insert("rss_mb", rss_mb);
        out.info(format!(
            "at the stream's mix {:.2} ops/s; op {}",
            1e6 / mean_us,
            rec.all_us.describe("us")
        ));
        for (k, s) in rec.by_kind_us.iter_mut() {
            let share = shares.get(k).copied().unwrap_or(0.0);
            out.info(format!("  {k:<11} share {share:6.4} {}", s.describe("us")));
        }
        return Ok(out);
    }

    // Traced: the same ops against a fresh set-up, spans around each
    // submit.
    let (service, disk, _) = setup(size)?;
    let appended_b = disk.appended();
    let tracer = Tracer::new(true);
    let rec_b = drive(&service, &ops, n, &tracer);
    let live_b = service.digest();
    let st = service.shutdown();
    out.verdict(
        "the traced replay reaches the untraced run's digest",
        live_b == live,
    );
    out.failed += rec_b.refused;
    let by_name = tracer.by_name();
    for k in [
        "CreateMark",
        "Extract",
        "Resolve",
        "Annotate",
        "Link",
        "Undo",
        "Inspect",
    ] {
        let name = format!("slimserve.submit.{k}");
        let p50_us = by_name
            .get(name.as_str())
            .map_or(0.0, |a| a.median_ns() / 1e3);
        out.layer(format!("{name}.p50_us"), p50_us);
    }
    for (name, v) in [
        ("acked", st.acked),
        ("commits", st.commits),
        ("compactions", st.compactions),
        ("shed", st.shed),
        ("timed_out", st.timed_out),
        ("engine_refusals", st.engine_refusals),
    ] {
        out.layer(format!("slimserve.{name}"), v as f64);
    }
    out.layer("slimserve.unaccounted", st.unaccounted() as f64);
    out.layer(
        "slimserve.ops_per_commit",
        st.acked as f64 / st.commits.max(1) as f64,
    );
    for (layer, ns) in tracer.self_ns_by_layer() {
        out.layer(format!("self_ms.{layer}"), ns as f64 / 1e6);
    }
    let span_ns: f64 = by_name.values().map(|a| a.busy_ns as f64).sum();
    let coverage = span_ns / rec_b.op_ns;
    out.layer("trace.verb_coverage", coverage);
    out.verdict(
        "submit spans cover >= 95% of the measured op time",
        coverage >= 0.95,
    );
    let paced = |r: &Record| pace::at_reference(r.wall_s, r.pace_ms);
    let overhead = paced(&rec_b) / paced(&rec) - 1.0;
    out.layer("trace.overhead_pct", overhead * 100.0);
    out.info(format!(
        "tracing overhead: {} identical ops took {:.3} s traced vs {:.3} s untraced \
         as measured, {:.3} s vs {:.3} s at the reference pace ({:+.1}%)",
        rec_b.ops,
        rec_b.wall_s,
        rec.wall_s,
        paced(&rec_b),
        paced(&rec),
        overhead * 100.0
    ));
    let wal_b = disk.appended() - appended_b;
    let mutating_b: usize = MUTATING
        .iter()
        .filter_map(|k| rec_b.by_kind_us.get(k))
        .map(Sample::len)
        .sum();
    out.layer("trim.wal.bytes_appended", wal_b as f64);
    out.layer(
        "trim.wal.bytes_per_commit",
        wal_b as f64 / st.commits.max(1) as f64,
    );
    out.layer(
        "trim.wal.bytes_per_op",
        wal_b as f64 / mutating_b.max(1) as f64,
    );
    out.layer("trace.spans", tracer.len() as f64);
    let label = format!("serve-{seed:#x}");
    tracer.save(&format!("{label}-loop"));
    let manager = || -> Res<MarkManager> { Ok(parts()?.manager) };
    restart::traced_breakdown(&mut out, &label, &disk.files(), &manager)?;
    Ok(out)
}
