//! Restart: the `restart` workload, and the restart breakdown every
//! traced run makes of the pad it leaves behind.
//!
//! The breakdown makes the public calls `PadEngine::open_logged` makes,
//! in the same order, on the same bytes, each inside a span: temp sweep,
//! sealed read, XML parse, section text, store load, marks load, the
//! drop of the parsed document, log attach (frame replay), marks sidecar
//! load, and the marks serialisation and CRC that arm the next commit.
//! `restart.coverage` is the sum of those parts over the untraced reopen
//! time.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slimgen::trace::{Mix, TraceOp};
use slimgen::Digest;
use superimposed::marks::MarkManager;
use superimposed::slimio::{self, MemVfs};
use superimposed::slimpad::PadSession;
use superimposed::slimstore::SlimPadDmi;
use superimposed::trim::CommitOutcome;
use superimposed::xmlkit;

use crate::pace;
use crate::pad::{self, Gesture, Plan, Res, Session, Size, PAD};
use crate::pins;
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::Sample;

/// The aux key the pad writes its marks sidecar under.
const MARKS_AUX_KEY: &str = "marks";

/// The spans of one breakdown, in call order, with the per-layer metric
/// each part's median time is reported as.
const PARTS: [(&str, &str); 11] = [
    ("slimio.sweep_stale_temp", "slimio.sweep_stale_temp.ms"),
    ("slimio.load_sealed", "slimio.load_sealed.ms"),
    ("xmlkit.parse", "xmlkit.parse.ms"),
    ("xmlkit.text", "xmlkit.text.ms"),
    ("slimstore.load_xml", "slimstore.load_xml.ms"),
    ("marks.load_xml.snapshot", "marks.load_xml.snapshot_ms"),
    ("xmlkit.drop", "xmlkit.drop.ms"),
    ("trim.wal.attach", "trim.wal.attach.ms"),
    ("marks.load_xml.sidecar", "marks.load_xml.sidecar_ms"),
    ("marks.to_xml", "marks.to_xml_ms"),
    ("slimio.crc32", "slimio.crc32.ms"),
];

/// What a reopen gave: `(bundles, scraps, marks, frames, ops)`
/// replayed.
type Reopened = (usize, usize, usize, usize, usize);

/// What one traced reopen saw.
struct Parts {
    /// Wall time of the whole traced reopen, ms.
    ms: f64,
    /// The sum of the parts: time inside the part spans, ms.
    sum_ms: f64,
    payload_bytes: usize,
    marks_xml_bytes: usize,
    reopened: Reopened,
}

/// One traced reopen of the pad in `files`, through the calls
/// `open_logged` makes, holding each intermediate as long as it does.
fn breakdown_once(files: &MemVfs, mut manager: MarkManager, t: &Tracer) -> Res<Parts> {
    let vfs = files.clone();
    let path = Path::new(PAD);
    let first_span = t.len();
    let t0 = Instant::now();
    t.span(PARTS[0].0, || slimio::sweep_stale_temp(&vfs, path));
    let (_, payload) = t.span(PARTS[1].0, || slimio::load_sealed(&vfs, path))?;
    let doc = t.span(PARTS[2].0, || xmlkit::parse(&payload))?;
    let (store_xml, marks_xml) = t.span(PARTS[3].0, || {
        let section = |name| doc.root.child(name).map(|e| e.text()).unwrap_or_default();
        (section("store"), section("marks"))
    });
    let (mut dmi, _pads) = t.span(PARTS[4].0, || SlimPadDmi::load_xml(&store_xml))?;
    t.span(PARTS[5].0, || manager.load_xml(&marks_xml))?;
    // `open_logged` frees the document, its section texts and the file's
    // bytes before it attaches the log.
    let payload_bytes = payload.len();
    t.span(PARTS[6].0, || drop((doc, store_xml, marks_xml, payload)));
    let (_log, report) = t.span(PARTS[7].0, || dmi.attach_log(&vfs, path))?;
    if let Some(bytes) = report.aux.get(MARKS_AUX_KEY) {
        let text = std::str::from_utf8(bytes)?;
        t.span(PARTS[8].0, || manager.load_xml(text))?;
    }
    let xml = t.span(PARTS[9].0, || manager.to_xml());
    t.span(PARTS[10].0, || slimio::crc32(xml.as_bytes()));
    Ok(Parts {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        sum_ms: t.top_level_ns_since(first_span) as f64 / 1e6,
        payload_bytes,
        marks_xml_bytes: xml.len(),
        reopened: (
            dmi.bundles().len(),
            dmi.all_scraps().len(),
            manager.len(),
            report.frames_replayed,
            report.ops_replayed,
        ),
    })
}

/// An untraced `open_logged` of a copy of the pad in `files`: its time,
/// ms, and what it reopened.
fn open_untraced(files: &MemVfs, manager: MarkManager) -> Res<(f64, Reopened)> {
    let vfs = files.clone();
    let t0 = Instant::now();
    let (pad, report) = PadSession::open_logged(&vfs, Path::new(PAD), manager)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let (bundles, scraps, marks) = pad::populations(&pad);
    Ok((
        ms,
        (
            bundles,
            scraps,
            marks,
            report.frames_replayed,
            report.ops_replayed,
        ),
    ))
}

/// Traced reopens in the breakdown, each paired with an untraced one.
const PAIRS: usize = 11;

/// The least `restart.coverage` a run accepts. The parts are meant to
/// sum to the whole reopen (0.95 or more), but on a shared 2-vCPU host
/// one pair's ratio scatters by ±15%, and the median of 11 pairs has
/// read from 0.92 to 1.13 on correct code. A missing step that costs
/// more than the scatter still fails the run.
const MIN_COVERAGE: f64 = 0.85;

/// Break the reopen of the pad in `files` down by layer, `PAIRS` times,
/// each next to an untraced `open_logged` of the same bytes, and report
/// each part's median. Returns the median traced and untraced reopen
/// times, ms.
///
/// `restart.coverage` is the median over the pairs of the sum of the
/// parts over the untraced reopen. The run fails when it is below
/// `MIN_COVERAGE`, that is when `open_logged` does work the breakdown
/// does not make, or when a traced reopen reopens to other counts than
/// `open_logged`.
pub fn traced_breakdown(
    out: &mut Outcome,
    label: &str,
    files: &MemVfs,
    manager: &dyn Fn() -> Res<MarkManager>,
) -> Res<(f64, f64)> {
    let t = Tracer::new(true);
    let mut traced = Sample::default();
    let mut sums = Sample::default();
    let mut reopens = Sample::default();
    let mut ratios = Sample::default();
    let mut same = true;
    let mut last = None;
    for round in 0..PAIRS {
        // Alternate which of the pair goes first, so a drift in machine
        // speed does not bias the ratio.
        let ((reopen_ms, reopened), parts) = if round % 2 == 0 {
            let untraced = open_untraced(files, manager()?)?;
            (untraced, breakdown_once(files, manager()?, &t)?)
        } else {
            let parts = breakdown_once(files, manager()?, &t)?;
            (open_untraced(files, manager()?)?, parts)
        };
        same &= parts.reopened == reopened;
        reopens.push(reopen_ms);
        traced.push(parts.ms);
        sums.push(parts.sum_ms);
        ratios.push(parts.sum_ms / reopen_ms);
        last = Some(parts);
    }
    let last = last.ok_or("no breakdown rounds")?;
    let by_name = t.by_name();
    let median_ms = |name: &str| by_name.get(name).map_or(0.0, |a| a.median_ns() / 1e6);
    let mut parts_ms = 0.0;
    for (span, metric) in PARTS {
        let ms = median_ms(span);
        parts_ms += ms;
        out.layer(metric, ms);
    }
    let parse_ms = median_ms("xmlkit.parse");
    out.layer(
        "xmlkit.parse.mb_per_s",
        last.payload_bytes as f64 / 1e6 / (parse_ms / 1e3),
    );
    out.layer("slimio.load_sealed.bytes", last.payload_bytes as f64);
    out.layer("trim.wal.attach.frames_replayed", last.reopened.3 as f64);
    out.layer("trim.wal.attach.ops_replayed", last.reopened.4 as f64);
    out.layer("marks.xml_bytes", last.marks_xml_bytes as f64);
    let coverage = ratios.median();
    let reopen_ms = reopens.median();
    out.layer("restart.parts_ms", parts_ms);
    out.layer("restart.coverage", coverage);
    out.verdict(
        format!("restart parts sum to >= {MIN_COVERAGE} of the untraced reopen"),
        coverage >= MIN_COVERAGE,
    );
    out.verdict(
        "every traced reopen reopens to what open_logged reopens to",
        same,
    );
    out.info(format!(
        "restart breakdown: parts {parts_ms:.1} ms, untraced reopen {}, coverage {coverage:.3} \
         (median of {PAIRS} adjacent pairs; quartiles {:.3}, {:.3}); parts sum {}; traced {}",
        reopens.describe("ms"),
        ratios.q(0.25),
        ratios.q(0.75),
        sums.describe("ms"),
        traced.describe("ms")
    ));
    for (span, _) in PARTS {
        out.info(format!("  {span:<26} {:9.2} ms", median_ms(span)));
    }
    t.save(&format!("{label}-restart"));
    Ok((traced.median(), reopen_ms))
}

/// Commits of write-mix gestures before the one carrying the new mark.
const TAIL_FRAMES: u64 = 8;
/// Write-mix gestures generated for the tail (it stops well before).
const TAIL_STREAM: usize = 4_000;

/// Set-up of `restart`: a logged corpus, then the undo-free write-mix
/// gestures up to its `TAIL_FRAMES`-th commit (so every commit is a
/// delta frame), then a frame that carries a new mark, so reopening
/// replays the marks sidecar too. The pad is then left as by a crash:
/// uncompacted. Returns the session and the new mark's gesture.
fn build(size: Size, seed: u64, stream: &[Gesture]) -> Res<(Session, Gesture)> {
    let mut s = pad::open(size.profile, seed)?;
    let mut commits = 0;
    let writes = stream
        .iter()
        .filter(|g| !matches!(g, Gesture::Trace(TraceOp::Undo)));
    for g in writes {
        if commits == TAIL_FRAMES {
            break;
        }
        let (class, _) = pad::step(&mut s, g)?;
        commits += u64::from(class.starts_with("Commit"));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_57a7_0000_0002);
    let mark = Gesture::CreateMark {
        doc: rng.gen(),
        addr_seed: rng.gen(),
        bundle: rng.gen(),
    };
    pad::step(&mut s, &mark)?;
    s.corpus.system.pad.commit(&s.disk)?;
    Ok((s, mark))
}

/// Run `restart` once, timing `n` reopens.
pub fn run(size: Size, seed: u64, n: usize, traced: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let plan = Plan {
        mix: Mix::WriteHeavy,
        mark_every: None,
        saves: &[],
    };
    let (stream, trace_digest, _) = pad::stream(plan, seed, TAIL_STREAM);

    let mut setup_s = Sample::default();
    let mut warm = Vec::new();
    let mut kept = None;
    for _ in 0..size.setups {
        drop(kept.take());
        let t0 = Instant::now();
        let (s, mark) = build(size, seed, &stream)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        pace::after_setup();
        warm.push(s.tally());
        kept = Some((s, mark));
    }
    let (s, mark) = kept.ok_or("no set-up")?;
    let mut mark_digest = Digest::new();
    mark_digest.update(format!("{mark:?}").as_bytes());
    let stats = s.corpus.stats;
    pins::check(
        &mut out,
        "restart",
        seed,
        &[
            ("corpus_docs", stats.docs as u64),
            ("corpus_marks", stats.marks as u64),
            ("corpus_bundles", stats.bundles as u64),
            ("corpus_scraps", stats.scraps as u64),
            ("input_digest", s.corpus.input_digest.0),
            ("trace_digest", trace_digest.0),
            ("createmark_digest", mark_digest.0),
        ],
        size.pinned,
    );
    out.verdict(
        "set-up repeats of one seed reach the same state",
        warm.windows(2).all(|w| w[0] == w[1]),
    );
    out.info(format!("setup {}", setup_s.describe("s")));
    let tally = s.tally();
    out.exact.extend(tally.rows());

    // Every tail commit that was not clean wrote a frame; the mark
    // commit wrote the last.
    let frames = tally.committed + 1;
    out.verdict("the log holds write frames and the mark frame", frames >= 2);

    // The timed loop: reopen copies of the crashed pad's bytes.
    let files = s.disk.files();
    let live = s.populations();
    let manager = || s.corpus.system.fresh_manager().map_err(Into::into);
    let mut reopen_us = Sample::default();
    let mut save_ms = Sample::default();
    let start = Instant::now();
    while reopen_us.len() < n {
        let vfs = files.clone();
        let m = manager()?;
        let t0 = Instant::now();
        let opened = PadSession::open_logged(&vfs, Path::new(PAD), m);
        reopen_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        match opened {
            Ok((mut pad, report)) => {
                // The first save after the restart: nothing changed, so
                // the commit is clean, yet it pays for the marks XML.
                let c0 = Instant::now();
                let saved = pad.commit(&vfs);
                save_ms.push(c0.elapsed().as_secs_f64() * 1e3);
                let ok = pad::populations(&pad) == live
                    && report.aux.contains_key(MARKS_AUX_KEY)
                    && report.frames_replayed as u64 == frames
                    && matches!(saved, Ok(CommitOutcome::Clean));
                out.exact
                    .insert("frames_replayed", report.frames_replayed as u64);
                out.exact.insert("ops_replayed", report.ops_replayed as u64);
                if !ok {
                    out.failed += 1;
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("reopen failed: {e}");
            }
        }
        pace::tick();
    }
    let wall_s = start.elapsed().as_secs_f64();
    out.verdict(
        "every reopen has the pre-close populations, replayed the marks sidecar \
         and saved clean",
        out.failed == 0,
    );
    let mut reopen_ms = Sample::default();
    reopen_us
        .values()
        .iter()
        .for_each(|us| reopen_ms.push(us / 1e3));
    out.info(format!(
        "restart_ms {} over {wall_s:.2} s",
        reopen_ms.describe("ms")
    ));
    out.info(format!(
        "first save after the reopen {}",
        save_ms.describe("ms")
    ));
    out.exact
        .insert("wal_file_bytes", s.disk.len(&pad::wal_path()));

    out.layer(
        "trim.wal.bytes_per_op",
        tally.wal_appended as f64 / tally.mutating as f64,
    );
    if traced {
        let label = format!("restart-{seed:#x}");
        let (traced_ms, reopen_ms) = traced_breakdown(&mut out, &label, &files, &manager)?;
        out.layer("trace.overhead_pct", (traced_ms / reopen_ms - 1.0) * 100.0);
        return Ok(out);
    }
    out.e2e.insert("setup_s", setup_s.median());
    out.e2e.insert("ops_per_s", reopen_us.len() as f64 / wall_s);
    out.e2e.insert("op_p50_us", reopen_us.median());
    out.e2e.insert("commit_p50_ms", save_ms.median());
    out.e2e.insert("rss_mb", crate::report::peak_rss_mb());
    Ok(out)
}
