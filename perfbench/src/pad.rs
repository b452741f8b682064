//! The pad workloads, `rounds` and `charting`: one clinician's closed
//! loop of gestures through `PadSession` over the write-ahead log, on a
//! slimgen corpus.
//!
//! Trace verbs that only touch the undo model (`BeginOp`, `Undo`) or
//! only mutate (`CreateBundle`, `PlaceMark`, `Annotate`, `Link`,
//! `DeleteScrap`) go through slimgen's [`Driver`], so its count oracle
//! stays authoritative. `Extract`, `Query` and `Commit` are applied here,
//! folding the same outcome bytes into the driver's digest that
//! `Driver::apply` would, because the benchmark needs their results
//! (hits, degraded excerpts, commit outcomes). `CreateMark` is the
//! benchmark's own verb. After every commit the loop honours the
//! `should_compact` contract.
//!
//! A run times a fixed number of gestures (see `main.rs`), so every run
//! of one seed times exactly the same work.
//!
//! ## Throughput at the workload's long-run mix
//!
//! A save costs 10⁴ times a read, and a 30 s run makes a few dozen of
//! them. How many, and how many are undo-forced full snapshots, differs
//! from seed to seed, and that alone moves gestures per second by ±20%.
//! So `ops_per_s` is the reciprocal of the mean gesture time at the
//! workload's long-run mix: each gesture falls in a class (its verb; a
//! save by its outcome), and each class's mean time is weighted by the
//! class's share in a replay of the default seed's stream on a
//! smoke-size pad ([`class_shares`]), the same shares for every seed.
//! The raw rate is printed too. The percentiles are the run's own.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slimgen::corpus::{self, Corpus};
use slimgen::trace::{self, Driver, Mix, TraceOp};
use slimgen::{Digest, Profile};
use superimposed::slimpad::PadSession;
use superimposed::trim::CommitOutcome;

use crate::disk::Disk;
use crate::pace;
use crate::pins;
use crate::report::Outcome;
use crate::restart;
use crate::span::Tracer;
use crate::stats::Sample;

pub const PAD: &str = "perfbench.pad";

/// slimgen's query needle pool, which its `Driver` keeps private; the
/// `applier_matches_slimgen_driver` test holds this copy to it.
const QUERY_NEEDLES: [&str; 6] = ["scrap", "icu", "note", "dose", "case", "section"];

pub type Res<T> = Result<T, Box<dyn Error>>;

/// One gesture of a pad workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gesture {
    Trace(TraceOp),
    /// Create a mark on corpus document `doc` (taken modulo the corpus)
    /// at an address drawn by `slimgen::corpus::random_address` from
    /// `addr_seed`, then place it as a scrap in the selected bundle.
    CreateMark {
        doc: u64,
        addr_seed: u64,
        bundle: u64,
    },
}

/// A pad workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub mix: Mix,
    /// Insert a `CreateMark` after every this many trace ops.
    pub mark_every: Option<usize>,
    /// The commit classes `commit_p50_ms` is the median of.
    pub saves: &'static [&'static str],
}

pub const ROUNDS: Plan = Plan {
    mix: Mix::ReadHeavy,
    mark_every: None,
    saves: &COMMIT_CLASSES,
};
pub const CHARTING: Plan = Plan {
    mix: Mix::WriteHeavy,
    mark_every: Some(WRITE_HEAVY_OPS_PER_COMMIT),
    // A charting save either writes a small delta (~0.2 s) or ships the
    // whole marks XML (~0.9 s), about half of each: the median of all
    // saves sits on the edge between the two and jumps from seed to
    // seed. The save this workload exists for is the one with a new mark.
    saves: &["Commit.mark"],
};

/// `charting` creates one mark per save on average: slimgen's
/// `Mix::WriteHeavy` weights sum to 84, of which `Commit` has 4, so a
/// save falls every 21 trace ops and so does a `CreateMark`. The test
/// `write_heavy_saves_every_21_ops` holds this to slimgen's traces.
pub const WRITE_HEAVY_OPS_PER_COMMIT: usize = 21;

/// Sizes of a pad workload run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub profile: Profile,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Gestures generated (and pinned); a run times a prefix of them.
    pub stream_len: usize,
    /// Whether the inputs at this size are pinned (see `pins`).
    pub pinned: bool,
}

pub const QUICK: Size = Size {
    profile: Profile::Quick,
    setups: 5,
    stream_len: 200_000,
    pinned: true,
};
#[cfg(test)]
pub const SMOKE: Size = Size {
    profile: Profile::Smoke,
    setups: 2,
    stream_len: 2_000,
    pinned: false,
};

/// The seeded gesture stream, the slimgen trace digest, and a digest of
/// the benchmark-owned `CreateMark` gestures (with their positions).
pub fn stream(plan: Plan, seed: u64, len: usize) -> (Vec<Gesture>, Digest, Digest) {
    let ops = trace::generate(seed, len, plan.mix);
    let trace_digest = trace::trace_digest(&ops);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c4_a271_6e00_0001);
    let mut owned = Digest::new();
    let mut out = Vec::with_capacity(len + len / 8);
    for (i, op) in ops.into_iter().enumerate() {
        out.push(Gesture::Trace(op));
        if plan.mark_every.is_some_and(|k| (i + 1) % k == 0) {
            let g = Gesture::CreateMark {
                doc: rng.gen(),
                addr_seed: rng.gen(),
                bundle: rng.gen(),
            };
            owned.update_u64(out.len() as u64);
            owned.update(format!("{g:?}").as_bytes());
            out.push(g);
        }
    }
    (out, trace_digest, owned)
}

/// Exact tallies of a session's history; equal for equal inputs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    pub gestures: u64,
    pub mutating: u64,
    pub marks_created: u64,
    pub clean: u64,
    pub committed: u64,
    pub full_snapshot: u64,
    pub compactions: u64,
    pub wal_appended: u64,
    pub snapshot_written: u64,
    pub digest: u64,
}

impl Tally {
    pub fn rows(&self) -> [(&'static str, u64); 10] {
        [
            ("gestures", self.gestures),
            ("mutating", self.mutating),
            ("marks_created", self.marks_created),
            ("commits_clean", self.clean),
            ("commits_committed", self.committed),
            ("commits_full_snapshot", self.full_snapshot),
            ("compactions", self.compactions),
            ("wal_bytes", self.wal_appended),
            ("snapshot_bytes", self.snapshot_written),
            ("outcome_digest", self.digest),
        ]
    }
}

/// A logged pad session over a generated corpus, with slimgen's count
/// model alongside.
pub struct Session {
    pub corpus: Corpus,
    pub disk: Disk,
    pub driver: Driver,
    next: usize,
    marks_pending: u64,
    tally: Tally,
}

impl Session {
    pub fn tally(&self) -> Tally {
        Tally {
            wal_appended: self.disk.appended(),
            snapshot_written: self.disk.written(),
            digest: self.driver.digest.0,
            ..self.tally.clone()
        }
    }

    /// Live `(bundles, scraps, marks)`.
    pub fn populations(&self) -> (usize, usize, usize) {
        populations(&self.corpus.system.pad)
    }
}

pub fn populations(pad: &PadSession) -> (usize, usize, usize) {
    (
        pad.dmi().bundles().len(),
        pad.dmi().all_scraps().len(),
        pad.marks().len(),
    )
}

fn pick(sel: u64, len: usize) -> Option<usize> {
    (len > 0).then(|| (sel % len as u64) as usize)
}

/// A gesture's class, its span name, and the layer function it calls.
fn names(g: &Gesture) -> (&'static str, &'static str, &'static str) {
    match g {
        Gesture::CreateMark { .. } => ("CreateMark", "gesture.CreateMark", ""),
        Gesture::Trace(op) => match op {
            TraceOp::BeginOp => ("BeginOp", "gesture.BeginOp", "slimpad.begin_op"),
            TraceOp::CreateBundle { .. } => (
                "CreateBundle",
                "gesture.CreateBundle",
                "slimpad.create_bundle",
            ),
            TraceOp::PlaceMark { .. } => ("PlaceMark", "gesture.PlaceMark", "slimpad.place_mark"),
            TraceOp::Annotate { .. } => {
                ("Annotate", "gesture.Annotate", "slimstore.add_annotation")
            }
            TraceOp::Link { .. } => ("Link", "gesture.Link", "slimstore.link_scraps"),
            TraceOp::DeleteScrap { .. } => (
                "DeleteScrap",
                "gesture.DeleteScrap",
                "slimstore.delete_scrap",
            ),
            TraceOp::Undo => ("Undo", "gesture.Undo", "slimpad.undo"),
            TraceOp::Extract { .. } => ("Extract", "gesture.Extract", "slimpad.extract"),
            TraceOp::Query { .. } => ("Query", "gesture.Query", "slimstore.find_scraps"),
            TraceOp::Commit => ("Commit", "gesture.Commit", "slimpad.commit"),
        },
    }
}

/// Classes that change the pad (the denominator of `wal_bytes_per_op`).
const MUTATING: [&str; 7] = [
    "CreateBundle",
    "PlaceMark",
    "Annotate",
    "Link",
    "DeleteScrap",
    "Undo",
    "CreateMark",
];

/// Commit classes, by outcome; `Commit.mark` is a delta whose batch
/// created a mark, so it carries the marks sidecar.
const COMMIT_CLASSES: [&str; 4] = ["Commit.clean", "Commit.delta", "Commit.mark", "Commit.full"];

/// Per-layer counts that spans cannot see.
#[derive(Debug, Default)]
struct LayerCounts {
    find_hits: u64,
    extract_degraded: u64,
}

/// Apply one gesture; returns its class and the log bytes it appended.
fn apply(
    s: &mut Session,
    g: &Gesture,
    t: &Tracer,
    lc: &mut LayerCounts,
) -> Res<(&'static str, u64)> {
    let (class, _, layer_fn) = names(g);
    s.tally.gestures += 1;
    if MUTATING.contains(&class) {
        s.tally.mutating += 1;
    }
    let op = match g {
        Gesture::CreateMark {
            doc,
            addr_seed,
            bundle,
        } => {
            let docs = &s.corpus.docs;
            let d = &docs[(doc % docs.len() as u64) as usize];
            let address = corpus::random_address(d, &mut StdRng::seed_from_u64(*addr_seed));
            let pad = &mut s.corpus.system.pad;
            let id = t.span("marks.create_mark_at", || {
                pad.marks_mut().create_mark_at(address)
            })?;
            let b = pick(*bundle, s.driver.bundles.len()).map(|i| s.driver.bundles[i]);
            let scrap = t.span("slimpad.place_mark", || {
                pad.place_mark(&id, None, (20, 20), b)
            })?;
            s.driver.scraps.push(scrap);
            s.driver.digest.update(b"create-mark");
            s.driver.digest.update_u64(s.driver.scraps.len() as u64);
            s.marks_pending += 1;
            s.tally.marks_created += 1;
            return Ok((class, 0));
        }
        Gesture::Trace(op) => op,
    };
    let d = &mut s.driver;
    match op {
        TraceOp::Extract { scrap } => {
            match pick(*scrap, d.scraps.len()) {
                None => d.digest.update(b"extract-skip"),
                Some(i) => {
                    let pad = &s.corpus.system.pad;
                    let (text, degraded) =
                        t.span(layer_fn, || pad.extract_degraded(d.scraps[i]))?;
                    d.digest.update(b"extract");
                    d.digest.update(text.as_bytes());
                    d.digest.update(if degraded { b"~" } else { b"=" });
                    lc.extract_degraded += u64::from(degraded);
                }
            }
            d.applied += 1;
        }
        TraceOp::Query { needle } => {
            let needle = QUERY_NEEDLES[(*needle % QUERY_NEEDLES.len() as u64) as usize];
            let pad = &s.corpus.system.pad;
            let hits = t.span(layer_fn, || pad.dmi().find_scraps(needle)).len();
            d.digest.update(b"query");
            d.digest.update_u64(hits as u64);
            lc.find_hits += hits as u64;
            d.applied += 1;
        }
        TraceOp::Commit => {
            let pad = &mut s.corpus.system.pad;
            let disk = &s.disk;
            let before = disk.appended();
            let outcome = t.span(layer_fn, || pad.commit(disk))?;
            let had_mark = std::mem::take(&mut s.marks_pending) > 0;
            let class = match outcome {
                CommitOutcome::Clean => {
                    d.digest.update(b"commit-clean");
                    s.tally.clean += 1;
                    "Commit.clean"
                }
                CommitOutcome::Committed { ops, .. } => {
                    d.digest.update(b"commit");
                    d.digest.update_u64(ops as u64);
                    s.tally.committed += 1;
                    if had_mark {
                        "Commit.mark"
                    } else {
                        "Commit.delta"
                    }
                }
                CommitOutcome::NeedsFullSnapshot => {
                    d.digest.update(b"commit-compacted");
                    s.tally.full_snapshot += 1;
                    "Commit.full"
                }
            };
            d.applied += 1;
            let bytes = disk.appended() - before;
            if pad.should_compact() {
                t.span("slimpad.compact", || pad.compact(disk))?;
                s.tally.compactions += 1;
            }
            return Ok((class, bytes));
        }
        other => {
            let sys = &mut s.corpus.system;
            let ids = &s.corpus.mark_ids;
            let disk = &s.disk;
            t.span(layer_fn, || d.apply(sys, ids, disk, other));
        }
    }
    Ok((class, 0))
}

/// Build a logged session over a fresh corpus.
pub fn open(profile: Profile, seed: u64) -> Res<Session> {
    let mut corpus = corpus::generate(profile, seed);
    let disk = Disk::new();
    corpus.system.pad.enable_logging(&disk, Path::new(PAD))?;
    let driver = Driver::new(&corpus.system);
    Ok(Session {
        corpus,
        disk,
        driver,
        next: 0,
        marks_pending: 0,
        tally: Tally::default(),
    })
}

/// Apply one gesture untraced: its class and the log bytes it appended.
pub fn step(s: &mut Session, g: &Gesture) -> Res<(&'static str, u64)> {
    apply(s, g, &Tracer::new(false), &mut LayerCounts::default())
}

/// The log file that pairs with the pad file.
pub fn wal_path() -> std::path::PathBuf {
    superimposed::trim::StoreLog::wal_path(Path::new(PAD))
}

/// Set-up: a logged session, warmed up by one clean commit, so the
/// marks XML, CRC and log paths have run once at the same cost on every
/// seed.
fn setup(size: Size, seed: u64) -> Res<Session> {
    let mut s = open(size.profile, seed)?;
    s.corpus.system.pad.commit(&s.disk)?;
    Ok(s)
}

/// Gestures of the smoke-size replay that gives each class its share.
const SHARE_GESTURES: usize = 6_000;

/// Each class's share of the workload's long-run mix: its share of the
/// default seed's first `SHARE_GESTURES` gestures, replayed on a
/// smoke-size pad. The shares belong to the plan, not to the run's
/// seed, so every seed's class costs are weighted alike.
fn class_shares(plan: Plan) -> Res<BTreeMap<&'static str, f64>> {
    let seed = pins::DEFAULT_SEED;
    let (replay, _, _) = stream(plan, seed, SHARE_GESTURES);
    let mut s = open(Profile::Smoke, seed)?;
    let mut shares = BTreeMap::new();
    for g in &replay {
        let (class, _) = step(&mut s, g)?;
        *shares.entry(class).or_insert(0.0) += 1.0 / replay.len() as f64;
    }
    Ok(shares)
}

/// Latencies of one timed loop.
#[derive(Default)]
struct Record {
    gestures: usize,
    failed: u64,
    wall_s: f64,
    /// The pace task's median time during the loop, ms.
    pace_ms: Option<f64>,
    /// Sum of the per-gesture latencies, ns.
    op_ns: f64,
    by_class_us: BTreeMap<&'static str, Sample>,
    wal_by_class: BTreeMap<&'static str, u64>,
    counts: LayerCounts,
}

impl Record {
    fn all_us(&self) -> Sample {
        let mut all = Sample::default();
        self.by_class_us
            .values()
            .flat_map(|s| s.values())
            .for_each(|v| all.push(*v));
        all
    }

    /// Every latency of the given classes, us.
    fn samples_us(&self, classes: &[&str]) -> Sample {
        let mut all = Sample::default();
        for c in classes {
            if let Some(s) = self.by_class_us.get(c) {
                s.values().iter().for_each(|v| all.push(*v));
            }
        }
        all
    }
}

/// Time the next `ops` gestures of `stream` (fewer if it runs out).
fn drive(s: &mut Session, stream: &[Gesture], ops: usize, t: &Tracer) -> Record {
    let mut r = Record::default();
    let mark = pace::loop_mark();
    let start = Instant::now();
    while s.next < stream.len() && r.gestures < ops {
        let g = &stream[s.next];
        t.set_op(s.next as u64);
        let (_, gesture_span, _) = names(g);
        let t0 = Instant::now();
        let applied = t.span(gesture_span, || apply(s, g, t, &mut r.counts));
        let ns = t0.elapsed().as_nanos() as f64;
        s.next += 1;
        r.gestures += 1;
        r.op_ns += ns;
        pace::tick();
        match applied {
            Ok((class, bytes)) => {
                r.by_class_us.entry(class).or_default().push(ns / 1e3);
                *r.wal_by_class.entry(class).or_insert(0) += bytes;
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("gesture {} failed: {e}", s.next - 1);
            }
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r.pace_ms = pace::loop_median_since(mark);
    r
}

/// Commit what the loop left uncommitted and honour the compaction
/// contract, so the disk holds the live session.
fn seal(s: &mut Session) -> Res<()> {
    let pad = &mut s.corpus.system.pad;
    pad.commit(&s.disk)?;
    if pad.should_compact() {
        pad.compact(&s.disk)?;
    }
    Ok(())
}

/// Reopen a copy of the pad's committed bytes: the reopened
/// `(bundles, scraps, marks)`.
fn reopen(s: &Session) -> Res<(usize, usize, usize)> {
    let files = s.disk.files();
    let manager = s.corpus.system.fresh_manager()?;
    let (pad, _) = PadSession::open_logged(&files, Path::new(PAD), manager)?;
    Ok(populations(&pad))
}

/// Run `rounds` or `charting` once, timing `ops` gestures.
pub fn run(
    name: &str,
    plan: Plan,
    size: Size,
    seed: u64,
    ops: usize,
    traced: bool,
) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (stream, trace_digest, owned_digest) = stream(plan, seed, size.stream_len);

    // Set up several times: setup_s is the median, and every repeat of
    // one seed must reach the same exact state.
    let mut setup_s = Sample::default();
    let mut warm = Vec::new();
    let mut session = None;
    for _ in 0..size.setups {
        drop(session.take());
        let t0 = Instant::now();
        let s = setup(size, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        pace::after_setup();
        warm.push(s.tally());
        session = Some(s);
    }
    let mut a = session.expect("at least one set-up");
    pin_inputs(
        &mut out,
        name,
        (plan, size, seed),
        &a,
        (trace_digest, owned_digest),
    );
    out.verdict(
        "set-up repeats of one seed reach the same state",
        warm.windows(2).all(|w| w[0] == w[1]),
    );
    out.info(format!("setup {}", setup_s.describe("s")));

    let rec = drive(&mut a, &stream, ops, &Tracer::new(false));
    // The workload's peak, before the checks below add their own.
    let rss_mb = crate::report::peak_rss_mb();
    out.verdict("the stream holds the run's gestures", rec.gestures == ops);
    out.verdict(
        "Driver::counts_match after the loop",
        a.driver.counts_match(&a.corpus.system),
    );
    out.attempted = rec.gestures as u64;
    out.failed = rec.failed;
    let tally = a.tally();
    out.exact.extend(tally.rows());

    if !traced {
        seal(&mut a)?;
        let live = a.populations();
        out.verdict(
            "a reopen from the disk bytes has the live populations",
            reopen(&a)? == live,
        );
        let shares = class_shares(plan)?;
        loop_metrics(&mut out, &rec, plan.saves, &shares);
        out.e2e.insert("setup_s", setup_s.median());
        out.e2e.insert("rss_mb", rss_mb);
        return Ok(out);
    }

    // The traced run replays exactly the untraced run's gestures on a
    // fresh set-up, so its slowdown is the tracing overhead.
    drop(a);
    let mut b = setup(size, seed)?;
    let tracer = Tracer::new(true);
    let rec_b = drive(&mut b, &stream, ops, &tracer);
    out.verdict(
        "the traced replay reaches the untraced run's exact state",
        b.tally() == tally,
    );
    out.failed += rec_b.failed;
    layer_metrics(&mut out, &tracer, &rec, &rec_b);
    seal(&mut b)?;
    let sys = &b.corpus.system;
    let manager = || sys.fresh_manager().map_err(Into::into);
    let label = format!("{name}-{seed:#x}");
    tracer.save(&format!("{label}-loop"));
    restart::traced_breakdown(&mut out, &label, &b.disk.files(), &manager)?;
    Ok(out)
}

/// Print the run's input digests, check them against their pins, and on
/// an unpinned seed check the default seed's cheap inputs instead.
fn pin_inputs(
    out: &mut Outcome,
    name: &str,
    (plan, size, seed): (Plan, Size, u64),
    s: &Session,
    (trace_digest, owned_digest): (Digest, Digest),
) {
    let stats = s.corpus.stats;
    pins::check(
        out,
        name,
        seed,
        &[
            ("corpus_docs", stats.docs as u64),
            ("corpus_marks", stats.marks as u64),
            ("corpus_bundles", stats.bundles as u64),
            ("corpus_scraps", stats.scraps as u64),
            ("input_digest", s.corpus.input_digest.0),
            (
                "smoke_input_digest",
                corpus::generate(Profile::Smoke, seed).input_digest.0,
            ),
            ("trace_digest", trace_digest.0),
            ("createmark_digest", owned_digest.0),
        ],
        size.pinned,
    );
    if size.pinned && !pins::is_pinned(seed) {
        let d = pins::DEFAULT_SEED;
        let (_, trace_digest, owned_digest) = stream(plan, d, size.stream_len);
        pins::check(
            out,
            name,
            d,
            &[
                (
                    "smoke_input_digest",
                    corpus::generate(Profile::Smoke, d).input_digest.0,
                ),
                ("trace_digest", trace_digest.0),
                ("createmark_digest", owned_digest.0),
            ],
            true,
        );
    }
}

/// The end-to-end figures of the timed loop: `ops_per_s` at the
/// long-run class mix `shares`, the medians as measured.
fn loop_metrics(
    out: &mut Outcome,
    rec: &Record,
    saves: &[&str],
    shares: &BTreeMap<&'static str, f64>,
) {
    let mut all = rec.all_us();
    let mut commits = rec.samples_us(&COMMIT_CLASSES);
    // A class the run did not reach costs nothing, except a save, which
    // costs the run's mean save.
    let mean_us: f64 = shares
        .iter()
        .map(|(class, share)| {
            let mean = match rec.by_class_us.get(class) {
                Some(s) => s.mean(),
                None if class.starts_with("Commit") => commits.mean(),
                None => 0.0,
            };
            share * mean
        })
        .sum();
    out.e2e.insert("ops_per_s", 1e6 / mean_us);
    out.e2e.insert("op_p50_us", all.median());
    out.e2e
        .insert("commit_p50_ms", rec.samples_us(saves).median() / 1e3);
    out.info(format!(
        "{} gestures in {:.2} s = {:.1}/s; at the long-run mix {:.1}/s",
        rec.gestures,
        rec.wall_s,
        rec.gestures as f64 / rec.wall_s,
        1e6 / mean_us
    ));
    out.info(format!("op {}", all.describe("us")));
    out.info(format!("commit {}", commits.describe("us")));
    let mut marks = rec.samples_us(&["Commit.mark"]);
    out.info(format!("mark commit {}", marks.describe("us")));
    let wal: u64 = rec.wal_by_class.values().sum();
    let mutating: usize = MUTATING.iter().map(|c| rec.samples_us(&[c]).len()).sum();
    out.info(format!(
        "log bytes {wal} over {mutating} mutating gestures ({:.0} B per op)",
        wal as f64 / mutating.max(1) as f64
    ));
    for (class, s) in &rec.by_class_us {
        let share = shares.get(class).copied().unwrap_or(0.0);
        let mean = s.mean();
        let mut s = s.clone();
        out.info(format!(
            "  {class:<13} share {share:6.4} mean {mean:.1} {}",
            s.describe("us")
        ));
    }
}

/// Per-layer figures of a traced loop, from its spans and counts.
fn layer_metrics(out: &mut Outcome, t: &Tracer, untraced: &Record, traced: &Record) {
    let by_name = t.by_name();
    let calls = |n: &str| by_name.get(n).map_or(0.0, |a| a.calls as f64);
    let busy_ms = |n: &str| by_name.get(n).map_or(0.0, |a| a.busy_ns as f64 / 1e6);
    let p50 = |n: &str, div: f64| by_name.get(n).map_or(0.0, |a| a.median_ns() / div);
    for f in [
        "slimpad.commit",
        "slimpad.compact",
        "slimstore.find_scraps",
        "slimpad.extract",
    ] {
        out.layer(format!("{f}.calls"), calls(f));
    }
    for f in [
        "slimpad.commit",
        "slimpad.compact",
        "slimstore.find_scraps",
        "slimpad.extract",
        "marks.create_mark_at",
        "slimpad.place_mark",
        "slimstore.add_annotation",
        "slimstore.link_scraps",
        "slimstore.delete_scrap",
    ] {
        out.layer(format!("{f}.busy_ms"), busy_ms(f));
    }
    out.layer("slimpad.commit.p50_ms", p50("slimpad.commit", 1e6));
    out.layer(
        "slimstore.find_scraps.p50_us",
        p50("slimstore.find_scraps", 1e3),
    );
    out.layer("slimpad.extract.p50_us", p50("slimpad.extract", 1e3));
    let mut marks = traced.samples_us(&["Commit.mark"]);
    out.layer("slimpad.commit.mark_p50_ms", marks.median() / 1e3);
    let n = |c: &str| traced.by_class_us.get(c).map_or(0.0, |s| s.len() as f64);
    out.layer("slimpad.commit.clean", n("Commit.clean"));
    out.layer(
        "slimpad.commit.committed",
        n("Commit.delta") + n("Commit.mark"),
    );
    out.layer("slimpad.commit.full_snapshot", n("Commit.full"));
    let hits = traced.counts.find_hits as f64;
    out.layer(
        "slimstore.find_scraps.hits_per_call",
        hits / calls("slimstore.find_scraps").max(1.0),
    );
    out.layer(
        "slimpad.extract.degraded",
        traced.counts.extract_degraded as f64,
    );
    let appended: u64 = traced.wal_by_class.values().sum();
    let committed = n("Commit.delta") + n("Commit.mark");
    out.layer("trim.wal.bytes_appended", appended as f64);
    out.layer(
        "trim.wal.bytes_per_commit",
        appended as f64 / committed.max(1.0),
    );
    let mutating: f64 = MUTATING.iter().map(|c| n(c)).sum();
    out.layer("trim.wal.bytes_per_op", appended as f64 / mutating.max(1.0));
    out.layer("trace.spans", t.len() as f64);

    // Self time per layer, and how much of the measured gesture time
    // the gesture spans and the layer spans under them cover.
    for (layer, ns) in t.self_ns_by_layer() {
        out.layer(format!("self_ms.{layer}"), ns as f64 / 1e6);
    }
    let gesture_ns: f64 = by_name
        .iter()
        .filter(|(n, _)| n.starts_with("gesture."))
        .map(|(_, a)| a.busy_ns as f64)
        .sum();
    let gesture_self_ns: f64 = by_name
        .iter()
        .filter(|(n, _)| n.starts_with("gesture."))
        .map(|(_, a)| a.self_ns as f64)
        .sum();
    let verb_coverage = gesture_ns / traced.op_ns;
    out.layer("trace.verb_coverage", verb_coverage);
    out.layer("trace.layer_coverage", 1.0 - gesture_self_ns / gesture_ns);
    out.verdict(
        "gesture spans cover >= 95% of the measured gesture time",
        verb_coverage >= 0.95,
    );
    let paced = |r: &Record| pace::at_reference(r.wall_s, r.pace_ms);
    let overhead = paced(traced) / paced(untraced) - 1.0;
    out.layer("trace.overhead_pct", overhead * 100.0);
    out.info(format!(
        "tracing overhead: {} identical gestures took {:.3} s traced vs {:.3} s untraced \
         as measured, {:.3} s vs {:.3} s at the reference pace ({:+.1}%)",
        traced.gestures,
        traced.wall_s,
        untraced.wall_s,
        paced(traced),
        paced(untraced),
        overhead * 100.0
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark applies `Extract`, `Query` and `Commit` itself; its
    /// digest must stay byte-for-byte what slimgen's `Driver` produces.
    #[test]
    fn applier_matches_slimgen_driver() {
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy] {
            let plan = Plan {
                mix,
                mark_every: None,
                saves: &COMMIT_CLASSES,
            };
            let (stream, _, _) = stream(plan, 11, 400);
            let mut ours = open(Profile::Smoke, 11).unwrap();
            for g in &stream {
                step(&mut ours, g).unwrap();
            }
            let mut corpus = corpus::generate(Profile::Smoke, 11);
            let disk = Disk::new();
            corpus
                .system
                .pad
                .enable_logging(&disk, Path::new(PAD))
                .unwrap();
            let mut driver = Driver::new(&corpus.system);
            for g in &stream {
                let Gesture::Trace(op) = g else {
                    unreachable!("no marks in this plan")
                };
                driver.apply(&mut corpus.system, &corpus.mark_ids, &disk, op);
                if matches!(op, TraceOp::Commit) && corpus.system.pad.should_compact() {
                    corpus.system.pad.compact(&disk).unwrap();
                }
            }
            assert_eq!(ours.driver.digest, driver.digest, "{mix:?}");
            assert_eq!(ours.driver.applied, driver.applied);
        }
    }

    /// `WRITE_HEAVY_OPS_PER_COMMIT` is slimgen's own save rate.
    #[test]
    fn write_heavy_saves_every_21_ops() {
        let ops = trace::generate(7, 200_000, Mix::WriteHeavy);
        let commits = ops.iter().filter(|o| matches!(o, TraceOp::Commit)).count();
        let per_commit = ops.len() as f64 / commits as f64;
        assert!(
            (per_commit - WRITE_HEAVY_OPS_PER_COMMIT as f64).abs() < 0.5,
            "{per_commit}"
        );
    }
}
