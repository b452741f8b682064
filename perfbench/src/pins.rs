//! Pinned inputs. Every run prints the digests of what it generated;
//! on the default and the held-out seed it also compares them with the
//! values recorded here and fails on drift, so a change to slimgen (or
//! to the benchmark's own streams) cannot silently redefine a workload.
//! Runs on other seeds regenerate the default seed's cheap inputs and
//! check those instead.

use crate::report::Outcome;

/// The seed the figures are quoted at.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// The seed a claimed gain must also hold on.
pub const HELD_OUT_SEED: u64 = 0x0DDBA11;

type Pins = &'static [(&'static str, u64)];

/// `(workload, seed, pins)`, as printed by runs at the two seeds.
const PINS: &[(&str, u64, Pins)] = &[
    (
        "rounds",
        DEFAULT_SEED,
        &[
            ("corpus_docs", 1_020),
            ("corpus_marks", 100_500),
            ("corpus_bundles", 1_200),
            ("corpus_scraps", 4_000),
            ("input_digest", 0x327566be04b57b96),
            ("smoke_input_digest", 0x40a51f1848ee164b),
            ("trace_digest", 0xdcb8cefbd4947208),
            ("createmark_digest", 0xcbf29ce484222325),
        ],
    ),
    (
        "charting",
        DEFAULT_SEED,
        &[
            ("corpus_docs", 1_020),
            ("corpus_marks", 100_500),
            ("corpus_bundles", 1_200),
            ("corpus_scraps", 4_000),
            ("input_digest", 0x327566be04b57b96),
            ("smoke_input_digest", 0x40a51f1848ee164b),
            ("trace_digest", 0x5b9ea136a2af2943),
            ("createmark_digest", 0xbe516940a4a91206),
        ],
    ),
    (
        "restart",
        DEFAULT_SEED,
        &[
            ("corpus_docs", 1_020),
            ("corpus_marks", 100_500),
            ("corpus_bundles", 1_200),
            ("corpus_scraps", 4_000),
            ("input_digest", 0x327566be04b57b96),
            ("trace_digest", 0xecd7be2b323ca2d7),
            ("createmark_digest", 0x1fc41bfff03986c1),
        ],
    ),
    (
        "serve",
        DEFAULT_SEED,
        &[
            ("preload_marks", 10_000),
            ("trace_digest", 0x91d4d0c9aec78fdc),
            ("padop_digest", 0x3b0bfd55dd63e40c),
        ],
    ),
    (
        "rounds",
        HELD_OUT_SEED,
        &[
            ("corpus_docs", 1_020),
            ("corpus_marks", 100_500),
            ("corpus_bundles", 1_200),
            ("corpus_scraps", 4_000),
            ("input_digest", 0xee9e974e7acc84ce),
            ("smoke_input_digest", 0x5db3a8ffd1f72655),
            ("trace_digest", 0xedd39b866cae8a3e),
            ("createmark_digest", 0xcbf29ce484222325),
        ],
    ),
    (
        "charting",
        HELD_OUT_SEED,
        &[
            ("corpus_docs", 1_020),
            ("corpus_marks", 100_500),
            ("corpus_bundles", 1_200),
            ("corpus_scraps", 4_000),
            ("input_digest", 0xee9e974e7acc84ce),
            ("smoke_input_digest", 0x5db3a8ffd1f72655),
            ("trace_digest", 0xaceabf74a1589a5a),
            ("createmark_digest", 0xf155f43ee60a2af6),
        ],
    ),
    (
        "restart",
        HELD_OUT_SEED,
        &[
            ("corpus_docs", 1_020),
            ("corpus_marks", 100_500),
            ("corpus_bundles", 1_200),
            ("corpus_scraps", 4_000),
            ("input_digest", 0xee9e974e7acc84ce),
            ("trace_digest", 0x65900fb4007fad52),
            ("createmark_digest", 0x62f69b7d34378fd1),
        ],
    ),
    (
        "serve",
        HELD_OUT_SEED,
        &[
            ("preload_marks", 10_000),
            ("trace_digest", 0xe44ff7b92c1b6e0c),
            ("padop_digest", 0x7c7f6dd5feeaa73b),
        ],
    ),
];

fn pins(workload: &str, seed: u64) -> Option<Pins> {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, p)| *p)
}

pub fn is_pinned(seed: u64) -> bool {
    seed == DEFAULT_SEED || seed == HELD_OUT_SEED
}

/// Print `values` and, when `enforce` and `(workload, seed)` is pinned,
/// fail the run on any value that drifted or has no pin. Only the
/// benchmark's own sizes are pinned; smoke-size self-tests print only.
pub fn check(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    values: &[(&'static str, u64)],
    enforce: bool,
) {
    let table = if enforce { pins(workload, seed) } else { None };
    for (name, value) in values {
        out.info(format!(
            "input {workload} seed {seed:#x} {name} = {value:#x}"
        ));
        if let Some(table) = table {
            let pinned = table.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            out.verdict(
                format!("input {name} of {workload} at seed {seed:#x} matches its pin"),
                pinned == Some(*value),
            );
        }
    }
    if enforce && is_pinned(seed) && table.is_none() {
        out.verdict(format!("{workload} has pins for seed {seed:#x}"), false);
    }
}
