//! Incremental re-parsing differential tests: after any sequence of
//! random edits — inserts, deletes and replacements at arbitrary
//! offsets, including edits that straddle token boundaries or land
//! inside retained token tails — an incremental re-parse must agree
//! byte-for-byte with a from-scratch parse of the current document:
//! same values, same errors, same error positions and line/columns.
//!
//! The sweep runs all six benchmark grammars through both staged
//! entry points (`parse_incremental`, `validate_incremental`) and the
//! unstaged interpreter (`parse_incremental_fused`); targeted tests
//! pin down suffix convergence and shifted-error reuse.

// Errors inline their expected-token set (allocation-free); the
// larger Err variant is deliberate.
#![allow(clippy::result_large_err)]

use std::ops::Range;

use flap::{IncrementalConfig, IncrementalSession, Parser};
use flap_grammars::GrammarDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense checkpoints so a few-KiB test document spans many intervals.
const INTERVAL: usize = 512;

fn config() -> IncrementalConfig {
    IncrementalConfig { interval: INTERVAL }
}

/// One random edit against the current document: replace `range` with
/// the returned bytes. Mixes content-preserving digit swaps (which
/// usually keep the document valid) with arbitrary inserts, deletes
/// and replacements drawn from a donor document — the latter land in
/// the middle of tokens, across token boundaries, and inside
/// whitespace runs, and routinely make the document invalid, which is
/// exactly the point: errors must agree too.
fn random_edit(rng: &mut StdRng, doc: &[u8], donor: &[u8]) -> (Range<usize>, Vec<u8>) {
    let len = doc.len();
    let snippet = |rng: &mut StdRng, max: usize| -> Vec<u8> {
        if rng.random_range(0..8u32) == 0 {
            // exercise line-accounting shifts explicitly
            vec![b'\n']
        } else {
            let n = rng.random_range(1..=max);
            let at = rng.random_range(0..donor.len().saturating_sub(n).max(1));
            donor[at..(at + n).min(donor.len())].to_vec()
        }
    };
    match rng.random_range(0..4u32) {
        0 => {
            // digit-for-digit swap at a random digit position
            let start = rng.random_range(0..len.max(1));
            if let Some(i) = doc
                .iter()
                .skip(start)
                .position(|b| b.is_ascii_digit())
                .map(|i| start + i)
            {
                return (i..i + 1, vec![rng.random_range(b'1'..=b'9')]);
            }
            (0..0, snippet(rng, 4))
        }
        1 => {
            let at = rng.random_range(0..=len);
            (at..at, snippet(rng, 8))
        }
        2 if len > 0 => {
            let at = rng.random_range(0..len);
            let n = rng.random_range(1..=8usize).min(len - at);
            (at..at + n, Vec::new())
        }
        _ => {
            let at = rng.random_range(0..=len);
            let n = rng.random_range(0..=8usize).min(len - at);
            (at..at + n, snippet(rng, 8))
        }
    }
}

/// Re-parses both sessions and compares against from-scratch results
/// of the same document: values through `finish`, errors verbatim
/// (position, line and column included).
fn compare<V: Clone + 'static>(
    def: &GrammarDef<V>,
    parser: &Parser<V>,
    val: &mut IncrementalSession<V>,
    chk: &mut IncrementalSession<V>,
) {
    let doc = val.doc().to_vec();

    let inc = parser.parse_incremental(val).map(def.finish);
    let scratch = parser.parse(&doc).map(def.finish);
    assert_eq!(inc, scratch, "{}: value re-parse diverged", def.name);
    let st = val.stats();
    assert_eq!(st.suffix_reused, 0, "value parses cannot reuse suffixes");
    if inc.is_ok() {
        assert_eq!(
            st.prefix_reused + st.parsed + st.suffix_reused,
            doc.len(),
            "{}: reuse accounting must cover the document",
            def.name
        );
    }

    let v = parser.validate_incremental(chk);
    let scratch = parser.recognize(&doc);
    assert_eq!(v, scratch, "{}: validation re-parse diverged", def.name);
    let st = chk.stats();
    if v.is_ok() {
        assert_eq!(
            st.prefix_reused + st.parsed + st.suffix_reused,
            doc.len(),
            "{}: reuse accounting must cover the document",
            def.name
        );
    }
}

fn sweep<V: Clone + 'static>(def: &GrammarDef<V>, seed: u64, size: usize, edits: usize) {
    let parser = def.flap_parser();
    let doc0 = (def.generate)(seed, size);
    let donor = (def.generate)(seed + 101, 1024);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1eaf);

    let mut val = parser.incremental_with(config());
    let mut chk = parser.incremental_with(config());
    val.splice(0..0, &doc0);
    chk.splice(0..0, &doc0);
    compare(def, &parser, &mut val, &mut chk);

    for _ in 0..edits {
        let (range, repl) = random_edit(&mut rng, val.doc(), &donor);
        val.splice(range.clone(), &repl);
        chk.splice(range, &repl);
        compare(def, &parser, &mut val, &mut chk);
    }
}

#[test]
fn json_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::json::def(), 11, 8 * 1024, 40);
}

#[test]
fn sexp_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::sexp::def(), 12, 8 * 1024, 40);
}

#[test]
fn arith_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::arith::def(), 13, 4 * 1024, 40);
}

#[test]
fn pgn_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::pgn::def(), 14, 8 * 1024, 40);
}

#[test]
fn ppm_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::ppm::def(), 15, 8 * 1024, 40);
}

#[test]
fn csv_random_edits_agree_with_from_scratch() {
    sweep(&flap_grammars::csv::def(), 16, 8 * 1024, 40);
}

/// Multiple splices between two re-parses must accumulate correctly.
#[test]
fn batched_splices_between_reparses_agree() {
    batched_sweep(config(), 8 * 1024, 10, 0xbac5);
}

/// The same at the default config, whose validation checkpoints are
/// spaced by their size (~4 KiB on json).
#[test]
fn batched_splices_agree_at_the_default_spacing() {
    batched_sweep(IncrementalConfig::default(), 48 * 1024, 30, 0x5ace);
}

/// `rounds` of 1–4 random splices on a json document of `size` bytes,
/// both sessions compared with from-scratch parses after each round.
fn batched_sweep(config: IncrementalConfig, size: usize, rounds: usize, seed: u64) {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let donor = (def.generate)(7, 1024);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut val = parser.incremental_with(config);
    let mut chk = parser.incremental_with(config);
    let doc0 = (def.generate)(8, size);
    val.splice(0..0, &doc0);
    chk.splice(0..0, &doc0);
    for _ in 0..rounds {
        for _ in 0..rng.random_range(1..=4u32) {
            let (range, repl) = random_edit(&mut rng, val.doc(), &donor);
            val.splice(range.clone(), &repl);
            chk.splice(range, &repl);
        }
        compare(&def, &parser, &mut val, &mut chk);
    }
}

/// Splices accumulate between re-validations in any order: a
/// checkpoint that lies after one edit but before an earlier-made edit
/// further on must not be used for convergence, since the suffix it
/// recorded has changed.
#[test]
fn convergence_never_skips_an_earlier_splice_further_on() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(9, 16 * 1024);
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));

    // break the document late, then change a digit early
    let late = doc.len() * 3 / 4;
    inc.splice(late..late, b"\x02");
    let early = (doc.len() / 4..late)
        .find(|&i| (b'1'..=b'9').contains(&doc[i]))
        .expect("generated json contains digits");
    inc.splice(
        early..early + 1,
        if doc[early] == b'7' { b"8" } else { b"7" },
    );
    let got = parser.validate_incremental(&mut inc);
    assert_eq!(got, parser.recognize(inc.doc()));
    assert!(got.is_err(), "the late break must be reported");
}

/// A tiny edit deep inside a large document: validation must restart
/// near the edit (prefix reuse), stop shortly after it (suffix
/// convergence), and still report the from-scratch verdict.
#[test]
fn validation_converges_after_a_small_edit() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(21, 64 * 1024);
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert!(!inc.stats().converged, "initial parse has nothing to reuse");

    // swap one digit for another in the middle of the document
    let mid = doc.len() / 2;
    let at = (mid..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .expect("generated json contains digits");
    inc.splice(at..at + 1, b"7");
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert_eq!(parser.recognize(inc.doc()), Ok(()));

    let st = inc.stats();
    assert!(st.converged, "a 1-byte edit must re-converge");
    assert!(st.prefix_reused > 0, "restart must skip the prefix");
    assert!(st.suffix_reused > 0, "convergence must skip the suffix");
    assert!(
        st.parsed <= 4 * INTERVAL,
        "re-parse work ({} bytes) should be a few intervals, not the document",
        st.parsed
    );
    assert_eq!(st.prefix_reused + st.parsed + st.suffix_reused, doc.len());
}

/// Suffix convergence must return *shifted* outcomes: an error past
/// the edit moves by the edit's length delta (and its line/column
/// accounting moves with any newline change).
#[test]
fn converged_validation_shifts_a_recorded_error() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let mut doc = (def.generate)(22, 32 * 1024);
    let corrupt = doc.len() - 2;
    doc[corrupt] = 0x02; // un-lexable byte near the end
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    let first = parser.validate_incremental(&mut inc);
    assert_eq!(first, parser.recognize(&doc));
    assert!(first.is_err(), "corrupted document must fail");

    // grow a number near the front: delta = +2, document still valid
    // up to the corruption, so the old (shifted) error is reusable
    let at = doc
        .iter()
        .position(|b| b.is_ascii_digit())
        .expect("generated json contains digits");
    inc.splice(at..at, b"42");
    let shifted = parser.validate_incremental(&mut inc);
    assert_eq!(shifted, parser.recognize(inc.doc()));
    assert!(
        inc.stats().converged,
        "edit far before the error must converge"
    );
    let (a, b) = (first.unwrap_err(), shifted.unwrap_err());
    assert_eq!(a.pos() + 2, b.pos(), "error offset must shift by the delta");
}

/// An edit near the end of a large document: the restart point must
/// be close to the edit, not byte 0.
#[test]
fn late_edit_reuses_nearly_the_whole_prefix() {
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(23, 64 * 1024);
    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    let want = parser.parse(&doc).map(def.finish);
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);

    let at = (doc.len() - 64..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .or_else(|| (0..doc.len()).rfind(|&i| doc[i].is_ascii_digit()))
        .expect("generated sexp contains digits");
    inc.splice(at..at + 1, b"9");
    let want = parser.parse(inc.doc()).map(def.finish);
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);
    let st = inc.stats();
    assert!(
        st.prefix_reused + 2 * INTERVAL >= at,
        "restart point {} must be within two intervals of the edit at {at}",
        st.prefix_reused
    );
}

/// Switching a session between value and validation mode (or between
/// parsers) invalidates recorded state instead of misusing it.
#[test]
fn mode_and_parser_switches_invalidate_cleanly() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let other = def.flap_parser(); // same grammar, distinct identity
    let doc = (def.generate)(24, 8 * 1024);
    let want = parser.parse(&doc).map(def.finish);

    let mut inc = parser.incremental_with(config());
    inc.splice(0..0, &doc);
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);
    // value -> validate on the same session
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert_eq!(
        inc.stats().prefix_reused,
        0,
        "mode switch drops checkpoints"
    );
    // validate -> validate under a different parser identity
    assert_eq!(other.validate_incremental(&mut inc), Ok(()));
    assert_eq!(
        inc.stats().prefix_reused,
        0,
        "owner switch drops checkpoints"
    );
    // and back to values
    assert_eq!(parser.parse_incremental(&mut inc).map(def.finish), want);
}

/// The unstaged interpreter's incremental path agrees with its own
/// from-scratch parse under the same random edit script.
#[test]
fn unstaged_incremental_agrees_with_from_scratch() {
    let def = flap_grammars::json::def();
    let mut lexer = (def.lexer)();
    let grammar = flap_dgnf::normalize(&(def.cfe)()).unwrap();
    let fused = flap_fuse::fuse(&mut lexer, &grammar).unwrap();
    let skip = lexer.skip_regex();

    let doc0 = (def.generate)(31, 4 * 1024);
    let donor = (def.generate)(32, 512);
    let mut rng = StdRng::seed_from_u64(0xfced);
    let mut inc = flap_fuse::FusedIncremental::with_config(IncrementalConfig { interval: 256 });
    inc.splice(0..0, &doc0);
    for _ in 0..25 {
        let (range, repl) = random_edit(&mut rng, inc.doc(), &donor);
        inc.splice(range, &repl);
        let doc = inc.doc().to_vec();
        let got = flap_fuse::parse_incremental_fused(&fused, lexer.arena_mut(), skip, &mut inc)
            .map(def.finish);
        let want = flap_fuse::parse_fused(&fused, lexer.arena_mut(), skip, &doc).map(def.finish);
        assert_eq!(got, want, "unstaged incremental diverged");
        assert_eq!(
            inc.stats().suffix_reused,
            0,
            "unstaged reuse is prefix-only"
        );
    }
}

/// A json document of about 1 MB, validated under the default config,
/// and the offset of a digit near its middle.
fn validated_json_mb() -> (Parser<i64>, IncrementalSession<i64>, usize) {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(41, 1 << 20);
    let at = (doc.len() / 2..doc.len())
        .find(|&i| doc[i].is_ascii_digit())
        .expect("generated json contains digits");
    let mut inc = parser.incremental();
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    (parser, inc, at)
}

/// Validation spaces shallow checkpoints 4 KiB apart, so a small edit
/// re-scans a few KiB at the default config, while the checkpoints
/// keep at most an eighth of the document plus one checkpoint. With
/// the 64 KiB cap not binding, one checkpoint is below 64 KiB / 8.
#[test]
fn default_validation_rescans_a_few_kib_per_edit() {
    let (parser, mut inc, at) = validated_json_mb();
    let doc_len = inc.doc().len();
    let interval = IncrementalConfig::default().interval;
    let st = inc.stats();
    assert!(
        st.retained_bytes <= doc_len / 8 + interval / 8,
        "{st}: checkpoints keep more than doc_len / 8 plus one checkpoint"
    );

    let digit = inc.doc()[at];
    inc.splice(at..at + 1, if digit == b'7' { b"8" } else { b"7" });
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    assert_eq!(parser.recognize(inc.doc()), Ok(()));
    let st = inc.stats();
    assert!(st.converged, "{st}: a 1-byte edit must re-converge");
    assert!(st.parsed <= 8 * 1024, "{st}: re-scanned more than 8 KiB");
    assert!(
        st.retained_bytes <= doc_len / 8 + interval / 8,
        "{st}: checkpoints keep more than doc_len / 8 plus one checkpoint"
    );
    assert_eq!(st.prefix_reused + st.parsed + st.suffix_reused, doc_len);
}

/// Deeply nested states make large checkpoints, so their spacing falls
/// back to the interval: never denser than one per interval.
#[test]
fn deep_nesting_is_checkpointed_at_the_interval_cap() {
    let parser = flap_grammars::json::def().flap_parser();
    let mut doc = vec![b'['; 100_000];
    doc.resize(200_000, b']');
    let mut inc = parser.incremental();
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    let interval = IncrementalConfig::default().interval;
    let st = inc.stats();
    assert!(
        st.checkpoints <= doc.len() / interval + 1,
        "{st}: deep checkpoints are denser than one per {interval} B"
    );
}

/// Value parses keep exactly the configured interval: their checkpoints
/// clone semantic values whose size the library cannot see.
#[test]
fn value_checkpoints_keep_the_configured_interval() {
    let (parser, mut inc, _) = validated_json_mb();
    let doc_len = inc.doc().len();
    let interval = IncrementalConfig::default().interval;
    assert_ne!(doc_len % interval, 0, "no checkpoint falls on the end");
    assert!(parser.parse_incremental(&mut inc).is_ok());
    assert_eq!(inc.stats().checkpoints, doc_len / interval);
}

/// An insertion shifts the checkpoints after it, so a re-validation
/// reaches its own next checkpoint just before the shifted one it then
/// converges with. That new checkpoint is dropped: repeated edits must
/// not crowd checkpoints together.
#[test]
fn repeated_insertions_do_not_crowd_checkpoints() {
    let def = flap_grammars::json::def();
    let parser = def.flap_parser();
    let doc = (def.generate)(42, 256 * 1024);
    let mut inc = parser.incremental();
    inc.splice(0..0, &doc);
    assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    let before = inc.stats().checkpoints;

    let mut rng = StdRng::seed_from_u64(0xc0de);
    for _ in 0..40 {
        // a digit inserted after a nonzero digit keeps the document valid
        let from = rng.random_range(0..doc.len());
        let at = (from..doc.len())
            .chain(0..from)
            .find(|&i| (b'1'..=b'9').contains(&doc[i]))
            .expect("generated json contains digits")
            + 1;
        inc.splice(at..at, b"5");
        assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
        assert!(inc.stats().converged, "{}", inc.stats());
        inc.splice(at..at + 1, b"");
        assert_eq!(parser.validate_incremental(&mut inc), Ok(()));
    }
    assert_eq!(inc.doc(), &doc[..]);
    let after = inc.stats().checkpoints;
    assert!(
        after <= before + 1,
        "40 insertions grew the log from {before} to {after} checkpoints"
    );
}
