//! Seeded inputs: documents, request mixes and edit streams.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with the same seed feed the program byte-identical inputs.

use std::ops::Range;
use std::sync::Arc;

/// A grammar's input generator: `(seed, target bytes) -> document`.
pub type Generate = fn(u64, usize) -> Vec<u8>;

/// Size of one whole document.
pub const DOC_BYTES: usize = 2_000_000;

/// Requests in one serve mix.
pub const REQUESTS: usize = 1000;
/// Large requests in one serve mix (1%).
pub const LARGE_REQUESTS: usize = 10;
/// Size of a large request.
pub const LARGE_BYTES: usize = 128 * 1024;
/// Size range of the other requests.
pub const SMALL_BYTES: Range<usize> = 1024..8193;

/// splitmix64: a small, fast, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of the workload seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(mix(seed, stream, 0))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `range`.
    pub fn within(&mut self, range: Range<usize>) -> usize {
        range.start + self.below(range.end - range.start)
    }
}

/// Derives the seed of item `i` of a named input stream.
pub fn mix(seed: u64, stream: &str, i: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut r = Rng(seed ^ h.rotate_left(17) ^ i.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}

/// One document of about `bytes` bytes for the named grammar.
///
/// The arith generator caps expression depth, so one call yields at
/// most a few KB whatever the target; arith documents are therefore a
/// balanced `+` tree of parenthesized generated expressions.
pub fn document(grammar: &str, generate: Generate, seed: u64, bytes: usize) -> Vec<u8> {
    if grammar != "arith" {
        return generate(seed, bytes);
    }
    let mut terms: Vec<Vec<u8>> = Vec::new();
    let mut total = 0;
    for i in 0.. {
        if total >= bytes && !terms.is_empty() {
            break;
        }
        let expr = generate(mix(seed, "arith-term", i), 512);
        let mut term = Vec::with_capacity(expr.len() + 2);
        term.push(b'(');
        term.extend_from_slice(&expr);
        term.push(b')');
        total += term.len() + 3;
        terms.push(term);
    }
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        let mut it = terms.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                None => next.push(a),
                Some(b) => {
                    let mut ab = Vec::with_capacity(a.len() + b.len() + 5);
                    ab.push(b'(');
                    ab.extend_from_slice(&a);
                    ab.extend_from_slice(b" + ");
                    ab.extend_from_slice(&b);
                    ab.push(b')');
                    next.push(ab);
                }
            }
        }
        terms = next;
    }
    terms.pop().expect("at least one term")
}

/// The PPM maximum sample values the generator picks between; one
/// roll per image sets how many digits every sample has.
const PPM_MAXVALS: [&str; 3] = ["255", "1023", "65535"];

/// The whole-document set for one grammar, about [`DOC_BYTES`] in
/// total.
///
/// One document per grammar, except ppm: its generator rolls one of
/// three sample widths per image, which alone moves throughput by
/// 1.5x, so ppm gets one third-size image of each width.
pub fn document_set(grammar: &str, generate: Generate, seed: u64) -> Vec<Vec<u8>> {
    if grammar != "ppm" {
        return vec![document(
            grammar,
            generate,
            mix(seed, grammar, 0),
            DOC_BYTES,
        )];
    }
    PPM_MAXVALS
        .iter()
        .map(|maxval| {
            let sub = (0..)
                .map(|k| mix(seed, "ppm-stratum", k))
                .find(|&s| ppm_maxval(&generate(s, 64)) == Some(maxval))
                .expect("the generator rolls every sample width eventually");
            generate(sub, DOC_BYTES / PPM_MAXVALS.len())
        })
        .collect()
}

/// The maximum sample value in a generated PPM header (fourth line).
fn ppm_maxval(doc: &[u8]) -> Option<&str> {
    let line = doc.split(|&b| b == b'\n').nth(3)?;
    std::str::from_utf8(line).ok()
}

/// A serve mix: [`REQUESTS`] documents, [`LARGE_REQUESTS`] of them
/// [`LARGE_BYTES`] long and the rest uniform in [`SMALL_BYTES`], at
/// seeded positions, plus the seeded order the client sends them in.
pub struct RequestMix {
    /// Request bodies, shared with the pool without copying.
    pub bodies: Vec<Arc<[u8]>>,
    /// Send order: indices into `bodies`, cycled.
    pub order: Vec<usize>,
}

/// Builds the serve mix for one grammar.
pub fn request_mix(grammar: &str, generate: Generate, seed: u64) -> RequestMix {
    let mut rng = Rng::new(seed, &format!("{grammar}-requests"));
    let mut large = vec![false; REQUESTS];
    let mut placed = 0;
    while placed < LARGE_REQUESTS {
        let i = rng.below(REQUESTS);
        if !large[i] {
            large[i] = true;
            placed += 1;
        }
    }
    let bodies = (0..REQUESTS)
        .map(|i| {
            let bytes = if large[i] {
                LARGE_BYTES
            } else {
                rng.within(SMALL_BYTES)
            };
            let doc = document(grammar, generate, mix(seed, grammar, 1 + i as u64), bytes);
            Arc::from(doc)
        })
        .collect();
    // Fisher–Yates over the indices
    let mut order: Vec<usize> = (0..REQUESTS).collect();
    for i in (1..REQUESTS).rev() {
        order.swap(i, rng.below(i + 1));
    }
    RequestMix { bodies, order }
}

/// One edit: replace `range` of the current document by `bytes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    /// The replaced byte range.
    pub range: Range<usize>,
    /// The replacement (0 or 1 byte).
    pub bytes: Vec<u8>,
    /// Whether its verdict is checked against a from-scratch recognize.
    pub check: bool,
}

/// Every this many edits, a verdict is checked.
pub const CHECK_EVERY: u64 = 128;

/// A seeded stream of edits, issued in do/undo pairs so the document
/// keeps its shape however long the run: 94.5% of pairs replace a digit
/// inside a token and restore it, 5% insert a digit inside a token and
/// delete it (shifting every later checkpoint), 0.5% break the document
/// with a stray quote and repair it. A repair re-scans from the last checkpoint before the
/// break, up to the whole document, so breaks are kept rare enough
/// that they stay beyond the 99th percentile of edit times. The broken
/// state and every [`CHECK_EVERY`]-th edit are flagged for a verdict
/// check.
pub struct EditStream {
    rng: Rng,
    undo: Option<Edit>,
    issued: u64,
}

impl EditStream {
    /// The edit stream for one grammar's document.
    pub fn new(seed: u64, grammar: &str) -> EditStream {
        EditStream {
            rng: Rng::new(seed, &format!("{grammar}-edits")),
            undo: None,
            issued: 0,
        }
    }

    /// The next edit to apply to `doc`, the current document.
    pub fn next_edit(&mut self, doc: &[u8]) -> Edit {
        self.issued += 1;
        let periodic = self.issued.is_multiple_of(CHECK_EVERY);
        if let Some(mut undo) = self.undo.take() {
            undo.check = periodic;
            return undo;
        }
        let roll = self.rng.below(1000);
        let start = self.rng.below(doc.len().max(1));
        let digit = find_digit(doc, start);
        let (edit, undo) = match (roll, digit) {
            (0..=944, Some(p)) => {
                let old = doc[p];
                let ix = (usize::from(old - b'1') + 1 + self.rng.below(8)) % 9;
                let new = b'1' + ix as u8;
                (
                    Edit {
                        range: p..p + 1,
                        bytes: vec![new],
                        check: periodic,
                    },
                    Edit {
                        range: p..p + 1,
                        bytes: vec![old],
                        check: false,
                    },
                )
            }
            (945..=994, Some(p)) => {
                let d = b'1' + self.rng.below(9) as u8;
                (
                    Edit {
                        range: p + 1..p + 1,
                        bytes: vec![d],
                        check: periodic,
                    },
                    Edit {
                        range: p + 1..p + 2,
                        bytes: Vec::new(),
                        check: false,
                    },
                )
            }
            _ => (
                Edit {
                    range: start..start,
                    bytes: vec![b'"'],
                    check: true,
                },
                Edit {
                    range: start..start + 1,
                    bytes: Vec::new(),
                    check: false,
                },
            ),
        };
        self.undo = Some(undo);
        edit
    }
}

/// The first digit `1`–`9` at or after `start`, wrapping around, that
/// follows a letter or digit: changing it keeps a number, atom or word
/// the same kind of token in every benchmark grammar, where a digit
/// after a space may open a token with fixed spelling (pgn's `1-0`).
fn find_digit(doc: &[u8], start: usize) -> Option<usize> {
    let editable = |i: usize| (b'1'..=b'9').contains(&doc[i]) && doc[i - 1].is_ascii_alphanumeric();
    let from = start.clamp(1, doc.len().max(1));
    (from..doc.len()).chain(1..from).find(|&i| editable(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_generate(seed: u64, target: usize) -> Vec<u8> {
        format!("{} {}", seed % 97, target % 89).into_bytes()
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = request_mix("json", flap_grammars::json::generate, 5);
        let b = request_mix("json", flap_grammars::json::generate, 5);
        assert_eq!(a.order, b.order);
        assert!(a.bodies.iter().zip(&b.bodies).all(|(x, y)| x == y));
        let c = request_mix("json", flap_grammars::json::generate, 6);
        assert_ne!(a.order, c.order);
    }

    #[test]
    fn request_mix_has_one_percent_large_requests() {
        let m = request_mix("sexp", flap_grammars::sexp::generate, 1);
        let large = m.bodies.iter().filter(|b| b.len() >= LARGE_BYTES).count();
        assert_eq!(large, LARGE_REQUESTS);
        assert!(m.bodies.iter().all(|b| b.len() >= SMALL_BYTES.start));
        let mut order = m.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..REQUESTS).collect::<Vec<_>>());
    }

    #[test]
    fn arith_documents_reach_their_size_and_stay_valid() {
        let doc = document("arith", flap_grammars::arith::generate, 3, 50_000);
        assert!(doc.len() >= 50_000, "{}", doc.len());
        let parsed = (flap_grammars::arith::def().reference)(&doc);
        assert!(parsed.is_ok(), "{parsed:?}");
        assert_eq!(document("json", fake_generate, 4, 10), b"4 10");
    }

    #[test]
    fn ppm_set_covers_every_sample_width() {
        let set = document_set("ppm", flap_grammars::ppm::generate, 9);
        let widths: Vec<_> = set.iter().map(|d| ppm_maxval(d).unwrap()).collect();
        assert_eq!(widths, PPM_MAXVALS);
    }

    #[test]
    fn edits_come_in_do_undo_pairs() {
        let doc0 = b"[12, 345, \"a7\", 8]".to_vec();
        let mut doc = doc0.clone();
        let mut s = EditStream::new(1, "json");
        for i in 0..400 {
            let e = s.next_edit(&doc);
            doc.splice(e.range.clone(), e.bytes.iter().copied());
            if i % 2 == 1 {
                assert_eq!(doc, doc0, "the undo restores the document");
            } else if e.bytes == b"\"" {
                assert!(e.check, "broken states are always checked");
            }
        }
    }

    #[test]
    fn digit_search_wraps_around_and_skips_token_starts() {
        assert_eq!(find_digit(b"a1b2", 2), Some(3));
        assert_eq!(find_digit(b"a1bb", 2), Some(1));
        assert_eq!(find_digit(b" 1-0 x7", 0), Some(6));
        assert_eq!(find_digit(b"0abc", 0), None);
        assert_eq!(find_digit(b"7", 0), None);
        assert_eq!(find_digit(b"", 0), None);
    }
}
