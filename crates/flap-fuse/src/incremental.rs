//! Incremental re-parsing: checkpointed sessions that reuse work
//! across edits (the editor/LSP workload class).
//!
//! flap's determinism means the automaton state at any byte offset is
//! a *pure function of the input prefix* — nothing later in the input
//! can ever send the parse back. That is exactly the property
//! incremental parsers exploit, and the one thing backtracking
//! designs need a full memo table to recover. A session that records
//! suspended stepper states ("checkpoints") at regular intervals can
//! therefore re-parse an edited document by:
//!
//! * **prefix reuse** — restart from the last checkpoint at or before
//!   the edit instead of from byte 0; and
//! * **suffix reuse** (validation only; see
//!   `flap_staged::IncrementalSession`) — stop as soon as the
//!   post-edit automaton state *re-converges* with the previous run's
//!   recorded state at the same (shifted) offset: determinism
//!   guarantees the rest of the parse is byte-for-byte identical, so
//!   the previous outcome can be returned with shifted positions.
//!
//! The unstaged layer here ([`FusedIncremental`] +
//! [`parse_incremental_fused`]) reuses prefixes only: semantic values
//! flow through opaque user actions, so a value built from edited
//! bytes — and every value downstream of it — must be rebuilt. The
//! staged layer adds suffix convergence for validation, where no
//! actions run and a 1-byte edit in a multi-MB document re-parses
//! about one checkpoint spacing (see [`IncrementalConfig::interval`]).
//!
//! This module also holds the engine-agnostic bookkeeping both layers
//! share: the edit log ([`EditLog`], hidden) that applies
//! [`splice`](FusedIncremental::splice) edits, partitions checkpoints
//! into still-valid and potentially-reusable sets, and shifts
//! recorded positions (byte offsets *and* line/column accounting)
//! into post-edit coordinates.

use std::fmt;
use std::mem::size_of;
use std::ops::Range;

use flap_regex::{RegexArena, RegexId};

use crate::fuse::FusedGrammar;
use crate::parse::{stream_fused, Ctl, FusedParseError, FusedSession, Resume};
use crate::stream::{Step, StreamSnapshot};

/// Tuning for an incremental session's checkpoint density.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IncrementalConfig {
    /// Distance in bytes between checkpoints of a value parse, and the
    /// largest distance between checkpoints of a validation (default
    /// 64 KiB).
    ///
    /// A re-parse restarts from the last checkpoint at or before the
    /// edit, so an edit costs the distance from that checkpoint to the
    /// edit plus whatever follows it.
    ///
    /// * **Value parses** take a checkpoint every `interval` bytes and
    ///   must then run to the end of the document. Each checkpoint
    ///   clones the stepper's stacks, including every pending semantic
    ///   value, and about `doc_len / interval` of them are retained.
    /// * **Validations** space checkpoints by what each one costs: the
    ///   next is taken `min(interval, max(4 KiB, 8 × size))` bytes
    ///   after a checkpoint of `size` bytes (the first at 4 KiB). A
    ///   re-validation then stops at the first recorded checkpoint
    ///   past the edit where the state re-converges, so a small edit
    ///   re-scans about one spacing — 4 KiB when control stacks are
    ///   shallow. Retained checkpoints keep at most `doc_len / 8`
    ///   bytes plus one checkpoint wherever the cap does not bind;
    ///   deeply nested states, whose checkpoints are large, fall back
    ///   to the `interval` cap.
    pub interval: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            interval: 64 * 1024,
        }
    }
}

/// Reuse accounting for the most recent incremental re-parse — how
/// much work the checkpoint log saved.
///
/// `prefix_reused + parsed + suffix_reused == doc_len` whenever the
/// re-parse ran to a verdict (shortfall only on an error, which stops
/// the parse early).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Document length at the time of the re-parse.
    pub doc_len: usize,
    /// Bytes skipped by restarting from a checkpoint at or before the
    /// edit instead of byte 0.
    pub prefix_reused: usize,
    /// Bytes skipped by stopping at state re-convergence with the
    /// previous run (always 0 for value parses, which must re-run
    /// their semantic actions).
    pub suffix_reused: usize,
    /// Bytes actually fed through the automaton.
    pub parsed: usize,
    /// Checkpoints retained after the re-parse.
    pub checkpoints: usize,
    /// Approximate heap footprint of the retained checkpoints
    /// (shallow: counts stack entries at their in-line size, not what
    /// semantic values own behind pointers).
    pub retained_bytes: usize,
    /// Whether the re-parse ended early via suffix convergence.
    pub converged: bool,
}

/// Human-readable one-line summary, e.g.
/// `reused 93.7% of 1048576 B (prefix 65536, suffix 917504, parsed 65536), 15 ckpts / 4 KiB retained, converged`.
impl fmt::Display for ReuseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reused = self.prefix_reused + self.suffix_reused;
        let pct = if self.doc_len == 0 {
            0.0
        } else {
            100.0 * reused as f64 / self.doc_len as f64
        };
        write!(
            f,
            "reused {:.1}% of {} B (prefix {}, suffix {}, parsed {}), {} ckpts / {} KiB retained{}",
            pct,
            self.doc_len,
            self.prefix_reused,
            self.suffix_reused,
            self.parsed,
            self.checkpoints,
            self.retained_bytes / 1024,
            if self.converged { ", converged" } else { "" },
        )
    }
}

/// One recorded suspension of a streaming stepper: engine-specific
/// stacks plus position accounting.
///
/// Hidden machinery shared with `flap-staged` — not a stable API.
#[doc(hidden)]
pub struct Ckpt<S> {
    /// Position accounting at suspension; `snap.offset` is the global
    /// offset of the first byte of the retained token tail.
    pub snap: StreamSnapshot,
    /// Length of the retained tail. Every suspension has scanned
    /// exactly the bytes it retains, so the tail is reconstructed as
    /// `doc[snap.offset .. snap.offset + scanned]` at restore time and
    /// need not be stored.
    pub scanned: usize,
    /// Approximate heap footprint, fixed when the checkpoint is taken
    /// (summed into [`ReuseStats::retained_bytes`]).
    pub bytes: usize,
    /// Engine-specific suspended state (stacks + resume point).
    pub state: S,
}

impl<S> Ckpt<S> {
    /// The global byte offset this checkpoint resumes scanning at.
    pub fn scan_pos(&self) -> usize {
        self.snap.offset + self.scanned
    }
}

/// The engine-agnostic half of an incremental session: the document,
/// the checkpoint log, the previous outcome and the dirty window —
/// everything `splice` has to maintain, independent of which stepper
/// the checkpoints belong to.
///
/// The log is one vector, ascending by scan position, in three zones:
///
/// * **confirmed** — checkpoints whose prefix of `doc` is unedited;
///   restoring any of them is always sound;
/// * **passed** — slots of stale checkpoints that the running
///   re-parse has already gone past, recycled by [`EditLog::confirm`]
///   and dropped when the re-parse ends (so empty between re-parses);
/// * **stale** — checkpoints from the previous *completed* parse that
///   lie beyond every edit since, shifted into current-document
///   coordinates. Sound to reuse only if the new parse's automaton
///   state re-converges with one of them at its (shifted) position.
///
/// An edit drops only the checkpoints it invalidates and shifts the
/// later ones in place, convergence moves a zone boundary, and the
/// retained footprint is a running sum: an edit's bookkeeping
/// allocates nothing and, beyond a binary search, reads no checkpoint
/// before the edit.
///
/// Hidden machinery shared with `flap-staged` — not a stable API.
#[doc(hidden)]
pub struct EditLog<S> {
    /// Current document contents.
    pub doc: Vec<u8>,
    /// Every checkpoint: `[..confirmed]` confirmed, `[confirmed..stale]`
    /// passed, `[stale..]` stale.
    ckpts: Vec<Ckpt<S>>,
    confirmed: usize,
    stale: usize,
    /// Sum of [`Ckpt::bytes`] over `ckpts`.
    retained: usize,
    /// Outcome of the previous completed parse, positions shifted
    /// into current-document coordinates; returned verbatim on suffix
    /// convergence.
    pub outcome: Option<Result<(), FusedParseError>>,
    /// Union of the edited byte ranges since the last completed
    /// parse, in current-document coordinates (`None` = clean).
    pub dirty: Option<Range<usize>>,
}

fn count_nl(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// One edit `range -> replacement`, moving positions recorded against
/// the pre-edit document at or after `range.end` into post-edit
/// coordinates: byte offsets by the length change, line counts by the
/// newline-count change, line starts as [`Shift::col_base`] explains.
struct Shift<'a> {
    range: Range<usize>,
    delta: isize,
    dl: isize,
    /// The post-edit document.
    doc: &'a [u8],
    /// Post-edit offset one past the replacement's last `\n`, if any,
    /// found on first use (like `start_line`: a shift that needs
    /// neither does not scan for them).
    repl_nl: Option<Option<usize>>,
    /// Post-edit line start of `range.start`, found on first use.
    start_line: Option<usize>,
}

impl Shift<'_> {
    fn pos(&self, p: usize) -> usize {
        (p as isize + self.delta) as usize
    }

    fn line(&self, l: usize) -> usize {
        (l as isize + self.dl) as usize
    }

    /// Shifts a `col_base` (global offset one past the last `\n`
    /// before some reference position `>= range.end` in the *old*
    /// document, 0 if none).
    fn col_base(&mut self, cb: usize) -> usize {
        if cb > self.range.end {
            // the governing newline sits strictly after the edit: shifted
            return self.pos(cb);
        }
        let (doc, start, new_end) = (self.doc, self.range.start, self.pos(self.range.end));
        let repl_nl = *self.repl_nl.get_or_insert_with(|| {
            doc[start..new_end]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|j| start + j + 1)
        });
        if let Some(nl) = repl_nl {
            // the replacement introduces a later newline
            nl
        } else if cb <= self.range.start {
            // the governing newline (or start of input) precedes the edit
            cb
        } else {
            // the governing newline was removed and nothing replaced it:
            // the previous one in the unedited prefix governs
            *self.start_line.get_or_insert_with(|| {
                doc[..start]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |j| j + 1)
            })
        }
    }

    fn ckpt<S>(&mut self, c: &mut Ckpt<S>) {
        c.snap.col_base = self.col_base(c.snap.col_base);
        c.snap.offset = self.pos(c.snap.offset);
        c.snap.lines_consumed = self.line(c.snap.lines_consumed);
    }

    /// Shifts an error recorded at `pos >= range.end`.
    fn err(&mut self, e: FusedParseError) -> FusedParseError {
        let mut shift = |pos: usize, line: usize, col: usize| {
            // col == pos - line_start + 1, so recover the line start,
            // shift it like any other col_base, and rederive the column.
            let cb = self.col_base(pos + 1 - col);
            let pos = self.pos(pos);
            (pos, self.line(line), pos - cb + 1)
        };
        match e {
            FusedParseError::NoMatch {
                pos,
                line,
                col,
                nt,
                expected,
            } => {
                let (pos, line, col) = shift(pos, line, col);
                FusedParseError::NoMatch {
                    pos,
                    line,
                    col,
                    nt,
                    expected,
                }
            }
            FusedParseError::TrailingInput { pos, line, col } => {
                let (pos, line, col) = shift(pos, line, col);
                FusedParseError::TrailingInput { pos, line, col }
            }
        }
    }
}

impl<S> EditLog<S> {
    /// An empty log over an empty document.
    pub fn new() -> Self {
        EditLog {
            doc: Vec::new(),
            ckpts: Vec::new(),
            confirmed: 0,
            stale: 0,
            retained: 0,
            outcome: None,
            dirty: None,
        }
    }

    /// Applies the edit `range -> replacement` to the document and
    /// reconciles all recorded state:
    ///
    /// * confirmed checkpoints with `scan_pos <= range.start` stay
    ///   confirmed (their prefix is untouched);
    /// * with `keep_stale`, checkpoints whose retained tail starts at
    ///   or after `range.end` and after the dirty window (every edit
    ///   since the last completed parse) are (or stay) stale, offsets
    ///   and line/column accounting shifted into post-edit
    ///   coordinates;
    /// * everything else — checkpoints overlapping an edit, and those
    ///   before one, whose recorded suffix has changed — is dropped, as
    ///   is a recorded outcome located inside the edit.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or reversed.
    pub fn splice(&mut self, range: Range<usize>, replacement: &[u8], keep_stale: bool) {
        assert!(
            range.start <= range.end && range.end <= self.doc.len(),
            "splice range {range:?} out of bounds for document of {} bytes",
            self.doc.len()
        );
        self.drop_passed();
        let delta = replacement.len() as isize - range.len() as isize;
        let dl = count_nl(replacement) as isize - count_nl(&self.doc[range.clone()]) as isize;
        let _ = self.doc.splice(range.clone(), replacement.iter().copied());
        let new_end = range.start + replacement.len();
        // stale checkpoints must lie beyond this edit and every earlier one
        let beyond = self
            .dirty
            .as_ref()
            .map_or(range.end, |d| d.end.max(range.end));

        // widen the dirty window (shifting any prior window's
        // post-edit part by delta; interior points collapse onto the
        // replacement, which the union with the new range covers)
        let shift_pt = |p: usize| {
            if p <= range.start {
                p
            } else if p >= range.end {
                (p as isize + delta) as usize
            } else {
                new_end
            }
        };
        self.dirty = Some(match self.dirty.take() {
            None => range.start..new_end,
            Some(d) => shift_pt(d.start).min(range.start)..shift_pt(d.end).max(new_end),
        });

        let mut shift = Shift {
            range: range.clone(),
            delta,
            dl,
            doc: &self.doc,
            repl_nl: None,
            start_line: None,
        };
        self.outcome = match self.outcome.take() {
            Some(Ok(())) => Some(Ok(())),
            Some(Err(e)) if e.pos() >= range.end => Some(Err(shift.err(e))),
            _ => None,
        };
        // convergence without an outcome to return would be
        // meaningless — and an error inside the edit means no
        // checkpoint beyond it was ever taken anyway
        let keep_stale = keep_stale && self.outcome.is_some();

        let keep = self.ckpts[..self.confirmed].partition_point(|c| c.scan_pos() <= range.start);
        let mut kept = keep;
        if keep_stale {
            for i in keep..self.ckpts.len() {
                if self.ckpts[i].snap.offset >= beyond {
                    shift.ckpt(&mut self.ckpts[i]);
                    if kept != i {
                        self.ckpts.swap(kept, i);
                    }
                    kept += 1;
                }
            }
        }
        self.remove(kept..self.ckpts.len());
        self.confirmed = keep;
        self.stale = keep;
    }

    /// Starts a re-parse: drops confirmed checkpoints past the dirty
    /// window's start, which leaves the restart point — the last
    /// confirmed checkpoint at or before the window, or the last one
    /// outright when the document is clean — last in
    /// [`EditLog::confirmed`].
    pub fn restart(&mut self) {
        self.drop_passed();
        let limit = self.dirty.as_ref().map_or(self.doc.len(), |d| d.start);
        let cut = self.ckpts[..self.confirmed].partition_point(|c| c.scan_pos() <= limit);
        self.remove(cut..self.confirmed);
        self.confirmed = cut;
        self.stale = cut;
    }

    /// The confirmed checkpoints, ascending by scan position.
    pub fn confirmed(&self) -> &[Ckpt<S>] {
        &self.ckpts[..self.confirmed]
    }

    /// The first stale checkpoint the running re-parse has not passed.
    pub fn next_stale(&self) -> Option<&Ckpt<S>> {
        self.ckpts.get(self.stale)
    }

    /// Marks the stale checkpoints at or before `pos` as passed.
    pub fn pass(&mut self, pos: usize) {
        while self
            .ckpts
            .get(self.stale)
            .is_some_and(|c| c.scan_pos() <= pos)
        {
            self.stale += 1;
        }
    }

    /// Records a checkpoint the running re-parse took at `c.scan_pos()`,
    /// after [`EditLog::pass`] up to that position. A passed slot is
    /// reused when there is one.
    pub fn confirm(&mut self, c: Ckpt<S>) {
        debug_assert!(
            self.confirmed()
                .last()
                .is_none_or(|p| p.scan_pos() < c.scan_pos())
                && self
                    .next_stale()
                    .is_none_or(|s| c.scan_pos() < s.scan_pos()),
            "checkpoints must stay ascending by scan position"
        );
        self.retained += c.bytes;
        if self.confirmed < self.stale {
            let old = std::mem::replace(&mut self.ckpts[self.confirmed], c);
            self.retained -= old.bytes;
        } else {
            self.ckpts.insert(self.confirmed, c);
            self.stale += 1;
        }
        self.confirmed += 1;
    }

    /// Suffix convergence at [`EditLog::next_stale`]: drops the passed
    /// slots — and with `drop_last` the last confirmed checkpoint —
    /// confirms every remaining stale checkpoint, marks the document
    /// clean and returns the recorded outcome.
    ///
    /// # Panics
    ///
    /// Panics if there is no recorded outcome (there are then no stale
    /// checkpoints to converge with).
    pub fn converge(&mut self, drop_last: bool) -> Result<(), FusedParseError> {
        if drop_last {
            self.confirmed -= 1;
        }
        self.remove(self.confirmed..self.stale);
        self.confirmed = self.ckpts.len();
        self.stale = self.confirmed;
        self.dirty = None;
        self.outcome
            .clone()
            .expect("stale checkpoints imply a recorded outcome")
    }

    /// Records the verdict of a completed re-parse: the document is
    /// clean, the previous parse's leftovers are gone.
    pub fn complete(&mut self, outcome: Result<(), FusedParseError>) {
        self.remove(self.confirmed..self.ckpts.len());
        self.stale = self.confirmed;
        self.outcome = Some(outcome);
        self.dirty = None;
    }

    /// Drops everything derived from past parses (grammar or mode
    /// changed); the document itself is kept and marked fully dirty.
    pub fn invalidate(&mut self) {
        self.ckpts.clear();
        self.confirmed = 0;
        self.stale = 0;
        self.retained = 0;
        self.outcome = None;
        self.dirty = Some(0..self.doc.len());
    }

    /// Approximate footprint of every checkpoint held; after a
    /// re-parse, that of the confirmed ones.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }

    fn remove(&mut self, range: Range<usize>) {
        for c in self.ckpts.drain(range) {
            self.retained -= c.bytes;
        }
    }

    /// Drops passed slots a re-parse left behind by unwinding.
    fn drop_passed(&mut self) {
        self.remove(self.confirmed..self.stale);
        self.stale = self.confirmed;
    }
}

impl<S> Default for EditLog<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Suspended state of the unstaged interpreter at a checkpoint.
struct FuseState<V> {
    control: Vec<Ctl>,
    values: Vec<V>,
    live: Vec<(RegexId, usize)>,
    resume: Resume,
}

/// An edit-aware session for the unstaged fused interpreter: owns the
/// document, a checkpoint log and reuse statistics. Apply edits with
/// [`FusedIncremental::splice`], then re-parse with
/// [`parse_incremental_fused`] — the parse restarts from the last
/// checkpoint before the first edit instead of from byte 0.
///
/// The staged counterpart (`flap_staged::IncrementalSession`, or
/// `Parser::incremental` in `flap-core`) additionally reuses the
/// *suffix* of a validation re-parse; the unstaged layer exists to
/// keep the staged/unstaged differential property testable on the
/// incremental path too.
pub struct FusedIncremental<V> {
    log: EditLog<FuseState<V>>,
    interval: usize,
    /// `stream_id` of the grammar the checkpoints belong to.
    owner: u64,
    stats: ReuseStats,
    scratch: FusedSession<V>,
}

impl<V> FusedIncremental<V> {
    /// An empty session with the default checkpoint interval.
    pub fn new() -> Self {
        Self::with_config(IncrementalConfig::default())
    }

    /// An empty session with explicit checkpoint density.
    pub fn with_config(config: IncrementalConfig) -> Self {
        FusedIncremental {
            log: EditLog::new(),
            interval: config.interval.max(1),
            owner: 0,
            stats: ReuseStats::default(),
            scratch: FusedSession::new(),
        }
    }

    /// The current document contents.
    pub fn doc(&self) -> &[u8] {
        &self.log.doc
    }

    /// Replaces `doc[range]` with `replacement`. Load the initial
    /// document with `splice(0..0, text)`; multiple splices between
    /// re-parses accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or reversed.
    pub fn splice(&mut self, range: Range<usize>, replacement: &[u8]) {
        // prefix-only reuse: checkpoints past the edit hold stale
        // semantic values and can never be resumed, so drop them now
        self.log.splice(range, replacement, false);
    }

    /// Reuse accounting for the most recent re-parse.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }
}

impl<V> Default for FusedIncremental<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Re-parses the session's document after edits, reusing the longest
/// unedited checkpointed prefix. Results — values, errors, error
/// positions and line/columns — are identical to a from-scratch
/// [`crate::parse_fused`] of the current document.
///
/// `V: Clone` because checkpoints snapshot the value stack; clones
/// must be true value copies for restored parses to agree with
/// from-scratch ones (all paper grammars qualify).
///
/// As with all unstaged entry points, `arena` must be the same
/// derivative arena across calls (checkpoints hold `RegexId`s into
/// it); the grammar is guarded by its stream id, and a different
/// grammar simply invalidates the log.
///
/// # Errors
///
/// [`FusedParseError`] exactly as a from-scratch parse would report.
pub fn parse_incremental_fused<V: Clone>(
    fg: &FusedGrammar<V>,
    arena: &mut RegexArena,
    skip: Option<RegexId>,
    inc: &mut FusedIncremental<V>,
) -> Result<V, FusedParseError> {
    if inc.owner != fg.stream_id() {
        inc.log.invalidate();
        inc.owner = fg.stream_id();
    }
    let doc_len = inc.log.doc.len();

    inc.log.restart();
    let mut pos = 0usize;
    match inc.log.confirmed().last() {
        Some(c) => {
            pos = c.scan_pos();
            let s = &mut inc.scratch;
            s.control.clear();
            s.control.extend_from_slice(&c.state.control);
            s.values.clear();
            s.values.extend(c.state.values.iter().cloned());
            s.live.clear();
            s.live.extend_from_slice(&c.state.live);
            s.resume = c.state.resume;
            s.owner = fg.stream_id();
            s.stream.restore(
                c.snap,
                &inc.log.doc[c.snap.offset..c.snap.offset + c.scanned],
            );
        }
        // fresh parse: stream_fused below begins one on an idle session
        None => inc.scratch.reset(),
    }
    inc.stats = ReuseStats {
        doc_len,
        prefix_reused: pos,
        ..ReuseStats::default()
    };

    let mut next_ck = pos + inc.interval;
    let outcome = loop {
        if pos >= doc_len {
            break match stream_fused(fg, arena, skip, &mut inc.scratch).finish() {
                Step::Done(v) => Ok(v),
                Step::Err(e) => Err(e),
                Step::NeedMore => unreachable!("finish never suspends"),
            };
        }
        let target = next_ck.min(doc_len);
        let mut s = stream_fused(fg, arena, skip, &mut inc.scratch);
        let step = s.feed(&inc.log.doc[pos..target]);
        inc.stats.parsed += target - pos;
        pos = target;
        match step {
            Step::NeedMore => {}
            Step::Err(e) => break Err(e),
            Step::Done(_) => unreachable!("feed never completes a parse"),
        }
        if pos >= next_ck && pos < doc_len {
            let s = &inc.scratch;
            debug_assert_eq!(
                s.stream.offset() + s.stream.buf().len(),
                pos,
                "suspension must have scanned every fed byte"
            );
            inc.log.confirm(Ckpt {
                snap: s.stream.snapshot(),
                scanned: s.stream.buf().len(),
                bytes: size_of::<Ckpt<FuseState<V>>>()
                    + s.control.len() * size_of::<Ctl>()
                    + s.values.len() * size_of::<V>()
                    + s.live.len() * size_of::<(RegexId, usize)>(),
                state: FuseState {
                    control: s.control.clone(),
                    values: s.values.clone(),
                    live: s.live.clone(),
                    resume: s.resume,
                },
            });
            next_ck = pos + inc.interval;
        }
    };

    inc.log
        .complete(outcome.as_ref().map(|_| ()).map_err(Clone::clone));
    inc.stats.checkpoints = inc.log.confirmed().len();
    inc.stats.retained_bytes = inc.log.retained_bytes();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stateless checkpoint resuming at `pos` with a 2-byte tail,
    /// whose footprint is its position (so sums identify survivors).
    fn ck(pos: usize) -> Ckpt<()> {
        Ckpt {
            snap: StreamSnapshot {
                offset: pos - 2,
                lines_consumed: 0,
                col_base: 0,
            },
            scanned: 2,
            bytes: pos,
            state: (),
        }
    }

    fn positions(cs: &[Ckpt<()>]) -> Vec<usize> {
        cs.iter().map(Ckpt::scan_pos).collect()
    }

    #[test]
    fn edit_log_keeps_zones_ordered_and_the_footprint_summed() {
        let mut log = EditLog::new();
        log.splice(0..0, &[b'x'; 100], true);
        log.restart();
        for p in (10..100).step_by(10) {
            log.confirm(ck(p));
        }
        log.complete(Ok(()));
        assert_eq!(log.retained_bytes(), (10..100).step_by(10).sum::<usize>());

        // one byte becomes three inside the tail of the checkpoint at
        // 50: it is dropped, earlier ones stay confirmed, later ones
        // turn stale two bytes further on
        log.splice(48..49, b"yyy", true);
        assert_eq!(positions(log.confirmed()), [10, 20, 30, 40]);
        assert_eq!(log.next_stale().map(Ckpt::scan_pos), Some(62));
        assert_eq!(log.retained_bytes(), 100 + 60 + 70 + 80 + 90);

        // a second edit after the stale checkpoint at 62 drops it: its
        // suffix now holds an edit, so converging there would be wrong
        log.splice(65..66, b"z", true);
        assert_eq!(log.next_stale().map(Ckpt::scan_pos), Some(72));

        // a re-parse passes the stale checkpoint at 72, takes one of
        // its own in the passed slot, and converges at 82
        log.restart();
        assert_eq!(positions(log.confirmed()), [10, 20, 30, 40]);
        log.pass(75);
        log.confirm(ck(75));
        assert_eq!(log.next_stale().map(Ckpt::scan_pos), Some(82));
        assert_eq!(log.converge(false), Ok(()));
        assert_eq!(positions(log.confirmed()), [10, 20, 30, 40, 75, 82, 92]);
        assert_eq!(log.retained_bytes(), 100 + 75 + 80 + 90);
        assert!(log.next_stale().is_none() && log.dirty.is_none());

        // value sessions keep no stale checkpoints
        log.splice(5..6, b"", false);
        assert!(log.confirmed().is_empty() && log.next_stale().is_none());
        assert_eq!(log.retained_bytes(), 0);
    }

    #[test]
    fn reuse_stats_display_is_readable() {
        let s = ReuseStats {
            doc_len: 1000,
            prefix_reused: 600,
            suffix_reused: 150,
            parsed: 250,
            checkpoints: 3,
            retained_bytes: 4096,
            converged: true,
        };
        let text = s.to_string();
        assert!(text.contains("reused 75.0% of 1000 B"), "{text}");
        assert!(text.contains("prefix 600"), "{text}");
        assert!(text.contains("suffix 150"), "{text}");
        assert!(text.contains("3 ckpts / 4 KiB"), "{text}");
        assert!(text.ends_with("converged"), "{text}");

        // the empty document must not divide by zero
        let empty = ReuseStats::default().to_string();
        assert!(empty.contains("reused 0.0% of 0 B"), "{empty}");
        assert!(!empty.contains("converged"), "{empty}");
    }
}
