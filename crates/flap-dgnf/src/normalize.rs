//! Normalization of context-free expressions into (D)GNF — the
//! function `N⟦·⟧` of Fig 4, extended to thread semantic actions.
//!
//! Each rule of Fig 4 is implemented by one arm of [`norm`]. The
//! value-level reading of a production `n → t n₁ … n_k` is: the token
//! action pushes the lead value, parsing each `nᵢ` pushes one value,
//! and the production's [`Reduce`] folds those `k+1` values into one.
//! Normalization composes reduces as it copies and rewrites
//! productions:
//!
//! * **(seq)** appending `n₂` to a production appends a step that
//!   folds `n₂`'s value into the production's result;
//! * **(fix)** substituting `n′ → α n̄′` by `n′ → N n̄′` runs the inner
//!   production's fold and continues with the outer one's steps.
//!
//! Reduces are left folds over the arguments in stack order, so each
//! composition is concatenation of steps.
//!
//! One deviation from the literal Fig 4, taken from the appendix's
//! "optimization that gets rid of n₃": a μ-variable in *reference*
//! position (the right operand of `·`, which only ever lands in
//! production tails) resolves directly to the variable's nonterminal
//! instead of going through an alias nonterminal `n → α`. Variables
//! in *copy* positions (left of `·`, under `∨`/`map`/`μ`, where Fig 4
//! copies the sub-grammar's start productions) still use the alias,
//! exactly because "α ⇒ ∅ means an empty grammar". This reproduces
//! the grammar sizes of Fig 3d / Table 1.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use flap_cfe::{Cfe, CfeNode, VarId};

use crate::grammar::{trim, Grammar, GrammarBuilder, Lead, NtId, Prod, Reduce};

/// Failures of normalization.
///
/// Theorem 3.3 guarantees none of these occur for *well-typed* closed
/// expressions; they surface exactly when normalization is applied to
/// expressions that `flap_cfe::type_check` would reject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormalizeError {
    /// Rule (seq) needed a production for the left operand but found
    /// an ε-production (the left operand was nullable).
    NullableSeqHead,
    /// Rule (fix) would substitute an ε for a variable followed by a
    /// non-empty tail (the variable was nullable where it must not
    /// be).
    NullableVarHead,
    /// The body of `μα.g` has a start production leading with `α`
    /// itself (left recursion).
    UnguardedFix(VarId),
    /// A variable occurred outside its binder.
    Unbound(VarId),
}

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalizeError::NullableSeqHead => {
                write!(
                    f,
                    "cannot normalize: left operand of a sequence is nullable"
                )
            }
            NormalizeError::NullableVarHead => {
                write!(
                    f,
                    "cannot normalize: nullable variable used before a non-empty tail"
                )
            }
            NormalizeError::UnguardedFix(v) => {
                write!(f, "cannot normalize: μ{:?} is left-recursive", v)
            }
            NormalizeError::Unbound(v) => write!(f, "cannot normalize: unbound variable {:?}", v),
        }
    }
}

impl std::error::Error for NormalizeError {}

/// Normalizes a closed context-free expression into a normal-form
/// grammar, trimming unreachable productions (as the paper's appendix
/// does).
///
/// For a well-typed expression the result is a DGNF grammar
/// (Theorem 3.7): [`Grammar::check_dgnf`] succeeds on it, and by
/// Theorem 3.8 it denotes exactly the language of `g`, with semantic
/// actions preserved.
///
/// # Errors
///
/// Returns [`NormalizeError`] on expressions outside the well-typed
/// fragment; run [`flap_cfe::type_check`] first for a precise
/// diagnosis.
pub fn normalize<V: 'static>(g: &Cfe<V>) -> Result<Grammar<V>, NormalizeError> {
    let mut n = Normalizer {
        b: GrammarBuilder::new(),
        env: HashMap::new(),
    };
    let start = n.norm_copy(g)?;
    Ok(trim(&n.b.finish(start)))
}

/// As [`normalize`], but keeps unreachable nonterminals — useful for
/// inspecting the raw Fig 4 output (cf. the appendix derivation).
pub fn normalize_untrimmed<V: 'static>(g: &Cfe<V>) -> Result<Grammar<V>, NormalizeError> {
    let mut n = Normalizer {
        b: GrammarBuilder::new(),
        env: HashMap::new(),
    };
    let start = n.norm_copy(g)?;
    Ok(n.b.finish(start))
}

struct Normalizer<V> {
    b: GrammarBuilder<V>,
    /// μ-variable → the nonterminal pre-allocated by its binder.
    env: HashMap<VarId, NtId>,
}

/// The identity reduce for single-value productions (`n → t`,
/// `n → α`): the lone argument value already is the result.
fn identity<V>() -> Reduce<V> {
    Reduce::identity()
}

impl<V: 'static> Normalizer<V> {
    /// Normalization in *copy* position: the caller will copy the
    /// returned nonterminal's productions, so a bare variable must be
    /// represented by an alias production `n → α` (rule (var)).
    fn norm_copy(&mut self, g: &Cfe<V>) -> Result<NtId, NormalizeError> {
        match g.node() {
            CfeNode::Var(v) => {
                let _target = *self.env.get(v).ok_or(NormalizeError::Unbound(*v))?;
                let n = self.b.fresh_nt();
                self.b.push_prod(
                    n,
                    Prod {
                        lead: Lead::Var(*v),
                        tail: vec![],
                        tok_action: None,
                        reduce: identity(),
                    },
                );
                Ok(n)
            }
            _ => self.norm(g),
        }
    }

    /// Normalization in *reference* position (production tails): a
    /// bare variable resolves to its pre-allocated nonterminal — the
    /// appendix's n₃-elimination.
    fn norm_ref(&mut self, g: &Cfe<V>) -> Result<NtId, NormalizeError> {
        match g.node() {
            CfeNode::Var(v) => self.env.get(v).copied().ok_or(NormalizeError::Unbound(*v)),
            _ => self.norm(g),
        }
    }

    fn norm(&mut self, g: &Cfe<V>) -> Result<NtId, NormalizeError> {
        match g.node() {
            // (bot): a start symbol with no productions.
            CfeNode::Bot => Ok(self.b.fresh_nt()),
            // (epsilon)
            CfeNode::Eps(f) => {
                let n = self.b.fresh_nt();
                self.b.push_eps(n, Reduce::eps(Arc::clone(f)));
                Ok(n)
            }
            // (token)
            CfeNode::Tok(t, a) => {
                let n = self.b.fresh_nt();
                self.b.push_prod(
                    n,
                    Prod {
                        lead: Lead::Tok(*t),
                        tail: vec![],
                        tok_action: Some(Arc::clone(a)),
                        reduce: identity(),
                    },
                );
                Ok(n)
            }
            CfeNode::Var(_) => unreachable!("variables handled by norm_copy/norm_ref"),
            // (seq): n → N₁ n₂ for every n₁ → N₁.
            CfeNode::Seq(g1, g2, combine) => {
                let n1 = self.norm_copy(g1)?;
                let n2 = self.norm_ref(g2)?;
                let n = self.b.fresh_nt();
                if !self.b.entries[n1.index()].eps.is_empty() {
                    return Err(NormalizeError::NullableSeqHead);
                }
                let prods = self.b.entries[n1.index()].prods.clone();
                for p in prods {
                    let mut tail = p.tail;
                    tail.push(n2);
                    self.b.push_prod(
                        n,
                        Prod {
                            lead: p.lead,
                            tail,
                            tok_action: p.tok_action,
                            reduce: p.reduce.then(&Reduce::seq(Arc::clone(combine))),
                        },
                    );
                }
                Ok(n)
            }
            // (alt): union of the two production sets.
            CfeNode::Alt(g1, g2) => {
                let n1 = self.norm_copy(g1)?;
                let n2 = self.norm_copy(g2)?;
                let n = self.b.fresh_nt();
                for src in [n1, n2] {
                    let entry = self.b.entries[src.index()].clone();
                    for p in entry.prods {
                        self.b.push_prod(n, p);
                    }
                    for e in entry.eps {
                        self.b.push_eps(n, e);
                    }
                }
                Ok(n)
            }
            // map: same language, wrapped reduces (flap's semantic
            // actions; not in Fig 4, follows the (alt) copying shape).
            CfeNode::Map(inner, f) => {
                let ni = self.norm_copy(inner)?;
                let n = self.b.fresh_nt();
                let entry = self.b.entries[ni.index()].clone();
                for p in entry.prods {
                    self.b.push_prod(
                        n,
                        Prod {
                            lead: p.lead,
                            tail: p.tail,
                            tok_action: p.tok_action,
                            reduce: p.reduce.then(&Reduce::map(Arc::clone(f))),
                        },
                    );
                }
                for e in entry.eps {
                    self.b.push_eps(n, e.then(&Reduce::map(Arc::clone(f))));
                }
                Ok(n)
            }
            // (fix)
            CfeNode::Fix(v, body) => {
                let alpha = self.b.fresh_nt();
                let shadowed = self.env.insert(*v, alpha);
                let n_body = self.norm_copy(body);
                match shadowed {
                    Some(nt) => {
                        self.env.insert(*v, nt);
                    }
                    None => {
                        self.env.remove(v);
                    }
                }
                let n_body = n_body?;
                // Guardedness (Lemma 3.4): the body's start productions
                // must not lead with α itself.
                let body_entry = self.b.entries[n_body.index()].clone();
                if body_entry.prods.iter().any(|p| p.lead == Lead::Var(*v)) {
                    return Err(NormalizeError::UnguardedFix(*v));
                }
                // ① copy the body start's productions to α.
                for p in &body_entry.prods {
                    self.b.push_prod(alpha, p.clone());
                }
                for e in &body_entry.eps {
                    self.b.push_eps(alpha, e.clone());
                }
                // ② substitute every production n′ → α n̄′ (anywhere in
                // the grammar — only the body can mention this α) by
                // n′ → N n̄′ for each body production N; ③ keep the
                // rest.
                for idx in 0..self.b.entries.len() {
                    let has_var = self.b.entries[idx]
                        .prods
                        .iter()
                        .any(|p| p.lead == Lead::Var(*v));
                    if !has_var {
                        continue;
                    }
                    let old = std::mem::take(&mut self.b.entries[idx].prods);
                    for p in old {
                        if p.lead != Lead::Var(*v) {
                            self.b.entries[idx].prods.push(p);
                            continue;
                        }
                        // N's arguments come first and fold into the
                        // value that stood for α, where p's fold starts
                        let outer_tail = p.tail.len();
                        for inner in &body_entry.prods {
                            let mut tail = inner.tail.clone();
                            tail.extend_from_slice(&p.tail);
                            self.b.entries[idx].prods.push(Prod {
                                lead: inner.lead,
                                tail,
                                tok_action: inner.tok_action.clone(),
                                reduce: inner.reduce.then(&p.reduce),
                            });
                        }
                        for e in &body_entry.eps {
                            if outer_tail > 0 {
                                return Err(NormalizeError::NullableVarHead);
                            }
                            self.b.entries[idx].eps.push(e.then(&p.reduce));
                        }
                    }
                }
                Ok(alpha)
            }
        }
    }
}
