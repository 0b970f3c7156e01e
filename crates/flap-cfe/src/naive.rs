//! Naive membership and value oracles for context-free expressions.
//!
//! [`naive_matches`] decides `w ∈ ⟦g⟧` directly from the denotational
//! semantics of §3.4 (set of token strings), by memoized top-down
//! search over spans. [`naive_value`] then computes the semantic
//! value of the word's derivation by evaluating the actions along
//! it. Both are exponentially slower than parsing and exist purely as
//! the *specification* side of differential tests: Theorem 3.8
//! (normalization soundness) says the DGNF grammar produced by
//! `flap-dgnf` accepts exactly the strings this oracle accepts, with
//! the same values.

use std::collections::HashMap;

use flap_lex::{Lexeme, Token};

use crate::expr::{Cfe, CfeNode, VarId};

/// Decides whether the token string `w` is in the language of `g`.
///
/// Specified for *well-typed* expressions (use
/// [`type_check`](crate::type_check) first): guardedness ensures the
/// least-fixed-point search terminates. On ill-typed left-recursive
/// expressions the result for cyclic derivations is the least fixed
/// point (absence).
pub fn naive_matches<V>(g: &Cfe<V>, w: &[Token]) -> bool {
    let mut search = Search {
        env: HashMap::new(),
        memo: HashMap::new(),
        w,
    };
    search.matches(g, 0, w.len())
}

/// The semantic value of the token string `lexemes` (over `input`) in
/// `g`, or `None` if the string is not in the language.
///
/// A well-typed expression is unambiguous — alternatives have
/// disjoint languages and every sequence splits a word in at most one
/// place — so each member word has exactly one derivation and its
/// value is well defined: token actions receive their lexeme's bytes,
/// and every other action is applied where the derivation uses it.
///
/// # Panics
///
/// If the derivation is not unique, which a well-typed expression
/// rules out.
pub fn naive_value<V>(g: &Cfe<V>, input: &[u8], lexemes: &[Lexeme]) -> Option<V> {
    let w: Vec<Token> = lexemes.iter().map(|l| l.token).collect();
    let bytes: Vec<&[u8]> = lexemes.iter().map(|l| l.bytes(input)).collect();
    let mut search = Search {
        env: HashMap::new(),
        memo: HashMap::new(),
        w: &w,
    };
    search
        .matches(g, 0, w.len())
        .then(|| search.value(g, 0, w.len(), &bytes))
}

struct Search<'a, 'g, V> {
    env: HashMap<VarId, &'g Cfe<V>>,
    /// (node address, start, end) → already-computed result;
    /// `None` marks in-progress entries (cycles resolve to `false`,
    /// the least fixed point).
    memo: HashMap<(usize, usize, usize), Option<bool>>,
    w: &'a [Token],
}

impl<'g, V> Search<'_, 'g, V> {
    fn matches(&mut self, g: &'g Cfe<V>, i: usize, j: usize) -> bool {
        let key = (g.addr(), i, j);
        match self.memo.get(&key) {
            Some(Some(r)) => return *r,
            Some(None) => return false, // cycle: LFP says no
            None => {}
        }
        self.memo.insert(key, None);
        let r = match g.node() {
            CfeNode::Bot => false,
            CfeNode::Eps(_) => i == j,
            CfeNode::Tok(t, _) => j == i + 1 && self.w[i] == *t,
            CfeNode::Map(inner, _) => self.matches(inner, i, j),
            CfeNode::Alt(a, b) => self.matches(a, i, j) || self.matches(b, i, j),
            CfeNode::Seq(a, b, _) => (i..=j).any(|k| {
                // borrow-split: recompute references each step
                self.matches(a, i, k) && self.matches(b, k, j)
            }),
            CfeNode::Fix(v, body) => {
                self.env.insert(*v, body);
                let r = self.matches(body, i, j);
                // NOTE: bindings are never removed; VarIds are
                // globally unique so stale entries are harmless.
                r
            }
            CfeNode::Var(v) => {
                let body = *self.env.get(v).expect("naive_matches: unbound variable");
                self.matches(body, i, j)
            }
        };
        self.memo.insert(key, Some(r));
        r
    }

    /// The value of the unique derivation of `w[i..j]` from `g`, which
    /// must match that span; `lexemes[k]` holds the bytes of token `k`.
    fn value(&mut self, g: &'g Cfe<V>, i: usize, j: usize, lexemes: &[&[u8]]) -> V {
        match g.node() {
            CfeNode::Bot => unreachable!("⊥ derives no word"),
            CfeNode::Eps(f) => f(),
            CfeNode::Tok(_, a) => a(lexemes[i]),
            CfeNode::Map(inner, f) => f(self.value(inner, i, j, lexemes)),
            CfeNode::Alt(a, b) => {
                let in_a = self.matches(a, i, j);
                assert!(
                    !(in_a && self.matches(b, i, j)),
                    "naive_value: both alternatives derive the word"
                );
                self.value(if in_a { a } else { b }, i, j, lexemes)
            }
            CfeNode::Seq(a, b, f) => {
                let splits: Vec<usize> = (i..=j)
                    .filter(|&k| self.matches(a, i, k) && self.matches(b, k, j))
                    .collect();
                assert_eq!(
                    splits.len(),
                    1,
                    "naive_value: the sequence splits ambiguously"
                );
                let k = splits[0];
                let x = self.value(a, i, k, lexemes);
                let y = self.value(b, k, j, lexemes);
                f(x, y)
            }
            CfeNode::Fix(v, body) => {
                self.env.insert(*v, body);
                self.value(body, i, j, lexemes)
            }
            CfeNode::Var(v) => {
                let body = *self.env.get(v).expect("naive_value: unbound variable");
                self.value(body, i, j, lexemes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> Token {
        Token::from_index(i)
    }

    fn tok(i: usize) -> Cfe<i64> {
        Cfe::tok_val(t(i), 1)
    }

    #[test]
    fn constants() {
        assert!(!naive_matches(&Cfe::<i64>::bot(), &[]));
        assert!(naive_matches(&Cfe::<i64>::eps(0), &[]));
        assert!(!naive_matches(&Cfe::<i64>::eps(0), &[t(0)]));
        assert!(naive_matches(&tok(0), &[t(0)]));
        assert!(!naive_matches(&tok(0), &[t(1)]));
        assert!(!naive_matches(&tok(0), &[]));
    }

    #[test]
    fn seq_and_alt() {
        let g = tok(0).then(tok(1), |a, b| a + b).or(tok(2));
        assert!(naive_matches(&g, &[t(0), t(1)]));
        assert!(naive_matches(&g, &[t(2)]));
        assert!(!naive_matches(&g, &[t(0)]));
        assert!(!naive_matches(&g, &[t(0), t(1), t(2)]));
    }

    #[test]
    fn recursion_right() {
        // μx. a·x ∨ b — strings aⁿb
        let g = Cfe::fix(|x| tok(0).then(x, |a, b| a + b).or(tok(1)));
        assert!(naive_matches(&g, &[t(1)]));
        assert!(naive_matches(&g, &[t(0), t(1)]));
        assert!(naive_matches(&g, &[t(0), t(0), t(0), t(1)]));
        assert!(!naive_matches(&g, &[t(0)]));
        assert!(!naive_matches(&g, &[t(1), t(0)]));
    }

    #[test]
    fn sexp_language() {
        let (atom, lpar, rpar) = (t(0), t(1), t(2));
        let sexp: Cfe<i64> = Cfe::fix(|sexp| {
            let sexps = Cfe::fix(|sexps| Cfe::eps_with(|| 0).or(sexp.then(sexps, |a, b| a + b)));
            Cfe::tok_val(lpar, 0)
                .then(sexps, |_, n| n)
                .then(Cfe::tok_val(rpar, 0), |n, _| n)
                .or(Cfe::tok_val(atom, 1))
        });
        assert!(naive_matches(&sexp, &[atom]));
        assert!(naive_matches(&sexp, &[lpar, rpar]));
        assert!(naive_matches(&sexp, &[lpar, atom, atom, rpar]));
        assert!(!naive_matches(&sexp, &[lpar, lpar, rpar]));
        assert!(naive_matches(&sexp, &[lpar, lpar, rpar, rpar]));
        assert!(!naive_matches(&sexp, &[rpar]));
        assert!(!naive_matches(&sexp, &[atom, atom]));
    }

    fn word(tokens: &[usize]) -> (Vec<u8>, Vec<Lexeme>) {
        let input = tokens.iter().map(|&i| b'a' + i as u8).collect();
        let lexemes = tokens
            .iter()
            .enumerate()
            .map(|(k, &i)| Lexeme {
                token: t(i),
                start: k,
                end: k + 1,
            })
            .collect();
        (input, lexemes)
    }

    #[test]
    fn values_follow_the_derivation() {
        // μx. a·x ∨ b, as a right-nested string of lexemes
        let name = |i| Cfe::tok_with(t(i), |lx| String::from_utf8_lossy(lx).into_owned());
        let g = Cfe::fix(|x| {
            name(0)
                .then(x, |a, b| format!("({a} {b})"))
                .or(name(1).map(|v| format!("m({v})")))
        });
        let (input, lexemes) = word(&[0, 0, 1]);
        assert_eq!(
            naive_value(&g, &input, &lexemes).as_deref(),
            Some("(a (a m(b)))")
        );
        let (input, lexemes) = word(&[0, 1, 0]);
        assert_eq!(naive_value(&g, &input, &lexemes), None);
    }

    #[test]
    fn star_language() {
        let g = Cfe::star(tok(0), || 0, |a, b| a + b);
        for n in 0..6 {
            assert!(naive_matches(&g, &vec![t(0); n]));
        }
        assert!(!naive_matches(&g, &[t(0), t(1)]));
    }
}
