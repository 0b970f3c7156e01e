//! Normalization soundness (Theorem 3.8), tested empirically: for
//! random *well-typed* context-free expressions, the normalized DGNF
//! grammar expands to exactly the token strings the denotational
//! semantics admits, and every parser in the repo agrees on
//! membership and on the semantic value.

use flap_cfe::{naive_matches, naive_value, type_check, Cfe};
use flap_dgnf::{expand_words, normalize, parse_tokens};
use flap_fuse::{fuse, parse_fused};
use flap_lex::{CompiledLexer, Lexeme, LexerBuilder, Token};
use flap_staged::CompiledParser;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_TOKENS: usize = 3;

fn t(i: usize) -> Token {
    Token::from_index(i)
}

/// The one-byte spelling of token `i`, which is also its name.
fn name(i: usize) -> u8 {
    b'a' + i as u8
}

/// A token whose value is its lexeme, i.e. its name.
fn tok(i: usize) -> Cfe<String> {
    Cfe::tok_with(t(i), |lx| String::from_utf8_lossy(lx).into_owned())
}

/// Generates a random CFE over 3 tokens; most are ill-typed and get
/// filtered by the caller.
///
/// The actions do not commute, so a value records its derivation: a
/// token gives its name, `·` gives `(x y)`, `map` gives `m(x)` and ε
/// gives `e`. A parser that folds arguments in the wrong order, or
/// drops or repeats an action, returns a different string.
fn random_cfe(rng: &mut StdRng, depth: usize, vars: &[Cfe<String>]) -> Cfe<String> {
    let leaf = depth == 0;
    match rng.random_range(0..if leaf { 3 } else { 9 }) {
        0 => tok(rng.random_range(0..N_TOKENS)),
        1 => Cfe::eps("e".to_string()),
        2 if !vars.is_empty() => vars[rng.random_range(0..vars.len())].clone(),
        2 => tok(rng.random_range(0..N_TOKENS)),
        3 | 4 => {
            let a = random_cfe(rng, depth - 1, vars);
            let b = random_cfe(rng, depth - 1, vars);
            a.then(b, |x, y| format!("({x} {y})"))
        }
        5 | 6 => {
            let a = random_cfe(rng, depth - 1, vars);
            let b = random_cfe(rng, depth - 1, vars);
            a.or(b)
        }
        7 => random_cfe(rng, depth - 1, vars).map(|x| format!("m({x})")),
        _ => {
            // μ: generate the body with the variable in scope
            let seed: u64 = rng.random();
            let d = depth - 1;
            let vars2 = vars.to_vec();
            Cfe::fix(move |x| {
                let mut rng2 = StdRng::seed_from_u64(seed);
                let mut vs = vars2.clone();
                vs.push(x);
                random_cfe(&mut rng2, d, &vs)
            })
        }
    }
}

/// All token strings over the 3-token alphabet with length ≤ max.
fn all_words(max: usize) -> Vec<Vec<Token>> {
    let mut out: Vec<Vec<Token>> = vec![vec![]];
    let mut frontier: Vec<Vec<Token>> = vec![vec![]];
    for _ in 0..max {
        let mut next = Vec::new();
        for w in &frontier {
            for i in 0..N_TOKENS {
                let mut w2 = w.clone();
                w2.push(t(i));
                next.push(w2);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// A word as synthetic one-byte lexemes over its spelling.
fn lexemes_of(w: &[Token]) -> (Vec<u8>, Vec<Lexeme>) {
    let input = w.iter().map(|tok| name(tok.index())).collect();
    let lexemes = w
        .iter()
        .enumerate()
        .map(|(i, &token)| Lexeme {
            token,
            start: i,
            end: i + 1,
        })
        .collect();
    (input, lexemes)
}

#[test]
fn theorem_3_8_on_random_well_typed_grammars() {
    let mut rng = StdRng::seed_from_u64(20230411);
    let words = all_words(5);
    let mut tested = 0;
    let mut attempts = 0;
    while tested < 40 && attempts < 4000 {
        attempts += 1;
        let g = random_cfe(&mut rng, 3, &[]);
        if type_check(&g).is_err() {
            continue;
        }
        tested += 1;
        let grammar = normalize(&g).unwrap_or_else(|e| panic!("well-typed must normalize: {e}"));
        grammar
            .check_dgnf()
            .unwrap_or_else(|e| panic!("normalization must produce DGNF (Thm 3.7): {e}"));
        let expanded = expand_words(&grammar, 5);
        for w in &words {
            let sem = naive_matches(&g, w);
            let dgnf = expanded.contains(w);
            assert_eq!(
                sem, dgnf,
                "Theorem 3.8 violated on {:?} for grammar #{tested} ({:?})",
                w, g
            );
        }
    }
    assert!(
        tested >= 40,
        "only {tested} well-typed grammars in {attempts} attempts"
    );
}

#[test]
fn dgnf_parser_agrees_with_membership() {
    // Fig 8 parsing accepts exactly the member strings. Words are
    // fed as synthetic lexemes (token-level test, no lexer).
    let mut rng = StdRng::seed_from_u64(7);
    let words = all_words(4);
    let mut tested = 0;
    while tested < 25 {
        let g = random_cfe(&mut rng, 3, &[]);
        if type_check(&g).is_err() {
            continue;
        }
        tested += 1;
        let grammar = normalize(&g).expect("normalizes");
        for w in &words {
            let (input, lexemes) = lexemes_of(w);
            let parsed = parse_tokens(&grammar, &input, &lexemes).is_ok();
            let member = naive_matches(&g, w);
            assert_eq!(parsed, member, "Fig 8 disagrees with semantics on {:?}", w);
        }
    }
}

#[test]
fn every_parser_returns_the_oracle_value() {
    // Value-level Theorem 3.8: on every word up to length 5, the
    // staged parser, the unstaged fused parser and the Fig 8 parser
    // all return exactly the value of the word's unique derivation
    // (and all reject non-members). Most well-typed random grammars
    // have tiny languages, so grammars are drawn until 50 member
    // words of three or more tokens have been checked.
    let mut rng = StdRng::seed_from_u64(20230412);
    let words = all_words(5);
    let mut tested = 0;
    let mut long = 0;
    while long < 50 && tested < 5000 {
        let g = random_cfe(&mut rng, 3, &[]);
        if type_check(&g).is_err() {
            continue;
        }
        tested += 1;
        let grammar = normalize(&g).expect("normalizes");
        let mut b = LexerBuilder::new();
        for i in 0..N_TOKENS {
            let spelling = (name(i) as char).to_string();
            assert_eq!(b.token(&spelling, &spelling).unwrap(), t(i));
        }
        let mut lexer = b.build().unwrap();
        let fused = fuse(&mut lexer, &grammar).expect("fuses");
        let staged = CompiledParser::compile(&mut lexer, &fused);
        for w in &words {
            let (input, lexemes) = lexemes_of(w);
            let want = naive_value(&g, &input, &lexemes);
            long += usize::from(want.is_some() && w.len() >= 3);
            let got = [
                ("staged", staged.parse(&input).ok()),
                (
                    "unstaged",
                    parse_fused(&fused, lexer.arena_mut(), None, &input).ok(),
                ),
                ("Fig 8", parse_tokens(&grammar, &input, &lexemes).ok()),
            ];
            for (parser, value) in got {
                assert_eq!(
                    value,
                    want,
                    "{parser} parser on {:?} for grammar #{tested} ({g:?})",
                    String::from_utf8_lossy(&input)
                );
            }
        }
    }
    assert!(
        long >= 50,
        "only {long} long member words in {tested} grammars"
    );
}

#[test]
fn whitespace_insertion_is_invisible_metamorphic() {
    // For a whitespace-skipping grammar, injecting extra whitespace
    // between lexemes must not change the parse value.
    let def = flap_grammars::sexp::def();
    let parser = def.flap_parser();
    let mut lexer = (def.lexer)();
    let clex = CompiledLexer::build(&mut lexer);
    let mut rng = StdRng::seed_from_u64(99);
    for seed in 0..8 {
        let input = (def.generate)(seed, 600);
        let base = parser.parse(&input).expect("valid input");
        // rebuild the input with random whitespace between lexemes
        let lexemes = clex.tokenize(&input).expect("lexes");
        let mut spaced = Vec::new();
        for lx in &lexemes {
            // at least one separator, so adjacent atoms cannot merge
            for _ in 0..rng.random_range(1..4) {
                spaced.push(if rng.random_bool(0.5) { b' ' } else { b'\n' });
            }
            spaced.extend_from_slice(lx.bytes(&input));
        }
        spaced.extend(std::iter::repeat_n(b' ', rng.random_range(0..3)));
        assert_eq!(parser.parse(&spaced).expect("spaced input parses"), base);
    }
}
