//! Typed context-free expressions — flap's parser combinator surface.
//!
//! This crate implements §2.1 of the flap paper (the system of
//! Krishnaswami & Yallop, *A typed, algebraic approach to parsing*,
//! PLDI 2019):
//!
//! * [`Cfe<V>`] — context-free expressions
//!   `⊥ | ε | t | α | g₁·g₂ | g₁ ∨ g₂ | μα.g` with semantic actions;
//! * [`Ty`] — the `{Null; First; FLast}` types of Fig 2 with the
//!   separability (`⊛`) and apartness (`#`) side conditions;
//! * [`type_check`] — the Γ;Δ type system, with μ-types computed by
//!   Kleene iteration;
//! * [`naive_matches`] and [`naive_value`] — denotational membership
//!   and value oracles used by the normalization-soundness tests
//!   (Theorem 3.8).
//!
//! Well-typed expressions are exactly the ones `flap-dgnf` can
//! normalize to Deterministic Greibach Normal Form, which is what
//! makes lexer fusion and staging possible downstream.
//!
//! # Quickstart
//!
//! ```
//! use flap_cfe::{type_check, Cfe};
//! use flap_lex::Token;
//!
//! let num = Token::from_index(0);
//! let plus = Token::from_index(1);
//!
//! // num (+ num)* — summing values
//! let expr: Cfe<i64> = Cfe::sep_by1(
//!     Cfe::tok_with(num, |lexeme| {
//!         std::str::from_utf8(lexeme).unwrap().parse().unwrap()
//!     }),
//!     Cfe::tok_val(plus, 0),
//!     || 0,
//!     |a, b| a + b,
//! );
//! let ty = type_check(&expr)?;
//! assert!(!ty.null);
//! # Ok::<(), flap_cfe::TypeError>(())
//! ```

#![warn(missing_docs)]

mod check;
mod expr;
mod naive;
mod ty;

pub use check::{type_check, TypeError};
pub use expr::{node_count, Cfe, CfeNode, EpsAction, MapAction, SeqAction, TokAction, VarId};
pub use naive::{naive_matches, naive_value};
pub use ty::Ty;
