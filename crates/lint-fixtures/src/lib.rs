//! The determinism gate proves it bites.
//!
//! Each module holds the construct one determinism rule bans (the rule's
//! golden fixture from the hand-rolled linter it replaced, made to
//! compile), and every banned line carries `#[expect(<the stock lint
//! that holds the rule>)]`.
//! The crate denies `unfulfilled_lint_expectations`, so the workspace
//! `cargo clippy` step fails the moment a replacement stops firing on
//! its fixture: an entry dropped from the root `clippy.toml`, a lint
//! renamed, a path that no longer resolves. Nothing here is ever called.
//! DESIGN.md §6.9 has the rule → lint → fixture table.

#![expect(clippy::disallowed_macros)] // c4.rs

pub mod c1;
pub mod c2;
pub mod c3;
pub mod c4;
pub mod c5;
pub mod d1;
pub mod d2;
pub mod d3;
pub mod f1;
pub mod f2;
pub mod g1;
pub mod g2;
pub mod g3;
