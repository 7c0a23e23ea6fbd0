//! Panic-path check: no `unwrap`/`expect`/`panic!`-family macros or
//! direct indexing in the per-window hot paths.
//!
//! The pipelined scheduler runs pingers on worker threads; a panic
//! there is caught and surfaced as `PipelineError::Stage`, but a panic
//! in the dispatch or diagnosis stage aborts the whole run — and with a
//! bounded meta channel, a stage that dies while a peer blocks on
//! `send` turns a bug into a hang. Hot-path code therefore degrades
//! gracefully (typed errors, `unwrap_or_else`, `let ... else`) and the
//! provably-infallible remainder carries
//! `detlint::allow(panic_path, reason = "...")` so every accepted panic
//! site has a written justification.
//!
//! Tests, benches and examples are exempt (the walker skips them and
//! `#[cfg(test)]` items are stripped before analysis).

use crate::lexer::TokKind;
use crate::{Check, Diagnostic, FileCtx};

/// The per-window hot paths: everything executed per probe, per report
/// or per window by the sequential and pipelined drivers. Control-plane
/// code (controller, planner) re-plans between windows and reports
/// typed `PmcError`s already.
const SCOPE: &[&str] = &[
    "crates/ingest/src/fold.rs",
    "crates/system/src/scheduler.rs",
    "crates/system/src/pinger.rs",
    "crates/system/src/report.rs",
    "crates/system/src/runtime.rs",
    "crates/system/src/events.rs",
    "crates/system/src/diagnoser.rs",
    "crates/system/src/watchdog.rs",
    "crates/system/src/clock.rs",
    "crates/system/src/responder.rs",
    "crates/system/src/dataplane.rs",
    "crates/system/src/dataplane/udp.rs",
    "crates/system/src/dataplane/udp/harness.rs",
    "crates/system/src/dataplane/udp/timestamp.rs",
];

/// True when the panic-path check applies to `rel`.
pub fn in_scope(rel: &str) -> bool {
    SCOPE.contains(&rel)
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Flags panic-capable constructs in the token stream.
pub fn run(ctx: &FileCtx) -> Vec<Diagnostic> {
    let t = &ctx.toks;
    let mut out = Vec::new();
    let mut diag = |line: u32, message: String| {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line,
            check: Check::PanicPath,
            message,
        });
    };
    for i in 0..t.len() {
        match &t[i].kind {
            TokKind::Punct('.')
                if t.get(i + 1)
                    .and_then(|x| x.ident())
                    .is_some_and(|id| id == "unwrap" || id == "expect")
                    && t.get(i + 2).is_some_and(|x| x.is_punct('(')) =>
            {
                let id = t[i + 1].ident().unwrap_or_default();
                diag(
                    t[i + 1].line,
                    format!(
                        ".{id}() can panic in a hot path; return a typed error, degrade \
                         gracefully, or annotate a provably-infallible site with \
                         detlint::allow(panic_path, reason = \"...\")"
                    ),
                );
            }
            TokKind::Ident(id)
                if PANIC_MACROS.contains(&id.as_str())
                    && t.get(i + 1).is_some_and(|x| x.is_punct('!')) =>
            {
                diag(
                    t[i].line,
                    format!("{id}! aborts the stage thread in a hot path; surface a typed error"),
                );
            }
            TokKind::Punct('[') if i > 0 && is_index_base(&t[i - 1].kind) => {
                diag(
                    t[i].line,
                    "direct indexing can panic in a hot path; use .get()/iterators, or annotate \
                     a provably-in-bounds site with detlint::allow(panic_path, reason = \"...\")"
                        .into(),
                );
            }
            _ => {}
        }
    }
    out
}

/// A `[` directly after one of these tokens is an index expression (an
/// array literal, attribute, or slice type follows `=`, `#`, `:`, `&`,
/// `(`, `,`, `<`, `!`, ... instead). Keywords are never index bases:
/// `mut [u32]` in a signature and `return [a, b]` start a slice type or
/// array literal, not an indexing.
fn is_index_base(prev: &TokKind) -> bool {
    const KEYWORDS: &[&str] = &["mut", "dyn", "in", "return", "else", "break", "const"];
    match prev {
        TokKind::Ident(id) => !KEYWORDS.contains(&id.as_str()),
        TokKind::Punct(']') | TokKind::Punct(')') => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, ScopeMode};
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(
            Path::new("crates/system/src/pinger.rs"),
            src,
            ScopeMode::Workspace,
        )
    }

    #[test]
    fn udp_dataplane_files_are_in_scope() {
        // The socket backend must stay panic-free; its files are scoped
        // explicitly (unlike determinism's prefix scope).
        for rel in [
            "crates/system/src/dataplane/udp.rs",
            "crates/system/src/dataplane/udp/harness.rs",
            "crates/system/src/dataplane/udp/timestamp.rs",
        ] {
            assert!(in_scope(rel), "{rel} must be panic-path scoped");
        }
    }

    #[test]
    fn unwrap_expect_panics_and_indexing_fire() {
        let src = "
            fn f(v: Vec<u32>, i: usize) -> u32 {
                let a = v.get(i).unwrap();
                let b = v.first().expect(\"msg\");
                if i > 3 { panic!(\"boom\"); }
                v[i]
            }
        ";
        let d = lint(src);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d.iter().all(|x| x.check == Check::PanicPath));
    }

    #[test]
    fn unwrap_or_family_is_fine() {
        let src = "
            fn f(v: Option<u32>) -> u32 {
                v.unwrap_or(0) + v.unwrap_or_else(|| 1) + v.unwrap_or_default()
            }
        ";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn non_index_brackets_are_fine() {
        let src = "
            #[derive(Clone)]
            struct S { a: [u8; 4] }
            fn f() -> Vec<u32> { let x: &[u32] = &[1, 2]; vec![x[0]; 1] }
        ";
        // Only `x[0]` is an index expression.
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn keywords_before_brackets_are_not_index_bases() {
        let src = "
            fn f(parent: &mut [u32]) -> [u8; 2] {
                let _s: &dyn std::any::Any = &1u8;
                for _x in [1, 2] {}
                return [0, 1];
            }
        ";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn tests_are_exempt_and_allow_suppresses() {
        let src = "
            #[cfg(test)]
            mod tests { fn t() { v[0].unwrap(); } }
            fn f(v: &[u32], i: usize) -> u32 {
                // detlint::allow(panic_path, reason = \"i is taken modulo v.len() above\")
                v[i % v.len()]
            }
        ";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_not_checked() {
        let d = lint_source(
            Path::new("crates/core/src/pmc/mod.rs"),
            "fn f(v: Vec<u32>) -> u32 { v[0] }",
            ScopeMode::Workspace,
        );
        assert!(d.is_empty());
    }
}
