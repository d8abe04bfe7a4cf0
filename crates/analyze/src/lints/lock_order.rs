//! `lock-order` — `cdcs-serve` acquires its mutexes in one declared order.
//!
//! The daemon holds six mutexes across five layers (server → fleet →
//! scheduler → job → admission). Deadlock needs two functions acquiring
//! two of them in opposite orders, so the pass extracts, per function, the
//! sequence of lock acquisitions appearing in the body and checks every
//! ordered pair against [`ORDER`]. The check is conservative-lexical: a later
//! acquisition counts even if the earlier guard was already dropped —
//! waive those lines with `lint: allow(lock-order) — guard dropped above`.
//!
//! Acquisitions are recognized three ways:
//! * directly — `<name>.lock()` (receiver ident before the call);
//! * through the named wrapper methods ([`WRAPPERS`]: `lock_jobs`,
//!   `lock_fleet`, `lock_phase`);
//! * through a bare `self.lock()` whose meaning is file-specific
//!   ([`SELF_ALIAS`]).
//!
//! A `.lock()` on a receiver not declared in [`ORDER`] is itself a
//! diagnostic: new mutexes must be added to the table (with a position
//! chosen against the existing ones) before they can ship.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{match_brace, SourceFile};

const LINT: &str = "lock-order";

/// The declared acquisition order, outermost first. Derived from the
/// daemon's layering: the server's job list is the entry point, the
/// fleet's runner and lease state nests next (its poll path holds
/// `fleet` while claiming from the rotation — the second deliberate
/// nesting), the scheduler's rotation orders every runner's claims,
/// per-job state nests inside (the phase is the terminal-state gate, and
/// the assembly is drained *while the phase lock is held* in
/// `try_finalize` — the other deliberate nesting), and the admission
/// buckets are a leaf taken on their own.
pub const ORDER: [&str; 6] = ["jobs", "fleet", "rotation", "phase", "assembly", "buckets"];

/// Wrapper methods that acquire a named lock.
pub const WRAPPERS: [(&str, &str); 3] = [
    ("lock_jobs", "jobs"),
    ("lock_fleet", "fleet"),
    ("lock_phase", "phase"),
];

/// What a bare `self.lock()` means, per file stem.
pub const SELF_ALIAS: [(&str, &str); 1] = [("scheduler", "rotation")];

fn rank(name: &str) -> Option<usize> {
    ORDER.iter().position(|&n| n == name)
}

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    let stem = file
        .rel
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    let self_alias = SELF_ALIAS
        .iter()
        .find(|(s, _)| *s == stem)
        .map(|&(_, lock)| lock);

    // Walk functions: `fn name … { body }`.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let fn_name = toks
            .get(i + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map_or("?", |t| t.text.as_str())
            .to_string();
        // Find the body brace (or `;` for a bodyless trait method).
        let mut b = i + 1;
        while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
            b += 1;
        }
        if b >= toks.len() || toks[b].is_punct(';') {
            i = b + 1;
            continue;
        }
        let end = match_brace(toks, b);
        check_body(file, &fn_name, b, end, self_alias, out);
        i = end + 1;
    }
}

fn check_body(
    file: &SourceFile,
    fn_name: &str,
    body_start: usize,
    body_end: usize,
    self_alias: Option<&str>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.toks;
    // (lock name, line) in first-acquisition order.
    let mut seq: Vec<(String, u32)> = Vec::new();
    let mut j = body_start;
    while j < body_end {
        let t = &toks[j];
        if file.is_test_line(t.line) {
            j += 1;
            continue;
        }
        let mut acquired: Option<(String, u32)> = None;
        if t.is_ident("lock")
            && toks.get(j + 1).is_some_and(|p| p.is_punct('('))
            && j >= 2
            && toks[j - 1].is_punct('.')
            && toks[j - 2].kind == TokKind::Ident
        {
            let recv = toks[j - 2].text.as_str();
            if recv == "self" {
                match self_alias {
                    Some(lock) => acquired = Some((lock.to_string(), t.line)),
                    None => out.push(Diagnostic {
                        lint: LINT.to_string(),
                        file: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "bare `self.lock()` in `{fn_name}` has no SELF_ALIAS entry for \
                             `{stem}.rs`; name the mutex so its order can be checked",
                            stem = file
                                .rel
                                .rsplit('/')
                                .next()
                                .and_then(|f| f.strip_suffix(".rs"))
                                .unwrap_or("?")
                        ),
                    }),
                }
            } else {
                acquired = Some((recv.to_string(), t.line));
            }
        } else if toks.get(j + 1).is_some_and(|p| p.is_punct('(')) {
            if let Some(&(_, lock)) = WRAPPERS.iter().find(|(w, _)| t.is_ident(w)) {
                acquired = Some((lock.to_string(), t.line));
            }
        }
        if let Some((name, line)) = acquired {
            if rank(&name).is_none() {
                out.push(Diagnostic {
                    lint: LINT.to_string(),
                    file: file.rel.clone(),
                    line,
                    message: format!(
                        "lock `{name}` (in `{fn_name}`) is not in the declared order table; \
                         add it to lints::lock_order::ORDER"
                    ),
                });
            } else if !seq.iter().any(|(n, _)| *n == name) {
                seq.push((name, line));
            }
        }
        j += 1;
    }
    for w in 0..seq.len() {
        for v in w + 1..seq.len() {
            let (ref a, _) = seq[w];
            let (ref b, line_b) = seq[v];
            if rank(a) > rank(b) {
                out.push(Diagnostic {
                    lint: LINT.to_string(),
                    file: file.rel.clone(),
                    line: line_b,
                    message: format!(
                        "`{b}` acquired after `{a}` in `{fn_name}`, but the declared order is \
                         `{b}` before `{a}` (see lints::lock_order::ORDER)"
                    ),
                });
            }
        }
    }
}
