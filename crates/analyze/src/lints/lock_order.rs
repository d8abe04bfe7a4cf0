//! `lock-order` — `cdcs-serve` acquires its mutexes in one declared order.
//!
//! The daemon holds four mutexes, one per layer (server → fleet → job →
//! admission). Deadlock needs two functions acquiring two of them in
//! opposite orders, so the pass extracts, per function, the sequence of
//! lock acquisitions appearing in the body and checks every ordered pair
//! against [`ORDER`]. The check is conservative-lexical: a later
//! acquisition counts even if the earlier guard was already dropped —
//! waive those lines with `lint: allow(lock-order) — guard dropped above`.
//!
//! Acquisitions are recognized two ways:
//! * directly — `<name>.lock()` (receiver ident before the call);
//! * through the named wrapper methods ([`WRAPPERS`]: `lock_jobs`,
//!   `lock_fleet`, `lock_state`).
//!
//! A `.lock()` on a receiver not declared in [`ORDER`] is itself a
//! diagnostic, and so is a bare `self.lock()`, which names no mutex: new
//! mutexes must be added to the table (with a position chosen against the
//! existing ones) before they can ship.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{match_brace, SourceFile};

const LINT: &str = "lock-order";

/// The declared acquisition order, outermost first. Derived from the
/// daemon's layering: the server's job list is the entry point, the
/// fleet's rotation, runner and lease state nests next, a job's `state`
/// (its units, verdict, assembly and phase) nests inside the fleet's —
/// claims and re-queues take it while holding `fleet`, the one deliberate
/// nesting — and the admission buckets are a leaf taken on their own.
pub const ORDER: [&str; 4] = ["jobs", "fleet", "state", "buckets"];

/// Wrapper methods that acquire a named lock.
pub const WRAPPERS: [(&str, &str); 3] = [
    ("lock_jobs", "jobs"),
    ("lock_fleet", "fleet"),
    ("lock_state", "state"),
];

fn rank(name: &str) -> Option<usize> {
    ORDER.iter().position(|&n| n == name)
}

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;

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
        check_body(file, &fn_name, b, end, out);
        i = end + 1;
    }
}

fn check_body(
    file: &SourceFile,
    fn_name: &str,
    body_start: usize,
    body_end: usize,
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
                out.push(Diagnostic {
                    lint: LINT.to_string(),
                    file: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "bare `self.lock()` in `{fn_name}` names no mutex; lock a named \
                         field or a WRAPPERS method so its order can be checked"
                    ),
                });
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
