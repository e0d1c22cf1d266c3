//! The DP-soundness rules.
//!
//! Each rule has a stable ID (`XT01`…`XT07`), a lexical detector over the
//! token stream produced by [`crate::lexer`], and a scope describing which
//! parts of the workspace it applies to. Rules are deliberately lexical:
//! they trade a small amount of precision for zero dependencies and
//! trivially auditable detectors — every rule is a short function over a
//! flat token list. False positives are handled with
//! `// xtask-allow(XTnn): reason` escape hatches, which *require* a reason.

use crate::lexer::{Lexed, Token, TokenKind};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule ID, e.g. `XT03`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation including the remediation.
    pub message: String,
}

/// Everything a rule needs to know about one source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Token stream + allow directives.
    pub lexed: Lexed,
    /// Per-token flag: true when the token sits inside `#[cfg(test)]` /
    /// `#[test]` code.
    pub test_mask: Vec<bool>,
}

/// File-role classification derived from the path, mirroring Cargo's
/// target layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/**` of a crate, excluding `src/bin/`.
    Lib,
    /// `src/bin/**`, `examples/**` — application code.
    Bin,
    /// `tests/**`, `benches/**` — test and bench harnesses.
    Test,
}

impl SourceFile {
    /// Build a `SourceFile` from lexed source.
    pub fn new(rel_path: impl Into<String>, lexed: Lexed) -> Self {
        let test_mask = compute_test_mask(&lexed.tokens);
        SourceFile {
            rel_path: rel_path.into(),
            lexed,
            test_mask,
        }
    }

    /// Whether the file belongs to the `crates/dp` privacy kernel, where
    /// raw noise sampling is legitimate.
    pub fn in_dp_crate(&self) -> bool {
        self.rel_path.starts_with("crates/dp/")
    }

    /// Classify the file by its path.
    pub fn role(&self) -> FileRole {
        let p = self.rel_path.as_str();
        if p.contains("/tests/")
            || p.starts_with("tests/")
            || p.contains("/benches/")
            || p.starts_with("benches/")
        {
            FileRole::Test
        } else if p.contains("/src/bin/")
            || p.starts_with("src/bin/")
            || p.contains("/examples/")
            || p.starts_with("examples/")
        {
            FileRole::Bin
        } else {
            FileRole::Lib
        }
    }
}

/// The identifier at token `i` of `file`, if that token is one.
pub(crate) fn ident_at(file: &SourceFile, i: usize) -> Option<&str> {
    match file.lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation character at token `i` of `file`, if that token is one.
pub(crate) fn punct_at(file: &SourceFile, i: usize) -> Option<char> {
    match file.lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// One `xtask-allow` directive with its observed effect over a lint run —
/// the raw material for `cargo xtask lint --allows` and stale-allow
/// detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// Workspace-relative path of the file holding the directive.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// The rule id it targets, e.g. `XT04`.
    pub rule: String,
    /// The justification (empty reasons are reported separately as
    /// `XTALLOW` diagnostics, not as stale allows).
    pub reason: String,
    /// How many findings the directive suppressed in this run. A
    /// well-formed directive with `used == 0` is stale.
    pub used: usize,
}

impl AllowRecord {
    /// A reasoned directive that suppressed nothing — its justification
    /// has outlived the finding it was written for.
    pub fn is_stale(&self) -> bool {
        self.used == 0 && !self.reason.is_empty()
    }
}

/// Run the lexical rules (XT01–XT07) against one file, returning *raw*
/// findings with no `xtask-allow` suppression applied.
pub fn lexical_diags(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    xt01_unseeded_rng(file, &mut diags);
    xt02_raw_noise(file, &mut diags);
    xt03_float_eq(file, &mut diags);
    xt04_panic_in_lib(file, &mut diags);
    xt05_budget_bypass(file, &mut diags);
    xt06_println_in_lib(file, &mut diags);
    xt07_raw_thread(file, &mut diags);
    diags
}

/// Drop findings covered by a well-formed `xtask-allow` on the same line
/// or the line directly above, counting each directive's suppressions.
/// Malformed or reason-less directives are themselves reported. Returns
/// the surviving diagnostics (sorted) and one [`AllowRecord`] per
/// directive.
pub fn filter_allows(
    file: &SourceFile,
    mut diags: Vec<Diagnostic>,
) -> (Vec<Diagnostic>, Vec<AllowRecord>) {
    let mut records: Vec<AllowRecord> = file
        .lexed
        .allows
        .iter()
        .map(|a| AllowRecord {
            file: file.rel_path.clone(),
            line: a.line,
            rule: a.rule.clone(),
            reason: a.reason.clone(),
            used: 0,
        })
        .collect();

    diags.retain(|d| {
        let mut suppressed = false;
        for r in &mut records {
            if r.rule == d.rule
                && !r.reason.is_empty()
                && (r.line == d.line || r.line + 1 == d.line)
            {
                r.used += 1;
                suppressed = true;
            }
        }
        !suppressed
    });

    for a in &file.lexed.allows {
        if a.reason.is_empty() {
            diags.push(Diagnostic {
                rule: "XTALLOW",
                file: file.rel_path.clone(),
                line: a.line,
                message: format!(
                    "xtask-allow({}) has no reason — write `// xtask-allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            });
        }
    }
    for &line in &file.lexed.malformed_allows {
        diags.push(Diagnostic {
            rule: "XTALLOW",
            file: file.rel_path.clone(),
            line,
            message: "malformed xtask-allow — expected `// xtask-allow(XTnn): <reason>`"
                .to_string(),
        });
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (diags, records)
}

/// Run the lexical rules against one file with allow suppression — the
/// single-file entry point (the workspace scanner additionally runs the
/// structural rules in [`crate::structural`]).
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    filter_allows(file, lexical_diags(file)).0
}

fn diag(file: &SourceFile, rule: &'static str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
    }
}

fn ident(tok: &Token) -> Option<&str> {
    match &tok.kind {
        TokenKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tok: Option<&Token>, c: char) -> bool {
    matches!(tok, Some(t) if t.kind == TokenKind::Punct(c))
}

/// XT01 — unseeded randomness. Every random draw in the workspace must be
/// reproducible from an explicit seed; `thread_rng()`, `from_entropy()`
/// and `rand::random()` pull OS entropy and are banned everywhere,
/// including tests and benches.
fn xt01_unseeded_rng(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = ident(tok) else { continue };
        let banned = match name {
            "thread_rng" | "from_entropy" => true,
            // `rand::random` only — a local fn called `random` is fine.
            "random" => {
                i >= 3
                    && ident(&toks[i - 3]) == Some("rand")
                    && is_punct(toks.get(i - 2), ':')
                    && is_punct(toks.get(i - 1), ':')
            }
            _ => false,
        };
        if banned {
            out.push(diag(
                file,
                "XT01",
                tok.line,
                format!(
                    "`{name}` draws OS entropy — all randomness must come from a \
                     seeded `DpRng` (see stpt_dp::rng) so runs are reproducible"
                ),
            ));
        }
    }
}

/// XT02 — raw noise provenance. Outside the `crates/dp` privacy kernel,
/// sampling distributions directly via `rand_distr` bypasses the budget
/// accountant; privacy noise must flow through `stpt-dp`'s mechanisms.
/// Synthetic-data generators may opt out with a reasoned `xtask-allow`.
fn xt02_raw_noise(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.in_dp_crate() {
        return;
    }
    for tok in &file.lexed.tokens {
        if ident(tok) == Some("rand_distr") {
            out.push(diag(
                file,
                "XT02",
                tok.line,
                "`rand_distr` used outside crates/dp — noise that touches released \
                 data must come from stpt-dp mechanisms so it is budget-accounted; \
                 synthetic-data generation needs an explicit xtask-allow(XT02)"
                    .to_string(),
            ));
        }
    }
}

/// XT03 — float equality. `==` / `!=` where either operand is a
/// floating-point literal is almost always a rounding bug in numeric DP
/// code; library code must use an intent-revealing helper instead (exact
/// bit-level zero checks, or epsilon comparisons where approximation is
/// meant). Test code is exempt (exact assertions are often deliberate
/// there, and clippy's `float_cmp` still watches it).
fn xt03_float_eq(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.role() != FileRole::Lib {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        // `==` is two adjacent `=` puncts not preceded by a compound-op
        // head; `!=` is `!` followed by `=`.
        let (op_start, op) = if is_punct(toks.get(i), '=') && is_punct(toks.get(i + 1), '=') {
            let prev_is_op_head = matches!(
                toks.get(i.wrapping_sub(1)),
                Some(Token { kind: TokenKind::Punct(c), .. })
                    if i > 0 && "<>!=+-*/%&|^".contains(*c)
            );
            if prev_is_op_head {
                continue;
            }
            (i, "==")
        } else if is_punct(toks.get(i), '!') && is_punct(toks.get(i + 1), '=') {
            (i, "!=")
        } else {
            continue;
        };
        let lhs = op_start.checked_sub(1).and_then(|j| toks.get(j));
        let rhs = toks.get(op_start + 2);
        let float_literal = |t: Option<&Token>| -> Option<String> {
            match t {
                Some(Token {
                    kind:
                        TokenKind::Number {
                            text,
                            is_float: true,
                        },
                    ..
                }) => Some(text.clone()),
                _ => None,
            }
        };
        if let Some(lit) = float_literal(lhs).or_else(|| float_literal(rhs)) {
            out.push(diag(
                file,
                "XT03",
                toks[op_start].line,
                format!(
                    "float equality `{op} {lit}` in library code — use an \
                     intent-revealing helper (exact bit-level zero check or an \
                     explicit tolerance) instead of raw float comparison"
                ),
            ));
        }
    }
}

/// XT04 — panics in library code. `unwrap()` / `expect()` / `panic!` in
/// non-test library code turn recoverable conditions into aborts; library
/// code must return `Result` (e.g. `DpError`) or justify the panic with a
/// reasoned `xtask-allow`.
fn xt04_panic_in_lib(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.role() != FileRole::Lib {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(name) = ident(tok) else { continue };
        let hit = match name {
            // `.unwrap()` / `.expect(` — exact method names only, so
            // `unwrap_or` and friends are untouched.
            "unwrap" | "expect" => {
                i > 0 && is_punct(toks.get(i - 1), '.') && is_punct(toks.get(i + 1), '(')
            }
            "panic" | "unreachable" => is_punct(toks.get(i + 1), '!'),
            _ => false,
        };
        if hit {
            out.push(diag(
                file,
                "XT04",
                tok.line,
                format!(
                    "`{name}` in library code — propagate a Result (DpError) or \
                     justify with `// xtask-allow(XT04): <reason>`"
                ),
            ));
        }
    }
}

/// XT05 — budget bypass. The `Result` of `spend_sequential` /
/// `spend_parallel` (and their `_with` ledger-attributing variants) is the
/// privacy-overspend guard; discarding it with `let _ = …` or `.ok()`
/// silently continues past `BudgetExhausted`. Applies outside test code
/// (property tests legitimately exercise saturation).
fn xt05_budget_bypass(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.role() == FileRole::Test {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(name) = ident(tok) else { continue };
        if !matches!(
            name,
            "spend_sequential" | "spend_parallel" | "spend_sequential_with" | "spend_parallel_with"
        ) {
            continue;
        }
        if !is_punct(toks.get(i + 1), '(') {
            continue; // a definition or doc path, not a call
        }

        // (a) `let _ = <expr containing the call>;` — walk back to the
        // statement boundary and look for the discard pattern.
        let mut j = i;
        while j > 0 {
            match &toks[j - 1].kind {
                TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
                _ => j -= 1,
            }
        }
        let discarded_by_let = ident(&toks[j]) == Some("let")
            && toks.get(j + 1).and_then(ident) == Some("_")
            && is_punct(toks.get(j + 2), '=');

        // (b) `…spend_*(…).ok()` — match the call's parens, then look for
        // the discarding `.ok()` adapter.
        let mut depth = 0usize;
        let mut k = i + 1;
        while k < toks.len() {
            match toks[k].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let discarded_by_ok = is_punct(toks.get(k + 1), '.')
            && toks.get(k + 2).and_then(ident) == Some("ok")
            && is_punct(toks.get(k + 3), '(')
            && is_punct(toks.get(k + 4), ')');

        if discarded_by_let || discarded_by_ok {
            let how = if discarded_by_let {
                "`let _ =`"
            } else {
                "`.ok()`"
            };
            out.push(diag(
                file,
                "XT05",
                tok.line,
                format!(
                    "result of `{name}` discarded via {how} — the Err(BudgetExhausted) \
                     signal is the privacy-overspend guard and must be handled or propagated"
                ),
            ));
        }
    }
}

/// XT06 — raw console output in library code. `println!` / `eprintln!` in
/// a library crate bypasses the observability layer: runtime output must
/// flow through `stpt_obs::report!` (stdout) or `stpt_obs::diag!` (stderr)
/// so tracing and telemetry capture stay coherent. Binaries (`src/bin/`,
/// `examples/`), tests, the xtask tool itself, and `stpt-obs`'s own choke
/// points (which carry reasoned `xtask-allow`s) are exempt.
fn xt06_println_in_lib(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.role() != FileRole::Lib || file.rel_path.starts_with("crates/xtask/") {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(name) = ident(tok) else { continue };
        if !matches!(name, "println" | "eprintln" | "print" | "eprint") {
            continue;
        }
        if !is_punct(toks.get(i + 1), '!') {
            continue; // not a macro invocation
        }
        let replacement = if name.starts_with('e') {
            "stpt_obs::diag!"
        } else {
            "stpt_obs::report!"
        };
        out.push(diag(
            file,
            "XT06",
            tok.line,
            format!(
                "`{name}!` in library code — route runtime output through \
                 `{replacement}` so the observability layer stays the single \
                 output choke point"
            ),
        ));
    }
}

/// XT07 — raw threading outside the parallel seam. All fan-out must go
/// through the vendored `rayon` shim, where the determinism policy
/// (`STPT_THREADS` resolution, named workers, order-preserving collects,
/// nested-parallelism inlining) is enforced in one place.
/// `std::thread::{spawn, scope, Builder}` — and the scoped `spawn_scoped`
/// — anywhere else creates threads the policy cannot see. The shim lives
/// in `vendor/` (never scanned) and `crates/obs` is exempt (worker-name
/// registry and trace-event tests exercise threads directly). Applies to
/// all roles: a test that raw-threads around the seam proves nothing about
/// the seam.
fn xt07_raw_thread(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.rel_path.starts_with("crates/obs/") {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = ident(tok) else { continue };
        let hit = match name {
            // `thread::spawn` / `thread::scope` / `thread::Builder` — the
            // path prefix keeps local fns called `spawn`/`scope` clean.
            "spawn" | "scope" | "Builder" => {
                i >= 3
                    && ident(&toks[i - 3]) == Some("thread")
                    && is_punct(toks.get(i - 2), ':')
                    && is_punct(toks.get(i - 1), ':')
            }
            // Method on `std::thread::Scope` — no path prefix at the call
            // site, but the name is unambiguous.
            "spawn_scoped" => true,
            _ => false,
        };
        if hit {
            out.push(diag(
                file,
                "XT07",
                tok.line,
                format!(
                    "`{name}` spawns a raw thread outside the rayon seam — fan out \
                     through `rayon::prelude` (vendor/rayon) so STPT_THREADS, worker \
                     naming and the determinism policy apply; justify exceptions with \
                     `// xtask-allow(XT07): <reason>`"
                ),
            ));
        }
    }
}

/// Mark tokens inside `#[cfg(test)]` / `#[test]`-attributed items.
///
/// When a test attribute is seen, the following item is masked: any further
/// attributes are skipped, then everything up to the matching `}` of the
/// item's first brace (or a top-level `;` for brace-less items like
/// `#[cfg(test)] use …;`).
fn compute_test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = test_attribute_end(toks, i) {
            let item_end = mask_item(toks, end, &mut mask);
            for m in mask.iter_mut().take(item_end).skip(i) {
                *m = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If `toks[i..]` starts a `#[cfg(test)]`, `#[cfg(all(test, …))]` or
/// `#[test]` attribute, return the index one past its closing `]`.
fn test_attribute_end(toks: &[Token], i: usize) -> Option<usize> {
    if !is_punct(toks.get(i), '#') || !is_punct(toks.get(i + 1), '[') {
        return None;
    }
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut attr_head: Option<&str> = None;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s) => {
                if attr_head.is_none() {
                    attr_head = Some(s.as_str());
                }
                if s == "test" {
                    saw_test = true;
                }
                if s == "not" {
                    saw_not = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // `#[cfg(not(test))]` guards *non*-test code; treat any `not(…)` in a
    // test-mentioning cfg conservatively as live code.
    let is_test_attr = saw_test && !saw_not && matches!(attr_head, Some("test") | Some("cfg"));
    if is_test_attr {
        Some(j + 1)
    } else {
        None
    }
}

/// Starting just after a test attribute, skip further attributes and mask
/// through the end of the item. Returns the index one past the item.
fn mask_item(toks: &[Token], mut i: usize, mask: &mut [bool]) -> usize {
    // Skip subsequent attributes (`#[test] #[ignore] fn …`).
    while is_punct(toks.get(i), '#') && is_punct(toks.get(i + 1), '[') {
        let mut depth = 0usize;
        while i < toks.len() {
            match toks[i].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Mask to the end of the item: matching brace of the first `{`, or a
    // `;` before any brace opens.
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    mask[i] = true;
                    return i + 1;
                }
            }
            TokenKind::Punct(';') if depth == 0 => {
                mask[i] = true;
                return i + 1;
            }
            _ => {}
        }
        mask[i] = true;
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, lex(src))
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        check_file(&file(path, src))
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "
            fn lib_code() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
        ";
        let diags = check_file(&file("crates/core/src/a.rs", src));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "
            // xtask-allow(XT04): index is bounds-checked two lines above
            fn f() { x.unwrap(); }
        ";
        // The allow is on line 2, the unwrap on line 3.
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "// xtask-allow(XT04):\nfn f() { x.unwrap(); }\n";
        let diags = check_file(&file("crates/core/src/a.rs", src));
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"XTALLOW"));
        assert!(
            rules.contains(&"XT04"),
            "reason-less allow must not suppress"
        );
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = "// xtask-allow(XT03): wrong rule\nfn f() { x.unwrap(); }\n";
        assert_eq!(rules_hit("crates/core/src/a.rs", src), vec!["XT04"]);
    }

    #[test]
    fn xt06_flags_println_in_lib_only() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }\n";
        assert_eq!(
            rules_hit("crates/core/src/stpt.rs", src),
            vec!["XT06", "XT06"]
        );
        // Binaries, tests and the xtask tool itself are exempt.
        assert!(rules_hit("crates/bench/src/bin/fig6.rs", src).is_empty());
        assert!(rules_hit("tests/end_to_end.rs", src).is_empty());
        assert!(rules_hit("crates/xtask/src/scan.rs", src).is_empty());
    }

    #[test]
    fn xt06_skips_test_code_and_non_macro_idents() {
        let src = "
            fn lib_code() { self.print(); }
            #[cfg(test)]
            mod tests {
                fn t() { println!(\"debug\"); }
            }
        ";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn xt06_allow_with_reason_suppresses() {
        let src = "
            // xtask-allow(XT06): the one sanctioned stdout choke point
            fn f() { println!(\"x\"); }
        ";
        assert!(rules_hit("crates/obs/src/lib.rs", src).is_empty());
    }

    #[test]
    fn xt05_covers_with_variants() {
        let src = "fn f() { let _ = acc.spend_parallel_with(a, b, c, info); }\n";
        assert_eq!(rules_hit("crates/core/src/sanitize.rs", src), vec!["XT05"]);
        let src2 = "fn f() { acc.spend_sequential_with(a, b, info).ok(); }\n";
        assert_eq!(rules_hit("crates/core/src/sanitize.rs", src2), vec!["XT05"]);
    }

    #[test]
    fn roles_classify_paths() {
        assert_eq!(file("crates/dp/src/lib.rs", "").role(), FileRole::Lib);
        assert_eq!(file("crates/dp/tests/t.rs", "").role(), FileRole::Test);
        assert_eq!(file("crates/bench/benches/b.rs", "").role(), FileRole::Test);
        assert_eq!(
            file("crates/bench/src/bin/fig6.rs", "").role(),
            FileRole::Bin
        );
        assert_eq!(file("src/lib.rs", "").role(), FileRole::Lib);
        assert_eq!(file("tests/end_to_end.rs", "").role(), FileRole::Test);
    }
}
