//! A brace-matched item tree over the flat token stream.
//!
//! The lexer ([`crate::lexer`]) deliberately stops at tokens; this module
//! recovers just enough structure for the *structural* rules (XT08–XT10)
//! without pulling in `syn`:
//!
//! * `fn` items with their body token ranges and the `impl` type/trait
//!   context they sit in (so `LaplaceMechanism::release` is addressable);
//! * closure literals with their parameter lists, locally-bound names and
//!   the set of identifiers *captured* from the enclosing scope.
//!
//! Everything is a best-effort single pass over tokens — precision limits
//! (no macro expansion, no type information, pattern `|` can look like a
//! closure head) are documented in `DESIGN.md` §13 and accepted because
//! every consumer fails *loudly* (a lint finding with an `xtask-allow`
//! escape hatch), never silently.

use std::collections::HashSet;

use crate::lexer::TokenKind;
use crate::rules::{ident_at, punct_at, SourceFile};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name, e.g. `release`.
    pub name: String,
    /// The `impl` type the fn sits in, e.g. `LaplaceMechanism` — `None`
    /// for free functions.
    pub self_ty: Option<String>,
    /// The trait being implemented when inside `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token range `[start, end)` of the body including its braces;
    /// `None` for bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// True when the `fn` keyword sits inside `#[cfg(test)]` / `#[test]`
    /// code.
    pub in_test: bool,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One closure literal (`|args| body` or `move |args| { body }`).
#[derive(Debug, Clone)]
pub struct Closure {
    /// Identifiers bound by the parameter patterns.
    pub params: HashSet<String>,
    /// Identifiers bound *inside* the body: `let` patterns, `for`
    /// patterns, and the parameters of nested closures.
    pub locals: HashSet<String>,
    /// Identifiers used in the body but bound in neither `params` nor
    /// `locals` — the captured environment (over-approximated: free
    /// function and type names appear here too; consumers only probe
    /// membership of candidate RNG roots).
    pub captured: HashSet<String>,
    /// Token index of the opening `|`.
    pub start: usize,
    /// Token range `[start, end)` of the body (braced or bare expression).
    pub body: (usize, usize),
    /// 1-based line of the opening `|`.
    pub line: u32,
}

/// The parsed structure of one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every closure literal, in source order.
    pub closures: Vec<Closure>,
}

impl ItemTree {
    /// The innermost fn whose body contains token index `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= tok && tok < e))
            .min_by_key(|f| {
                let (s, e) = f.body.unwrap_or((0, usize::MAX));
                e - s
            })
    }
}

/// Index one past the `}` matching the `{` at `open` (or end of stream on
/// imbalance — never panics on malformed input).
pub fn matching_brace_end(file: &SourceFile, open: usize) -> usize {
    let toks = &file.lexed.tokens;
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Parse the item tree of one file.
pub fn parse(file: &SourceFile) -> ItemTree {
    let mut tree = ItemTree::default();
    collect_fns(file, &mut tree);
    collect_closures(file, &mut tree);
    tree
}

/// The `impl` context covering a token range, tracked as a stack during
/// the fn scan.
#[derive(Debug, Clone)]
struct ImplCtx {
    self_ty: Option<String>,
    trait_name: Option<String>,
    end: usize,
}

fn collect_fns(file: &SourceFile, tree: &mut ItemTree) {
    let toks = &file.lexed.tokens;
    let mut impls: Vec<ImplCtx> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        impls.retain(|c| c.end > i);
        match ident_at(file, i) {
            Some("impl") => {
                if let Some((ctx, body_open)) = parse_impl_header(file, i) {
                    let end = matching_brace_end(file, body_open);
                    impls.push(ImplCtx {
                        self_ty: ctx.0,
                        trait_name: ctx.1,
                        end,
                    });
                    i = body_open + 1;
                    continue;
                }
            }
            Some("fn") => {
                if let Some(name) = ident_at(file, i + 1) {
                    let (body, next) = parse_fn_body(file, i + 2);
                    let ctx = impls.last();
                    tree.fns.push(FnItem {
                        name: name.to_string(),
                        self_ty: ctx.and_then(|c| c.self_ty.clone()),
                        trait_name: ctx.and_then(|c| c.trait_name.clone()),
                        line: toks[i].line,
                        sig_start: i,
                        body,
                        in_test: file.test_mask.get(i).copied().unwrap_or(false),
                    });
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// `(self_ty, trait_name)` of an `impl` block.
type ImplContext = (Option<String>, Option<String>);

/// Parse `impl …Type… (for Type)? … {`, returning `((self_ty, trait), open_brace)`.
///
/// Angle-bracket depth is tracked so generic parameters never look like
/// path segments; `->` inside bounds (`Fn() -> R`) is skipped as a unit so
/// its `>` cannot unbalance the count.
fn parse_impl_header(file: &SourceFile, impl_tok: usize) -> Option<(ImplContext, usize)> {
    let toks = &file.lexed.tokens;
    let mut angle = 0i32;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut in_where = false;
    let mut i = impl_tok + 1;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('{') if angle <= 0 => {
                let (trait_name, self_ty) = if saw_for {
                    (before_for, after_for)
                } else {
                    (None, before_for)
                };
                return Some(((self_ty, trait_name), i));
            }
            TokenKind::Punct(';') => return None, // `impl Trait for T;` (marker) — no body
            TokenKind::Punct('<') => angle += 1,
            // `->` is skipped as a unit — only a bare `>` closes a generic.
            TokenKind::Punct('>') if punct_at(file, i.wrapping_sub(1)) != Some('-') => angle -= 1,
            TokenKind::Ident(s) if angle <= 0 => match s.as_str() {
                "for" => saw_for = true,
                "where" => in_where = true,
                name if !in_where => {
                    if saw_for {
                        // First path segment chain after `for`; keep the
                        // last segment (suffix of the path).
                        after_for = Some(name.to_string());
                    } else {
                        before_for = Some(name.to_string());
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    None
}

/// From just after `fn name`, find the body `{`..`}` range (or the `;` of
/// a bodyless declaration). Returns `(body, index to resume scanning at)`.
fn parse_fn_body(file: &SourceFile, mut i: usize) -> (Option<(usize, usize)>, usize) {
    let toks = &file.lexed.tokens;
    let mut angle = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') if punct_at(file, i.wrapping_sub(1)) != Some('-') => angle -= 1,
            TokenKind::Punct('{') if angle <= 0 => {
                let end = matching_brace_end(file, i);
                // Resume *inside* the body so nested fns are found too.
                return (Some((i, end)), i + 1);
            }
            TokenKind::Punct(';') if angle <= 0 => return (None, i + 1),
            _ => {}
        }
        i += 1;
    }
    (None, i)
}

/// Identifiers that are Rust keywords or binding modifiers — never
/// captured variables.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "if"
            | "else"
            | "for"
            | "while"
            | "loop"
            | "match"
            | "return"
            | "move"
            | "mut"
            | "ref"
            | "in"
            | "as"
            | "fn"
            | "struct"
            | "enum"
            | "impl"
            | "use"
            | "pub"
            | "mod"
            | "where"
            | "dyn"
            | "break"
            | "continue"
            | "true"
            | "false"
            | "const"
            | "static"
            | "unsafe"
            | "trait"
            | "type"
            | "crate"
            | "super"
    )
}

fn collect_closures(file: &SourceFile, tree: &mut ItemTree) {
    let toks = &file.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if punct_at(file, i) == Some('|') && is_closure_head(file, i) {
            if let Some(cl) = parse_closure(file, i) {
                let next = cl.body.1.max(i + 1);
                tree.closures.push(cl);
                // Do NOT jump past the body: nested closures inside it must
                // be collected too.
                i += 1;
                let _ = next;
                continue;
            }
        }
        i += 1;
    }
    // Fold nested closure params into the enclosing closures' local sets,
    // and compute captured sets.
    let nested: Vec<(usize, usize, HashSet<String>)> = tree
        .closures
        .iter()
        .map(|c| (c.body.0, c.body.1, c.params.clone()))
        .collect();
    for cl in &mut tree.closures {
        for (s, e, params) in &nested {
            if *s > cl.body.0 && *e <= cl.body.1 {
                cl.locals.extend(params.iter().cloned());
            }
        }
        cl.captured = used_idents(file, cl.body)
            .into_iter()
            .filter(|id| !cl.params.contains(id) && !cl.locals.contains(id) && !is_keyword(id))
            .collect();
    }
}

/// Is the `|` at `i` the head of a closure literal? We require the closure
/// position this tool cares about: an expression directly after `(`, `,`,
/// `=`, `{`, `;`, `=>`, `return` or `move` — which excludes bit-or and
/// almost all pattern `|`s (whose previous token is a pattern, not a
/// delimiter).
fn is_closure_head(file: &SourceFile, i: usize) -> bool {
    let mut j = i;
    if j > 0 && ident_at(file, j - 1) == Some("move") {
        j -= 1;
    }
    if j == 0 {
        return true;
    }
    match &file.lexed.tokens[j - 1].kind {
        TokenKind::Punct(c) => matches!(c, '(' | ',' | '=' | '{' | ';' | '>' | '&'),
        TokenKind::Ident(s) => matches!(s.as_str(), "return" | "else" | "in"),
        _ => false,
    }
}

fn parse_closure(file: &SourceFile, open_pipe: usize) -> Option<Closure> {
    let toks = &file.lexed.tokens;
    let line = toks[open_pipe].line;
    // `||` — empty parameter list.
    let (params, after_params) = if punct_at(file, open_pipe + 1) == Some('|') {
        (HashSet::new(), open_pipe + 2)
    } else {
        let mut params = HashSet::new();
        let mut depth = 0i32; // (), [] nesting inside patterns
        let mut angle = 0i32;
        let mut in_type = false;
        let mut i = open_pipe + 1;
        loop {
            match toks.get(i).map(|t| &t.kind) {
                None => return None,
                Some(TokenKind::Punct('|')) if depth == 0 && angle <= 0 => break,
                Some(TokenKind::Punct(c)) => match c {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '<' => angle += 1,
                    '>' if punct_at(file, i.wrapping_sub(1)) != Some('-') => angle -= 1,
                    ':' if depth == 0 => in_type = true,
                    ',' if depth == 0 && angle <= 0 => in_type = false,
                    _ => {}
                },
                Some(TokenKind::Ident(s)) if !in_type && !is_keyword(s) => {
                    params.insert(s.clone());
                }
                _ => {}
            }
            i += 1;
        }
        (params, i + 1)
    };

    // Body: braced block, or a bare expression running to the `,` / `)` /
    // `;` / `}` that closes it.
    let body = if punct_at(file, after_params) == Some('{') {
        (after_params, matching_brace_end(file, after_params))
    } else {
        let mut depth = 0i32;
        let mut i = after_params;
        while i < toks.len() {
            match toks[i].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokenKind::Punct(',') | TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        (after_params, i)
    };

    let locals = bound_idents(file, body);
    Some(Closure {
        params,
        locals,
        captured: HashSet::new(), // filled in by collect_closures
        start: open_pipe,
        body,
        line,
    })
}

/// Names bound inside a body range by `let` and `for` patterns.
fn bound_idents(file: &SourceFile, (start, end): (usize, usize)) -> HashSet<String> {
    let toks = &file.lexed.tokens;
    let mut out = HashSet::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        match ident_at(file, i) {
            Some("let") => {
                // Pattern runs to `=` or `;` at this level.
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < end.min(toks.len()) {
                    match &toks[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                        TokenKind::Punct('=') | TokenKind::Punct(';') if depth <= 0 => break,
                        TokenKind::Punct(':') if depth == 0 => {
                            // Skip the type ascription up to `=` / `;`.
                            while j < end.min(toks.len())
                                && !matches!(
                                    toks[j].kind,
                                    TokenKind::Punct('=') | TokenKind::Punct(';')
                                )
                            {
                                j += 1;
                            }
                            break;
                        }
                        TokenKind::Ident(s) if !is_keyword(s) => {
                            out.insert(s.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            Some("for") => {
                // `for <pat> in …` — bind the pattern idents.
                let mut j = i + 1;
                while j < end.min(toks.len()) && ident_at(file, j) != Some("in") {
                    if let Some(s) = ident_at(file, j) {
                        if !is_keyword(s) {
                            out.insert(s.to_string());
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Identifiers *used* in a range, excluding path tails (`a::b` keeps `a`),
/// method/field names after `.`, and macro names.
fn used_idents(file: &SourceFile, (start, end): (usize, usize)) -> HashSet<String> {
    let toks = &file.lexed.tokens;
    let mut out = HashSet::new();
    for (i, tok) in toks
        .iter()
        .enumerate()
        .take(end.min(toks.len()))
        .skip(start)
    {
        let TokenKind::Ident(s) = &tok.kind else {
            continue;
        };
        // `.field` / `.method` — not a capture of `s`.
        if i > 0 && punct_at(file, i - 1) == Some('.') {
            continue;
        }
        // `path::s` — the head of the path is the capture, not the tail.
        if i >= 2 && punct_at(file, i - 1) == Some(':') && punct_at(file, i - 2) == Some(':') {
            continue;
        }
        // `name!` — macro.
        if punct_at(file, i + 1) == Some('!') {
            continue;
        }
        out.insert(s.clone());
    }
    out
}

/// Walk left from a method-name token across its receiver chain
/// (`a.b(x).c::<T>.NAME`) to the chain's head identifier. Returns the head
/// ident and whether the head is itself a call (`head(…)…NAME`).
pub fn receiver_root(file: &SourceFile, method_tok: usize) -> Option<(String, bool)> {
    let toks = &file.lexed.tokens;
    // token before the method name must be `.`
    if method_tok == 0 || punct_at(file, method_tok - 1) != Some('.') {
        return None;
    }
    let mut i = method_tok - 1; // at the `.`
    let mut head: Option<(String, bool)> = None;
    loop {
        if i == 0 {
            break;
        }
        i -= 1; // token left of the last consumed one
        match &toks[i].kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                // Balanced skip of a call/index argument list.
                let close = match toks[i].kind {
                    TokenKind::Punct(')') => ('(', ')'),
                    _ => ('[', ']'),
                };
                let mut depth = 0i32;
                loop {
                    match &toks[i].kind {
                        TokenKind::Punct(c) if *c == close.1 => depth += 1,
                        TokenKind::Punct(c) if *c == close.0 => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == 0 {
                        return head;
                    }
                    i -= 1;
                }
                // A call result: `ident( … )` — remember, keep walking.
                if i > 0 {
                    if let Some(TokenKind::Ident(s)) = toks.get(i - 1).map(|t| &t.kind) {
                        head = Some((s.clone(), true));
                        i -= 1;
                        continue;
                    }
                }
                return head;
            }
            TokenKind::Ident(s) => {
                head = Some((s.clone(), false));
                // Continue only if the chain extends further left.
                if i >= 1
                    && (punct_at(file, i - 1) == Some('.')
                        || (i >= 2
                            && punct_at(file, i - 1) == Some(':')
                            && punct_at(file, i - 2) == Some(':')))
                {
                    if punct_at(file, i - 1) == Some('.') {
                        i -= 1; // consume the `.` and keep walking
                        continue;
                    }
                    // `::` path prefix — step over both colons.
                    i -= 2;
                    continue;
                }
                break;
            }
            TokenKind::Punct('>') => {
                // turbofish tail on a previous segment: skip to `<`
                let mut depth = 0i32;
                loop {
                    match &toks[i].kind {
                        TokenKind::Punct('>') => depth += 1,
                        TokenKind::Punct('<') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == 0 {
                        return head;
                    }
                    i -= 1;
                }
            }
            TokenKind::Punct('.') | TokenKind::Punct(':') => continue,
            _ => break,
        }
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree_of(src: &str) -> (SourceFile, ItemTree) {
        let file = SourceFile::new("crates/core/src/fixture.rs", lex(src));
        let tree = parse(&file);
        (file, tree)
    }

    #[test]
    fn fns_get_impl_context() {
        let src = "
            fn free() {}
            impl LaplaceMechanism {
                pub fn release(&self) -> f64 { 0.0 }
            }
            impl Mechanism for Identity {
                fn sanitize(&self) {}
            }
            impl<'a, T: Fn(usize) -> usize> Wrapper<'a, T> {
                fn call(&self) {}
            }
        ";
        let (_, tree) = tree_of(src);
        let names: Vec<String> = tree.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            vec![
                "free",
                "LaplaceMechanism::release",
                "Identity::sanitize",
                "Wrapper::call"
            ]
        );
        let san = &tree.fns[2];
        assert_eq!(san.trait_name.as_deref(), Some("Mechanism"));
    }

    #[test]
    fn nested_fns_and_bodies_are_ranged() {
        let src = "fn outer() { fn inner() { x(); } inner(); }";
        let (_, tree) = tree_of(src);
        assert_eq!(tree.fns.len(), 2);
        let outer = &tree.fns[0];
        let inner = &tree.fns[1];
        let (os, oe) = outer.body.expect("outer body");
        let (is_, ie) = inner.body.expect("inner body");
        assert!(os < is_ && ie <= oe, "inner nested in outer");
        assert_eq!(
            tree.enclosing_fn(is_ + 1).map(|f| f.name.as_str()),
            Some("inner")
        );
    }

    #[test]
    fn closures_capture_and_bind() {
        let src = "
            fn f(xs: &[f64], rng: i32) {
                let scale = 2.0;
                xs.iter().map(|&x| {
                    let local = x * scale;
                    helper(local, rng)
                });
            }
        ";
        let (_, tree) = tree_of(src);
        assert_eq!(tree.closures.len(), 1);
        let cl = &tree.closures[0];
        assert!(cl.params.contains("x"));
        assert!(cl.locals.contains("local"));
        assert!(cl.captured.contains("scale"));
        assert!(cl.captured.contains("rng"));
        assert!(
            cl.captured.contains("helper"),
            "free fns over-approximate as captured"
        );
        assert!(!cl.captured.contains("x"));
        assert!(!cl.captured.contains("local"));
    }

    #[test]
    fn nested_closure_params_are_locals_of_the_outer_closure() {
        let src = "fn f(xs: &[u32]) { xs.iter().map(|x| (0..x).map(|i| i + 1)); }";
        let (_, tree) = tree_of(src);
        let outer = &tree.closures[0];
        assert!(outer.locals.contains("i"));
        assert!(!outer.captured.contains("i"));
    }

    #[test]
    fn pattern_params_destructure() {
        let src = "fn f(jobs: Vec<(usize, u64)>) { jobs.iter().map(|&(i, mut child)| i); }";
        let (_, tree) = tree_of(src);
        let cl = &tree.closures[0];
        assert!(cl.params.contains("i"));
        assert!(cl.params.contains("child"));
        assert!(!cl.params.contains("mut"));
    }

    #[test]
    fn bit_or_is_not_a_closure() {
        let src = "fn f(a: u32, b: u32) -> u32 { a | b }";
        let (_, tree) = tree_of(src);
        assert!(tree.closures.is_empty(), "{:?}", tree.closures);
    }

    #[test]
    fn receiver_roots_walk_chains() {
        let src = "fn f() { rng.gen(); self.rng.gen(); lock(&shared).gen(); a.b(x).gen(); }";
        let (file, _) = tree_of(src);
        let gens: Vec<usize> = file
            .lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Ident("gen".into()))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(gens.len(), 4);
        assert_eq!(receiver_root(&file, gens[0]), Some(("rng".into(), false)));
        assert_eq!(receiver_root(&file, gens[1]), Some(("self".into(), false)));
        assert_eq!(receiver_root(&file, gens[2]), Some(("lock".into(), true)));
        assert_eq!(receiver_root(&file, gens[3]), Some(("a".into(), false)));
    }
}
