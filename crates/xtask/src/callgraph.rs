//! A workspace-wide call graph over the item trees of [`crate::syntax`].
//!
//! Name resolution is *suffix-qualified*: a call site `Type::name(…)`
//! resolves to fns whose `impl` type matches `Type`; a bare or method call
//! `name(…)` / `.name(…)` resolves to every fn named `name`. There is no
//! trait dispatch, no module hierarchy and no glob-import tracking — in a
//! single workspace with unique-enough fn names this over-approximates the
//! real graph, which is the safe direction for the reachability rule
//! (XT09): extra edges can only produce findings, never hide them.
//! Fns inside `#[cfg(test)]` / `#[test]` code are excluded as both sources
//! and targets; test harnesses are not part of the release path.

use std::collections::HashMap;

use crate::rules::{ident_at, punct_at, SourceFile};
use crate::syntax::ItemTree;

/// Method/function names that record a budget spend on the accountant.
pub const SPEND_FNS: &[&str] = &[
    "spend_sequential",
    "spend_parallel",
    "spend_sequential_with",
    "spend_parallel_with",
];

/// Does `name` look like a raw RNG draw? Covers `gen`, `gen_*`,
/// `sample`, `sample_*` and the `*_sample` free-fn convention
/// (`laplace_sample`). `fill` and `fork` are deliberately absent: they
/// move seed material, they do not consume budgeted randomness.
pub fn is_draw_name(name: &str) -> bool {
    name == "gen"
        || name == "sample"
        || name.starts_with("gen_")
        || name.starts_with("sample_")
        || name.ends_with("_sample")
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (method or fn), e.g. `release`.
    pub name: String,
    /// For path calls `Seg::name(…)`, the segment before the name.
    pub qualifier: Option<String>,
    /// Token index of the name — used for intra-fn spend/draw ordering.
    pub token: usize,
    /// 1-based source line.
    pub line: u32,
    /// Resolved callee node indices (possibly several; possibly none for
    /// std/extern calls).
    pub targets: Vec<usize>,
}

/// One fn in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the defining file in the `files` slice the graph was built
    /// from.
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub file_path: String,
    /// Bare fn name.
    pub name: String,
    /// `Type::name` for methods, `name` for free fns.
    pub qualified: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call sites in body token order.
    pub calls: Vec<CallSite>,
    /// Token index of the first `spend_*` accountant call in this body.
    pub first_spend: Option<usize>,
    /// True when the body performs a raw RNG draw itself (`rng.gen()`,
    /// `.sample_noise(…)` receiver-side draws are calls, not this flag).
    pub direct_draw: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test fns.
    pub nodes: Vec<FnNode>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// All node indices whose bare name is `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Build the graph from the lexed files and their parsed item trees
/// (parallel slices; `trees[i]` belongs to `files[i]`).
pub fn build(files: &[SourceFile], trees: &[ItemTree]) -> CallGraph {
    let mut graph = CallGraph::default();

    // Pass 1: nodes.
    for (fi, (file, tree)) in files.iter().zip(trees).enumerate() {
        for f in &tree.fns {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let idx = graph.nodes.len();
            graph.by_name.entry(f.name.clone()).or_default().push(idx);
            graph.nodes.push(FnNode {
                file: fi,
                file_path: file.rel_path.clone(),
                name: f.name.clone(),
                qualified: f.qualified(),
                line: f.line,
                calls: Vec::new(),
                first_spend: None,
                direct_draw: false,
            });
        }
    }

    // Pass 2: edges. Walk each node's body; a token belongs to this node
    // only if this fn is the *innermost* one containing it (nested fns own
    // their own tokens).
    let mut node_i = 0usize;
    for (fi, (file, tree)) in files.iter().zip(trees).enumerate() {
        let _ = fi;
        for f in &tree.fns {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let (start, end) = f.body.unwrap_or((0, 0));
            let node = &mut graph.nodes[node_i];
            for i in start + 1..end.saturating_sub(1).min(file.lexed.tokens.len()) {
                if tree
                    .enclosing_fn(i)
                    .is_none_or(|inner| inner.sig_start != f.sig_start)
                {
                    continue;
                }
                let Some(site) = call_site_at(file, i) else {
                    continue;
                };
                if SPEND_FNS.contains(&site.name.as_str()) {
                    node.first_spend = Some(node.first_spend.map_or(i, |p| p.min(i)));
                }
                if is_method_draw(file, i) {
                    node.direct_draw = true;
                }
                node.calls.push(site);
            }
            node_i += 1;
        }
    }

    // Pass 3: resolution.
    let resolved: Vec<Vec<Vec<usize>>> = graph
        .nodes
        .iter()
        .map(|n| n.calls.iter().map(|c| resolve(&graph, c)).collect())
        .collect();
    for (n, targets) in graph.nodes.iter_mut().zip(resolved) {
        for (c, t) in n.calls.iter_mut().zip(targets) {
            c.targets = t;
        }
    }
    graph
}

/// A raw draw performed directly on a receiver: `.gen`, `.sample_noise`, …
fn is_method_draw(file: &SourceFile, i: usize) -> bool {
    i > 0 && punct_at(file, i - 1) == Some('.') && ident_at(file, i).is_some_and(is_draw_name)
}

/// Classify token `i` as a call site.
///
/// Method calls are any `.name` (field accesses over-approximate into
/// harmless unresolvable sites); free/path calls require `name(` or a
/// `name::<…>(` turbofish. `fn name` definitions and `name!` macros are
/// excluded.
fn call_site_at(file: &SourceFile, i: usize) -> Option<CallSite> {
    let name = ident_at(file, i)?;
    let line = file.lexed.tokens[i].line;
    let prev = i.checked_sub(1).and_then(|j| punct_at(file, j));
    if prev == Some('.') {
        return Some(CallSite {
            name: name.to_string(),
            qualifier: None,
            token: i,
            line,
            targets: Vec::new(),
        });
    }
    if i > 0 && ident_at(file, i - 1) == Some("fn") {
        return None;
    }
    if punct_at(file, i + 1) == Some('!') {
        return None;
    }
    let called = punct_at(file, i + 1) == Some('(')
        || (punct_at(file, i + 1) == Some(':')
            && punct_at(file, i + 2) == Some(':')
            && punct_at(file, i + 3) == Some('<'));
    if !called {
        return None;
    }
    // `Seg::name(…)` — capture the qualifying segment.
    let qualifier =
        if i >= 3 && punct_at(file, i - 1) == Some(':') && punct_at(file, i - 2) == Some(':') {
            ident_at(file, i - 3).map(str::to_string)
        } else {
            None
        };
    Some(CallSite {
        name: name.to_string(),
        qualifier,
        token: i,
        line,
        targets: Vec::new(),
    })
}

/// Suffix-qualified resolution: prefer impl-type matches on the
/// qualifier, fall back to every fn with the bare name.
fn resolve(graph: &CallGraph, call: &CallSite) -> Vec<usize> {
    let cands = graph.named(&call.name);
    if let Some(q) = &call.qualifier {
        let typed: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| {
                graph.nodes[n]
                    .qualified
                    .strip_suffix(&format!("::{}", call.name))
                    == Some(q.as_str())
            })
            .collect();
        if !typed.is_empty() {
            return typed;
        }
    }
    cands.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::new(*p, lex(s)))
            .collect();
        let trees: Vec<ItemTree> = files.iter().map(syntax::parse).collect();
        let graph = build(&files, &trees);
        (files, graph)
    }

    fn node<'g>(g: &'g CallGraph, q: &str) -> &'g FnNode {
        g.nodes
            .iter()
            .find(|n| n.qualified == q)
            .unwrap_or_else(|| panic!("no node {q}"))
    }

    #[test]
    fn edges_resolve_across_files() {
        let (_, g) = graph_of(&[
            (
                "crates/core/src/a.rs",
                "pub fn entry(m: M, rng: &mut R) { helper(); m.release(1.0, rng); }
                 fn helper() {}",
            ),
            (
                "crates/dp/src/m.rs",
                "impl M { pub fn release(&self, v: f64, rng: &mut R) -> f64 { v + rng.gen::<f64>() } }",
            ),
        ]);
        let entry = node(&g, "entry");
        let names: Vec<&str> = entry.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["helper", "release"]);
        let release_call = &entry.calls[1];
        assert_eq!(release_call.targets.len(), 1);
        assert_eq!(g.nodes[release_call.targets[0]].qualified, "M::release");
        assert!(node(&g, "M::release").direct_draw);
        assert!(!entry.direct_draw);
    }

    #[test]
    fn qualifier_narrows_resolution() {
        let (_, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "impl A { fn make() {} }
             impl B { fn make() {} }
             fn f() { A::make(); }",
        )]);
        let f = node(&g, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].targets.len(), 1);
        assert_eq!(g.nodes[f.calls[0].targets[0]].qualified, "A::make");
    }

    #[test]
    fn method_calls_fan_out_to_all_impls() {
        let (_, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "impl A { fn go(&self) {} }
             impl B { fn go(&self) {} }
             fn f(x: A) { x.go(); }",
        )]);
        let f = node(&g, "f");
        assert_eq!(f.calls[0].targets.len(), 2);
    }

    #[test]
    fn spend_position_and_test_exclusion() {
        let (_, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn f(acc: &mut A) -> Result<(), E> {
                 before();
                 acc.spend_parallel_with(a, b, c, d)?;
                 after();
                 Ok(())
             }
             #[cfg(test)]
             mod tests { fn helper() { f(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1, "test fns excluded");
        let f = node(&g, "f");
        let spend = f.first_spend.expect("spend found");
        let before = f.calls.iter().find(|c| c.name == "before").expect("before");
        let after = f.calls.iter().find(|c| c.name == "after").expect("after");
        assert!(before.token < spend && spend < after.token);
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let (_, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn f() { println!(\"x\"); let v = vec![1]; }",
        )]);
        assert!(node(&g, "f").calls.is_empty());
    }

    #[test]
    fn turbofish_free_call_is_an_edge() {
        let (_, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn target<T>() {} fn f() { target::<u32>(); }",
        )]);
        let f = node(&g, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name, "target");
        assert_eq!(f.calls[0].targets.len(), 1);
    }
}
