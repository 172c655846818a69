//! Workspace symbol table and conservative call graph.
//!
//! The interprocedural rules need to answer one question: *starting
//! from a set of entry functions, which functions can run?* Without
//! type inference, the resolver over-approximates — every candidate a
//! call syntactically might mean becomes an edge — so reachability
//! errs toward reporting. Edges come from four syntactic forms:
//!
//! * **free calls** `name(…)` — resolved to same-crate functions of
//!   that name when any exist, otherwise to every workspace function
//!   of that name (cross-crate imports);
//! * **qualified calls** `Type::name(…)` — resolved to methods of
//!   `Type` when the qualifier names a known `impl` target (with
//!   `Self::name(…)` mapped through the enclosing impl); lowercase
//!   qualifiers (module paths, `math::dot`) fall back to free-call
//!   resolution of `name`, while unknown *uppercase* qualifiers are
//!   external types (`Vec::new`) and produce no edge;
//! * **method calls** `recv.name(…)` — resolved to *every* method of
//!   that name in the workspace, which is what makes trait-object and
//!   generic dispatch conservative: `dyn Kernel` calling `.run()`
//!   edges to each `impl Kernel for …` block's `run`;
//! * **function references** `Type::name` passed as values (closure
//!   initialisers like `RayScratch::new`) — resolved like qualified
//!   calls, since the callee runs even though no paren follows.
//!
//! Test functions are excluded entirely; macro invocations (`name!`)
//! never match because the `!` sits between the identifier and the
//! paren. Node order, edge order, and the BFS below are all fully
//! deterministic: nodes are indexed in (file, source-order) and every
//! adjacency list is sorted.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::parse::{FnItem, ParsedFile, NON_CALL_KEYWORDS};
use crate::scope::crate_of;
use crate::SourceFile;

/// One function in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into the file list passed to [`CallGraph::build`].
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub fn_index: usize,
    /// Crate the file belongs to (`"nerf"`, `"par"`, …).
    pub krate: String,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Non-test functions, ordered by (file, declaration order).
    pub nodes: Vec<FnNode>,
    /// Sorted, deduplicated callee lists, parallel to `nodes`.
    pub callees: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over every parsed file.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut graph = CallGraph::default();
        // Node table: every non-test fn, in deterministic order.
        for (file_idx, file) in files.iter().enumerate() {
            let krate = crate_of(&file.path).unwrap_or("").to_string();
            for (fn_idx, f) in file.parsed.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                graph.nodes.push(FnNode { file: file_idx, fn_index: fn_idx, krate: krate.clone() });
            }
        }

        // Resolution indices.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_crate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, node) in graph.nodes.iter().enumerate() {
            let item = fn_item(files, node);
            by_name.entry(&item.name).or_default().push(id);
            by_crate_name.entry((&node.krate, &item.name)).or_default().push(id);
            if let Some(self_type) = item.self_type.as_deref() {
                methods_by_name.entry(&item.name).or_default().push(id);
                by_type_method.entry((self_type, &item.name)).or_default().push(id);
            }
        }

        // Edges: scan each node's direct body span (nested fn items
        // subtracted — they are their own nodes).
        for id in 0..graph.nodes.len() {
            let node = &graph.nodes[id];
            let file = &files[node.file];
            let item = fn_item(files, node);
            let toks = &file.lexed.tokens;
            let mut edges: Vec<usize> = Vec::new();
            for (lo, hi) in direct_spans(&file.parsed, node.fn_index) {
                for i in lo..hi {
                    let t = &toks[i];
                    if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                        continue;
                    }
                    let name = t.text.as_str();
                    let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
                    let called = toks.get(i + 1).is_some_and(|n| n.text == "(");
                    let qualified = prev == ":"
                        && i >= 3
                        && toks[i - 2].text == ":"
                        && toks[i - 3].kind == TokenKind::Ident;
                    if qualified {
                        // `Qual::name(…)` or a fn reference `Qual::name`.
                        let mut qual = toks[i - 3].text.as_str();
                        if qual == "Self" {
                            qual = item.self_type.as_deref().unwrap_or("Self");
                        }
                        if let Some(ids) = by_type_method.get(&(qual, name)) {
                            edges.extend(ids);
                        } else if called && qual.chars().next().is_some_and(|c| !c.is_uppercase()) {
                            // Module-qualified call (`math::dot(…)`):
                            // resolve by name. An *uppercase* qualifier
                            // that names no workspace type is an
                            // external type (`Vec::new`, `String::from`)
                            // — edging those to same-named workspace
                            // fns would drag every `new` into every
                            // reachability set.
                            resolve_free(&by_crate_name, &by_name, &node.krate, name, &mut edges);
                        }
                    } else if called && prev == "." {
                        if let Some(ids) = methods_by_name.get(name) {
                            edges.extend(ids);
                        }
                    } else if called {
                        resolve_free(&by_crate_name, &by_name, &node.krate, name, &mut edges);
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
            graph.callees.push(edges);
        }
        graph
    }

    /// Deterministic breadth-first reachability from `entries`
    /// (node ids, pre-sorted by the caller or naturally ordered).
    /// Returns a parent map: `parents[n] = Some(n)` for entries,
    /// `Some(p)` for nodes first reached from `p`, `None` when
    /// unreachable.
    pub fn reachable_from(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parents: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &e in entries {
            if parents[e].is_none() {
                parents[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &callee in &self.callees[n] {
                if parents[callee].is_none() {
                    parents[callee] = Some(n);
                    queue.push_back(callee);
                }
            }
        }
        parents
    }

    /// The entry-to-`node` chain recorded by
    /// [`reachable_from`](Self::reachable_from), rendered as
    /// `entry → … → node` display names.
    pub fn path_string(
        &self,
        files: &[SourceFile],
        parents: &[Option<usize>],
        node: usize,
    ) -> String {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(parent) = parents[cur] {
            if parent == cur {
                break;
            }
            chain.push(parent);
            cur = parent;
        }
        chain.reverse();
        chain.iter().map(|&n| self.display_name(files, n)).collect::<Vec<_>>().join(" → ")
    }

    /// `crate::Type::name` display form of a node.
    pub fn display_name(&self, files: &[SourceFile], node: usize) -> String {
        let n = &self.nodes[node];
        let item = fn_item(files, n);
        match item.self_type.as_deref() {
            Some(t) => format!("{}::{}::{}", n.krate, t, item.name),
            None => format!("{}::{}", n.krate, item.name),
        }
    }
}

/// The parsed item behind a node.
pub fn fn_item<'a>(files: &'a [SourceFile], node: &FnNode) -> &'a FnItem {
    &files[node.file].parsed.fns[node.fn_index]
}

fn resolve_free(
    by_crate_name: &BTreeMap<(&str, &str), Vec<usize>>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    krate: &str,
    name: &str,
    edges: &mut Vec<usize>,
) {
    if let Some(ids) = by_crate_name.get(&(krate, name)) {
        edges.extend(ids);
    } else if let Some(ids) = by_name.get(name) {
        edges.extend(ids);
    }
}

/// Token sub-ranges of fn `fi`'s body that belong to it *directly* —
/// the body span minus every nested fn item's span (nested fns are
/// separate graph nodes). Empty for body-less declarations.
pub fn direct_spans(parsed: &ParsedFile, fi: usize) -> Vec<(usize, usize)> {
    let Some((open, close)) = parsed.fns[fi].body else { return Vec::new() };
    let mut holes: Vec<(usize, usize)> = parsed
        .fns
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != fi)
        .filter_map(|(_, f)| f.body)
        .filter(|&(o, c)| o > open && c < close)
        .collect();
    holes.sort_unstable();
    let mut spans = Vec::new();
    let mut cursor = open + 1;
    for (o, c) in holes {
        if o > cursor {
            spans.push((cursor, o));
        }
        cursor = cursor.max(c + 1);
    }
    if close > cursor {
        spans.push((cursor, close));
    }
    spans
}
