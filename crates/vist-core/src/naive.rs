//! [`NaiveIndex`] (paper §3.2, Algorithm 1): subsequence matching by direct
//! suffix-tree traversal.
//!
//! The naive method keeps the trie in memory and, for every query element,
//! walks **all** descendants of the current node looking for D-Ancestorship
//! matches — "extremely costly since we need to traverse a large portion of
//! the subtree for each match". It exists as the paper's baseline and as a
//! semantics oracle for RIST/ViST (all three must return identical results).

use std::collections::BTreeSet;

use vist_query::{parse_query, translate, Pattern, QueryElem, TranslateOptions};
use vist_seq::{document_to_sequence, PathSym, Prefix, SiblingOrder, Sym, Symbol, SymbolTable};
use vist_xml::Document;

use crate::error::Result;
use crate::store::DocId;
use crate::trie::Trie;
use crate::vist::QueryOptions;

/// The in-memory naive suffix-tree index.
pub struct NaiveIndex {
    trie: Trie,
    table: SymbolTable,
    order: SiblingOrder,
    next_doc: DocId,
}

impl Default for NaiveIndex {
    fn default() -> Self {
        Self::new(SiblingOrder::Lexicographic)
    }
}

impl NaiveIndex {
    /// An empty naive index.
    #[must_use]
    pub fn new(order: SiblingOrder) -> Self {
        NaiveIndex {
            trie: Trie::new(),
            table: SymbolTable::new(),
            order,
            next_doc: 0,
        }
    }

    /// Insert a document, returning its id.
    pub fn insert_document(&mut self, doc: &Document) -> DocId {
        let seq = document_to_sequence(doc, &mut self.table, &self.order);
        let id = self.next_doc;
        self.next_doc += 1;
        self.trie.insert_sequence(&seq, id);
        id
    }

    /// Number of trie nodes (root included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.trie.len()
    }

    /// Parse and run a query with Algorithm 1.
    pub fn query(&mut self, expr: &str, opts: &QueryOptions) -> Result<Vec<DocId>> {
        let pattern = parse_query(expr)?.to_pattern();
        self.query_pattern(&pattern, opts)
    }

    /// Run a pre-parsed pattern with Algorithm 1. The options mirror
    /// [`VistIndex::query_pattern`](crate::VistIndex::query_pattern)'s;
    /// Algorithm 1 reads none of them.
    pub fn query_pattern(&mut self, pattern: &Pattern, _opts: &QueryOptions) -> Result<Vec<DocId>> {
        let translation = translate(
            pattern,
            &mut self.table,
            &TranslateOptions {
                order: self.order.clone(),
                ..TranslateOptions::default()
            },
        );
        let mut out: BTreeSet<DocId> = BTreeSet::new();
        for qs in &translation.sequences {
            if qs.elems.is_empty() {
                // An all-wildcard query (e.g. `/*`) matches every document.
                let mut docs = Vec::new();
                self.trie.docs_under(0, &mut docs);
                out.extend(docs);
                continue;
            }
            let mut paths = vec![Vec::new(); qs.elems.len()];
            naive_search(&self.trie, 0, &qs.elems, 0, &mut paths, &mut out);
        }
        Ok(out.into_iter().collect())
    }
}

/// Algorithm 1: `NaiveSearch(n, i)` — for each descendant `c` of `n`
/// (S-Ancestorship by traversal), if `c` matches `q_i` (D-Ancestorship by
/// symbol + prefix), recurse on `(c, i+1)`.
fn naive_search(
    trie: &Trie,
    node: usize,
    elems: &[QueryElem],
    qi: usize,
    paths: &mut Vec<Vec<Symbol>>,
    out: &mut BTreeSet<DocId>,
) {
    if qi == elems.len() {
        let mut docs = Vec::new();
        trie.docs_under(node, &mut docs);
        out.extend(docs);
        return;
    }
    let qe = &elems[qi];
    let mut pattern: Vec<PathSym> = match qe.parent {
        Some(p) => paths[p].iter().map(|&s| PathSym::Tag(s)).collect(),
        None => Vec::new(),
    };
    pattern.extend_from_slice(&qe.steps_after_parent);
    let pattern = Prefix(pattern);

    // Walk every descendant of `node` (this is the expensive part the paper
    // replaces with label range queries).
    let mut stack: Vec<usize> = trie.nodes[node].child_order.clone();
    while let Some(c) = stack.pop() {
        stack.extend_from_slice(&trie.nodes[c].child_order);
        let Some((sym, prefix)) = &trie.nodes[c].elem else {
            continue;
        };
        if *sym != qe.sym || !pattern.matches(prefix) {
            continue;
        }
        paths[qi] = prefix.clone();
        if let Sym::Tag(t) = sym {
            paths[qi].push(*t);
        }
        naive_search(trie, c, elems, qi + 1, paths, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_xml::parse;

    fn filled() -> NaiveIndex {
        let mut idx = NaiveIndex::default();
        for xml in [
            "<p><s><l>boston</l></s><b><l>newyork</l></b></p>",
            "<p><s><l>tokyo</l></s><b><l>newyork</l></b></p>",
            "<p><s><l>boston</l></s><b><l>paris</l></b></p>",
        ] {
            idx.insert_document(&parse(xml).unwrap());
        }
        idx
    }

    #[test]
    fn naive_finds_paths_branches_wildcards() {
        let mut idx = filled();
        let opts = QueryOptions::default();
        assert_eq!(
            idx.query("/p/s/l[text='boston']", &opts).unwrap(),
            vec![0, 2]
        );
        assert_eq!(
            idx.query("/p[s/l='boston']/b[l='newyork']", &opts).unwrap(),
            vec![0]
        );
        assert_eq!(idx.query("/p/*[l='newyork']", &opts).unwrap(), vec![0, 1]);
        assert_eq!(idx.query("//l[text='paris']", &opts).unwrap(), vec![2]);
        assert_eq!(idx.query("/p//l", &opts).unwrap(), vec![0, 1, 2]);
        assert!(idx.query("/p/s/l[text='mars']", &opts).unwrap().is_empty());
    }

    #[test]
    fn naive_agrees_with_vist_on_table_queries() {
        let xmls = [
            "<site><reg><item location=\"US\"><mail><date>d1</date></mail></item></reg></site>",
            "<site><reg><item location=\"EU\"><mail><date>d2</date></mail></item></reg></site>",
        ];
        let mut naive = NaiveIndex::default();
        let vist = crate::VistIndex::in_memory(crate::IndexOptions::default()).unwrap();
        for x in xmls {
            naive.insert_document(&parse(x).unwrap());
            vist.insert_xml(x).unwrap();
        }
        for q in [
            "/site//item[location='US']/mail/date[text='d1']",
            "/site//item/mail",
            "//date",
        ] {
            let a = naive.query(q, &QueryOptions::default()).unwrap();
            let b = vist.query(q, &QueryOptions::default()).unwrap().doc_ids;
            assert_eq!(a, b, "{q}");
        }
    }
}
