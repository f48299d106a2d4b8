//! The suffix-tree-like trie of structure-encoded sequences (paper Figure 5).
//!
//! Every document's whole sequence is inserted from the root, sharing
//! prefixes with previously inserted sequences; a document's id is attached
//! to the node its last element reaches. This structure *is* the "suffix
//! tree" of the paper's naive algorithm; a segment build labels its own
//! copy of it (`segment.rs`), and ViST never materializes it.

use std::collections::HashMap;

use vist_seq::{Sequence, Sym, Symbol};

use crate::store::DocId;

/// Identity of a trie node's element: `(symbol, concrete prefix)`.
pub type ElemKey = (Sym, Vec<Symbol>);

/// One trie node.
#[derive(Debug, Clone)]
pub struct TrieNode {
    /// The element this node represents (`None` for the root).
    pub elem: Option<ElemKey>,
    /// Children, keyed by element; insertion order retained separately for
    /// deterministic traversal.
    pub children: HashMap<ElemKey, usize>,
    /// Child node indices in insertion order.
    pub child_order: Vec<usize>,
    /// Documents whose sequences end at this node.
    pub docs: Vec<DocId>,
}

/// Trie of structure-encoded sequences.
#[derive(Debug, Clone)]
pub struct Trie {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<TrieNode>,
}

impl Default for Trie {
    fn default() -> Self {
        Trie::new()
    }
}

impl Trie {
    /// An empty trie (root only).
    #[must_use]
    pub fn new() -> Self {
        Trie {
            nodes: vec![TrieNode {
                elem: None,
                children: HashMap::new(),
                child_order: Vec::new(),
                docs: Vec::new(),
            }],
        }
    }

    /// Number of nodes, including the root.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when only the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Insert a document's sequence, attaching `doc` at the final node.
    ///
    /// # Panics
    /// Panics if the sequence contains wildcard prefixes (data sequences are
    /// always concrete).
    pub fn insert_sequence(&mut self, seq: &Sequence, doc: DocId) {
        let mut cur = 0usize;
        for elem in seq.iter() {
            let key: ElemKey = (
                elem.sym,
                elem.prefix
                    .as_concrete()
                    .expect("data sequences have concrete prefixes"),
            );
            cur = match self.nodes[cur].children.get(&key) {
                Some(&c) => c,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(TrieNode {
                        elem: Some(key.clone()),
                        children: HashMap::new(),
                        child_order: Vec::new(),
                        docs: Vec::new(),
                    });
                    self.nodes[cur].children.insert(key, idx);
                    self.nodes[cur].child_order.push(idx);
                    idx
                }
            };
        }
        self.nodes[cur].docs.push(doc);
    }

    /// All document ids attached to `node` or any of its descendants.
    pub fn docs_under(&self, node: usize, out: &mut Vec<DocId>) {
        out.extend_from_slice(&self.nodes[node].docs);
        for &c in &self.nodes[node].child_order {
            self.docs_under(c, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};
    use vist_xml::parse;

    fn seq(xml: &str, table: &mut SymbolTable) -> Sequence {
        document_to_sequence(&parse(xml).unwrap(), table, &SiblingOrder::Lexicographic)
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut table = SymbolTable::new();
        let s1 = seq("<p><s><n>dell</n></s></p>", &mut table);
        let s2 = seq("<p><s><n>ibm</n></s></p>", &mut table);
        let mut trie = Trie::new();
        trie.insert_sequence(&s1, 1);
        trie.insert_sequence(&s2, 2);
        // Shared: root + (p,)(s,p)(n,ps); distinct: the two values.
        assert_eq!(trie.len(), 1 + 3 + 2);
        // Same sequence again: no new nodes, doc id recorded.
        trie.insert_sequence(&s1, 3);
        assert_eq!(trie.len(), 6);
        let mut docs = Vec::new();
        trie.docs_under(0, &mut docs);
        docs.sort_unstable();
        assert_eq!(docs, vec![1, 2, 3]);
    }

    #[test]
    fn figure5_example_structure() {
        // Doc1 = (P,)(S,P)(N,PS)(v1,PSN)(L,PS)(v2,PSL)
        // Doc2 = (P,)(B,P)(L,PB)(v2,PBL)
        // Paper Figure 5: 9 suffix-tree nodes + root.
        let mut table = SymbolTable::new();
        let d1 = seq("<P><S><N>v1</N><L>v2</L></S></P>", &mut table);
        let d2 = seq("<P><B><L>v2</L></B></P>", &mut table);
        assert_eq!(d1.len(), 6);
        assert_eq!(d2.len(), 4);
        let mut trie = Trie::new();
        trie.insert_sequence(&d1, 1);
        trie.insert_sequence(&d2, 2);
        // Shared: root, (P,). Doc1 adds 5 more, Doc2 adds 3 more.
        assert_eq!(trie.len(), 1 + 1 + 5 + 3);
    }

    #[test]
    fn empty_sequence_attaches_doc_to_root() {
        let mut trie = Trie::new();
        trie.insert_sequence(&Sequence::default(), 9);
        assert_eq!(trie.nodes[0].docs, vec![9]);
    }
}
