//! [`RistIndex`] (paper §3.3): the statically labeled precursor of ViST.
//!
//! RIST builds the suffix-tree-like trie over all sequences, labels every
//! node `⟨n, size⟩` by a preorder traversal, and bulk-loads the labels into
//! the same D-Ancestor / S-Ancestor / DocId B+Trees that ViST uses. Search
//! is identical (Algorithm 2). The price of the *static* labels is that
//! "late insertions can change the number of nodes that appear before x …
//! which means neither n nor size can be fixed" — so RIST must be rebuilt
//! to add documents.

use std::sync::Arc;

use vist_query::{parse_query, translate, Pattern, TranslateOptions};
use vist_seq::{dkey, document_to_sequence, SiblingOrder, SymbolTable};
use vist_storage::{BufferPool, MemPager};
use vist_xml::Document;

use crate::error::Result;
use crate::search::{search_sequences, QueryStats, SearchOptions};
use crate::stats::IndexStats;
use crate::store::{DocId, NodeState, Store};
use crate::trie::Trie;
use crate::vist::{IndexOptions, QueryOptions, QueryResult};

/// The statically labeled RIST index.
pub struct RistIndex {
    store: Store,
    table: SymbolTable,
    order: SiblingOrder,
    /// Counters of every query run so far, summed.
    totals: QueryStats,
}

impl RistIndex {
    /// Build an in-memory RIST index over `docs`.
    pub fn build_in_memory<'a>(
        docs: impl IntoIterator<Item = &'a Document>,
        opts: IndexOptions,
    ) -> Result<Self> {
        let pool = Arc::new(BufferPool::with_capacity(
            MemPager::new(opts.page_size),
            opts.cache_pages,
        ));
        Self::build_on(pool, docs, opts)
    }

    /// Build a RIST index over `docs` on the given pool.
    pub fn build_on<'a>(
        pool: Arc<BufferPool>,
        docs: impl IntoIterator<Item = &'a Document>,
        opts: IndexOptions,
    ) -> Result<Self> {
        let mut table = SymbolTable::new();
        let mut store = Store::create(pool, opts.lambda, opts.adaptive, opts.store_documents)?;

        // Phase i: add all sequences to the suffix tree.
        let mut trie = Trie::new();
        for doc in docs {
            let seq = document_to_sequence(doc, &mut table, &opts.order);
            let id = {
                let mut meta = store.meta_mut();
                let id = meta.next_doc;
                meta.next_doc += 1;
                meta.doc_count += 1;
                id
            };
            if opts.store_documents {
                store.doc_put(id, doc.to_xml().as_bytes())?;
            }
            trie.insert_sequence(&seq, id);
        }

        // Phase ii: label by preorder traversal.
        let labels = trie.static_labels();

        // Phase iii: bulk-load every node into the D-Ancestor and S-Ancestor
        // trees, and document ids into the DocId tree (sorted, bottom-up —
        // a static build needs no incremental inserts).
        let mut dkeys: std::collections::HashMap<Vec<u8>, u64> = std::collections::HashMap::new();
        let mut nodes: Vec<(u64, NodeState)> = Vec::with_capacity(trie.len());
        let mut docids: Vec<(u128, DocId)> = Vec::new();
        for (idx, node) in trie.nodes.iter().enumerate() {
            let (n, size) = labels[idx];
            if let Some((sym, prefix)) = &node.elem {
                let key = dkey::encode(*sym, prefix);
                let next_id = dkeys.len() as u64;
                let dkid = *dkeys.entry(key).or_insert(next_id);
                nodes.push((
                    dkid,
                    NodeState {
                        n,
                        size,
                        next: n + 1,
                        k: 0,
                    },
                ));
            }
            for &doc in &node.docs {
                docids.push((n, doc));
            }
        }
        store.bulk_load_dkeys(dkeys.into_iter().collect())?;
        store.bulk_load_nodes(nodes)?;
        store.bulk_load_docids(docids)?;
        Ok(RistIndex {
            store,
            table,
            order: opts.order,
            totals: QueryStats::default(),
        })
    }

    /// Number of documents indexed.
    #[must_use]
    pub fn doc_count(&self) -> u64 {
        self.store.meta().doc_count
    }

    /// Index statistics.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let meta = self.store.meta();
        IndexStats {
            documents: meta.doc_count,
            nodes: meta.node_count,
            dkeys: meta.next_dkey,
            queries: self.totals,
            store_bytes: self.store.store_bytes(),
            io: self.store.pool().stats(),
            pool: self.store.pool().pool_stats(),
            ..IndexStats::default()
        }
    }

    /// Direct read access to the underlying store.
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Parse and run a path-expression query (Algorithm 2 — shared with
    /// ViST).
    pub fn query(&mut self, expr: &str, opts: &QueryOptions) -> Result<QueryResult> {
        let pattern = parse_query(expr)?.to_pattern();
        self.query_pattern(&pattern, opts)
    }

    /// Run a pre-parsed query pattern.
    pub fn query_pattern(&mut self, pattern: &Pattern, opts: &QueryOptions) -> Result<QueryResult> {
        let translation = translate(
            pattern,
            &mut self.table,
            &TranslateOptions {
                order: self.order.clone(),
                max_sequences: opts.max_sequences,
            },
        );
        let sopts = SearchOptions {
            workers: opts.workers,
            ..SearchOptions::default()
        };
        let outcome = search_sequences(&self.store, &translation.sequences, &sopts)?;
        self.totals.merge(&outcome.stats);
        let candidates = outcome.docs.len();
        Ok(QueryResult {
            doc_ids: outcome.docs.into_iter().collect(),
            candidates,
            truncated: translation.truncated,
            stats: outcome.stats,
            timings: outcome.timings,
            trace: None,
            trace_id: opts.trace_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_xml::parse;

    fn docs(xmls: &[&str]) -> Vec<Document> {
        xmls.iter().map(|x| parse(x).unwrap()).collect()
    }

    #[test]
    fn rist_answers_like_vist() {
        let xmls = [
            "<p><s><l>boston</l></s><b><l>newyork</l></b></p>",
            "<p><s><l>tokyo</l></s><b><l>newyork</l></b></p>",
            "<p><s><l>boston</l></s><b><l>paris</l></b></p>",
        ];
        let parsed = docs(&xmls);
        let mut rist = RistIndex::build_in_memory(&parsed, IndexOptions::default()).unwrap();
        let vist = crate::VistIndex::in_memory(IndexOptions::default()).unwrap();
        for x in &xmls {
            vist.insert_xml(x).unwrap();
        }
        for q in [
            "/p/s/l[text='boston']",
            "/p[s/l='boston']/b[l='newyork']",
            "/p/*[l='newyork']",
            "//l",
            "/p//l[text='paris']",
            "/p/s/l[text='nowhere']",
        ] {
            let r1 = rist.query(q, &QueryOptions::default()).unwrap();
            let r2 = vist.query(q, &QueryOptions::default()).unwrap();
            assert_eq!(r1.doc_ids, r2.doc_ids, "query {q}");
        }
    }

    #[test]
    fn rist_uses_fewer_label_bits() {
        // Static labels are dense preorder ranks: max label == node count.
        let parsed = docs(&["<a><b>1</b></a>", "<a><b>2</b></a>"]);
        let rist = RistIndex::build_in_memory(&parsed, IndexOptions::default()).unwrap();
        assert_eq!(rist.doc_count(), 2);
        assert!(rist.stats().nodes > 0);
    }
}
