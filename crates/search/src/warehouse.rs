//! The KB (knowledge base) document warehouse: Q&A pairs plus a searchable
//! index over their representative questions (paper §III-A and §V-A).

use intellitag_text::tokenize;

use crate::index::{Hit, InvertedIndex};

/// One Q&A pair: a representative question, its answer, and the owning
/// tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QaPair {
    /// Representative question text.
    pub question: String,
    /// Canonical answer text.
    pub answer: String,
    /// Owning tenant id.
    pub tenant: usize,
}

/// An append-only store of Q&A pairs with BM25 recall over the questions.
///
/// Mirrors the deployed pipeline: tenants upload pairs (or the automatic
/// collection pipeline generates them), the warehouse indexes the RQ text,
/// and online requests retrieve a recall set to be re-ranked by the model
/// server.
#[derive(Debug, Clone, Default)]
pub struct KbWarehouse {
    pairs: Vec<QaPair>,
    index: InvertedIndex,
}

impl KbWarehouse {
    /// Creates an empty warehouse.
    pub fn new() -> Self {
        KbWarehouse::default()
    }

    /// Adds a Q&A pair and returns its RQ id (dense, insertion order).
    pub fn add_pair(
        &mut self,
        question: impl Into<String>,
        answer: impl Into<String>,
        tenant: usize,
    ) -> usize {
        let question = question.into();
        let tokens = tokenize(&question);
        let id = self.index.add_document(&tokens);
        debug_assert_eq!(id, self.pairs.len());
        self.pairs.push(QaPair { question, answer: answer.into(), tenant });
        id
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pair for an RQ id.
    pub fn pair(&self, rq: usize) -> &QaPair {
        &self.pairs[rq]
    }

    /// Iterator over all pairs with their RQ ids.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &QaPair)> {
        self.pairs.iter().enumerate()
    }

    /// BM25 recall over all tenants.
    pub fn recall(&self, query: &str, k: usize) -> Vec<Hit> {
        self.index.search(&tokenize(query), k)
    }

    /// BM25 recall restricted to one tenant (the cloud service never mixes
    /// tenants in user-facing results). Over-fetches internally and filters.
    pub fn recall_for_tenant(&self, query: &str, tenant: usize, k: usize) -> Vec<Hit> {
        let mut out = Vec::with_capacity(k);
        // Over-fetch enough to survive filtering; bounded by corpus size.
        let fetch = (k * 8).min(self.pairs.len().max(1));
        for h in self.index.search(&tokenize(query), fetch) {
            if self.pairs[h.doc].tenant == tenant {
                out.push(h);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Best-matching RQ for a question within a tenant, if any
    /// (the Q&A dialogue path: question in, answer out).
    pub fn best_match(&self, query: &str, tenant: usize) -> Option<(usize, &QaPair)> {
        self.recall_for_tenant(query, tenant, 1).first().map(|h| (h.doc, &self.pairs[h.doc]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KbWarehouse {
        let mut kb = KbWarehouse::new();
        kb.add_pair("How to change password", "Go to settings, tap security.", 0);
        kb.add_pair("How can I apply for ETC card", "Apply in the ETC menu.", 0);
        kb.add_pair("Where to cancel the order", "Open orders, tap cancel.", 1);
        kb
    }

    #[test]
    fn add_and_get_roundtrip() {
        let kb = kb();
        assert_eq!(kb.len(), 3);
        assert_eq!(kb.pair(1).tenant, 0);
        assert!(kb.pair(1).question.contains("ETC"));
    }

    #[test]
    fn recall_ranks_relevant_question_first() {
        let kb = kb();
        let hits = kb.recall("cancel my order", 3);
        assert_eq!(hits[0].doc, 2);
    }

    #[test]
    fn tenant_filter_excludes_other_tenants() {
        let kb = kb();
        let hits = kb.recall_for_tenant("cancel my order", 0, 3);
        assert!(hits.iter().all(|h| kb.pair(h.doc).tenant == 0));
    }

    #[test]
    fn best_match_returns_answer() {
        let kb = kb();
        let (rq, pair) = kb.best_match("how do i change my password", 0).unwrap();
        assert_eq!(rq, 0);
        assert!(pair.answer.contains("settings"));
        assert!(kb.best_match("completely unrelated gibberish", 0).is_none());
    }

    #[test]
    fn empty_warehouse_is_safe() {
        let kb = KbWarehouse::new();
        assert!(kb.is_empty());
        assert!(kb.recall("anything", 5).is_empty());
        assert!(kb.best_match("anything", 0).is_none());
    }
}
