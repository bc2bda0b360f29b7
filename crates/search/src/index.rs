//! In-memory inverted index with BM25 ranking.
//!
//! This is the reproduction's stand-in for the ElasticSearch recall layer in
//! the deployed system (paper §V-A): the model server sends a query (the
//! user's question, or the concatenated clicked tags) and receives a ranked
//! recall set of representative questions.

use std::collections::{BTreeMap, HashMap};

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Document id as supplied at [`InvertedIndex::add_document`] time.
    pub doc: usize,
    /// BM25 relevance score (higher is better).
    pub score: f32,
}

/// Posting: document id and term frequency within it.
#[derive(Debug, Clone, Copy)]
struct Posting {
    doc: usize,
    tf: u32,
}

/// BM25 parameters. The defaults (`k1 = 1.2`, `b = 0.75`) are ElasticSearch's
/// defaults, matching the behaviour of the substituted component.
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f32,
    /// Length normalization strength.
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// An append-only inverted index over tokenized documents.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: Vec<u32>,
    total_len: u64,
    params: Bm25Params,
}

impl InvertedIndex {
    /// Creates an empty index with default BM25 parameters.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Creates an empty index with custom BM25 parameters.
    pub fn with_params(params: Bm25Params) -> Self {
        InvertedIndex { params, ..Default::default() }
    }

    /// Adds a tokenized document and returns its id (dense, insertion order).
    pub fn add_document(&mut self, tokens: &[String]) -> usize {
        let doc = self.doc_len.len();
        self.doc_len.push(tokens.len() as u32);
        self.total_len += tokens.len() as u64;
        let mut counts: HashMap<&str, u32> = HashMap::new();
        for t in tokens {
            *counts.entry(t.as_str()).or_default() += 1;
        }
        for (term, tf) in counts {
            self.postings.entry(term.to_string()).or_default().push(Posting { doc, tf });
        }
        doc
    }

    /// Number of indexed documents.
    pub fn num_documents(&self) -> usize {
        self.doc_len.len()
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Mean document length in tokens (0 when empty).
    pub fn avg_doc_len(&self) -> f32 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f32 / self.doc_len.len() as f32
        }
    }

    /// Lucene-style BM25 IDF: `ln(1 + (N - df + 0.5) / (df + 0.5))`.
    pub fn idf(&self, term: &str) -> f32 {
        let n = self.num_documents() as f32;
        let df = self.postings.get(term).map_or(0, Vec::len) as f32;
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// Top-`k` documents for a tokenized query, by BM25, descending.
    /// Ties break toward the lower document id for determinism.
    pub fn search(&self, query: &[String], k: usize) -> Vec<Hit> {
        if self.doc_len.is_empty() || query.is_empty() || k == 0 {
            return Vec::new();
        }
        let avg = self.avg_doc_len().max(1e-6);
        let mut scores: HashMap<usize, f32> = HashMap::new();
        // Deduplicate query terms but keep multiplicity as a weight, which is
        // what ES does for repeated terms in a bool/match query. Terms must
        // accumulate in a deterministic order: summing f32 contributions in
        // HashMap order (which varies per thread via RandomState) shifts
        // scores by an ulp and flips near-ties, breaking response parity
        // between single-process servers and worker-thread replicas.
        let mut q_counts: BTreeMap<&str, f32> = BTreeMap::new();
        for t in query {
            *q_counts.entry(t.as_str()).or_default() += 1.0;
        }
        for (term, q_weight) in q_counts {
            let Some(posts) = self.postings.get(term) else { continue };
            let idf = self.idf(term);
            for p in posts {
                let tf = p.tf as f32;
                let len_norm =
                    1.0 - self.params.b + self.params.b * self.doc_len[p.doc] as f32 / avg;
                let s = idf * tf * (self.params.k1 + 1.0) / (tf + self.params.k1 * len_norm);
                *scores.entry(p.doc).or_default() += q_weight * s;
            }
        }
        let mut hits: Vec<Hit> =
            scores.into_iter().map(|(doc, score)| Hit { doc, score }).collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn index(docs: &[&str]) -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        for d in docs {
            ix.add_document(&toks(d));
        }
        ix
    }

    #[test]
    fn exact_match_ranks_first() {
        let ix = index(&[
            "how to change password",
            "how to apply for etc card",
            "where to cancel the order",
        ]);
        let hits = ix.search(&toks("change password"), 3);
        assert_eq!(hits[0].doc, 0);
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let ix = index(&["the the the password", "the account", "the order", "the refund"]);
        // "password" is rare; "the" occurs everywhere.
        assert!(ix.idf("password") > ix.idf("the"));
    }

    #[test]
    fn missing_terms_yield_empty() {
        let ix = index(&["alpha beta"]);
        assert!(ix.search(&toks("gamma"), 5).is_empty());
        assert!(ix.search(&[], 5).is_empty());
    }

    #[test]
    fn k_truncates_results() {
        let ix = index(&["a b", "a c", "a d", "a e"]);
        assert_eq!(ix.search(&toks("a"), 2).len(), 2);
    }

    #[test]
    fn shorter_docs_win_on_equal_tf() {
        let ix = index(&["refund", "refund and many extra words here"]);
        let hits = ix.search(&toks("refund"), 2);
        assert_eq!(hits[0].doc, 0, "length normalization should favor the short doc");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn deterministic_tie_break_by_doc_id() {
        let ix = index(&["x y", "x y"]);
        let hits = ix.search(&toks("x"), 2);
        assert_eq!(hits[0].doc, 0);
        assert_eq!(hits[1].doc, 1);
    }

    #[test]
    fn scores_are_bitwise_identical_across_threads_and_clones() {
        // Replica-per-shard serving searches cloned indexes from worker
        // threads; scores must not depend on which thread computes them
        // (per-thread hash seeds must never reorder f32 accumulation).
        let ix = index(&[
            "reset my account password please",
            "reset password for my account now",
            "cancel my order please",
            "account password reset steps",
        ]);
        let query = toks("please reset my account password now");
        let baseline = ix.search(&query, 4);
        assert_eq!(baseline.len(), 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (ix, query, baseline) = (ix.clone(), &query, &baseline);
                scope.spawn(move || {
                    let hits = ix.search(query, 4);
                    assert_eq!(&hits, baseline, "BM25 ranking diverged across threads");
                    for (a, b) in hits.iter().zip(baseline) {
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                });
            }
        });
    }

    #[test]
    fn stats_track_additions() {
        let mut ix = InvertedIndex::new();
        assert_eq!(ix.avg_doc_len(), 0.0);
        ix.add_document(&toks("a b c"));
        ix.add_document(&toks("a"));
        assert_eq!(ix.num_documents(), 2);
        assert_eq!(ix.num_terms(), 3);
        assert_eq!(ix.avg_doc_len(), 2.0);
    }
}
