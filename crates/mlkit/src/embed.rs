//! Query featurization: SQL tokenizer, hashed bag-of-token features and a small recurrent
//! encoder producing dense query embeddings.
//!
//! The paper (§5.1.1) trains an LSTM encoder–decoder on SQL text and uses the encoder's
//! final hidden state as the query embedding, averaging embeddings over the queries of an
//! interval to obtain the workload-composition feature. Training a full LSTM autoencoder is
//! outside the scope (and the dependency budget) of this reproduction, so the
//! [`QueryEncoder`] combines two ingredients that provide the same *interface properties*:
//!
//! 1. a **hashed bag-of-token** projection — stable, unbounded-vocabulary-safe term
//!    frequencies folded into a fixed number of buckets, then
//! 2. a **recurrent mixing pass** (a GRU-style cell with fixed random weights, i.e. an echo
//!    state encoder) over the token sequence, which makes the embedding order-sensitive the
//!    way an LSTM encoder is.
//!
//! The result is a deterministic dense vector in which similar query mixes land close
//! together and different query shapes (point lookup vs. multi-join aggregate) land far
//! apart — which is all the downstream contextual GP needs.
//!
//! # Cost
//!
//! A workload embedding runs at every tenant admission and every tuning iteration, so the
//! encoder does only its distinct arithmetic, with no heap allocation per token:
//!
//! * the [`SqlTokenizer`] hands each token to a callback from one reused buffer, and the
//!   encoder keeps only the token's FNV-1a hash;
//! * a token's hashed input vector is zero outside two buckets, so a recurrent step adds
//!   the input term at those buckets only;
//! * [`QueryEncoder::encode_workload`] encodes each distinct token prefix once per call:
//!   template queries share long prefixes (`select * from stock where stock_id =`), and a
//!   query steps only through the tokens after its longest common prefix with the query
//!   encoded before it.
//!
//! None of this changes a bit of the output. A skipped input term is `w·0 = ±0`: added to
//! a nonzero product it changes nothing, and a term that is ±0 as a whole adds ±0 to a
//! partial sum that starts at +0 and is never −0, which leaves the sum unchanged. Every
//! hidden unit still sums over its inputs in the same order, and the workload embedding
//! still sums the query embeddings in the caller's order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Splits SQL text into tokens: maximal runs of alphanumeric characters and `_`, plus the
/// punctuation that carries structure (`*`, `=`, `<`, `>`, `(`, `)`) as one-character
/// tokens. Only ASCII letters are lowercased; other letters are kept as written.
///
/// The tokenizer owns one buffer and hands every token to a callback from it, so
/// tokenizing allocates only while that buffer grows to the longest token seen.
#[derive(Debug, Clone, Default)]
pub struct SqlTokenizer {
    token: String,
}

impl SqlTokenizer {
    /// Creates a tokenizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calls `visit` with each token of `sql`, in order.
    pub fn for_each_token(&mut self, sql: &str, mut visit: impl FnMut(&str)) {
        for ch in sql.chars() {
            if ch.is_alphanumeric() || ch == '_' {
                self.token.push(ch.to_ascii_lowercase());
                continue;
            }
            if !self.token.is_empty() {
                visit(&self.token);
                self.token.clear();
            }
            if matches!(ch, '*' | '=' | '<' | '>' | '(' | ')') {
                visit(ch.encode_utf8(&mut [0; 4]));
            }
        }
        if !self.token.is_empty() {
            visit(&self.token);
            self.token.clear();
        }
    }
}

/// FNV-1a hash, used to fold tokens into feature buckets deterministically.
fn fnv1a(token: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in token.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The nonzero entries of a token's hashed input vector `x`, as `(bucket, value)` in
/// ascending bucket order, and how many there are.
///
/// `x` is `±1` at bucket `hash % dim` plus `±0.5` at bucket `(hash >> 16) % dim` (a
/// second bucket reduces collisions for small dimensions), and zero elsewhere. When the
/// two buckets coincide, that bucket holds the sum.
fn input_entries(hash: u64, dim: usize) -> ([(usize, f64); 2], usize) {
    let dim = dim as u64;
    let first = (
        (hash % dim) as usize,
        if (hash >> 32) & 1 == 0 { 1.0 } else { -1.0 },
    );
    let second = (
        ((hash >> 16) % dim) as usize,
        if (hash >> 33) & 1 == 0 { 0.5 } else { -0.5 },
    );
    if first.0 == second.0 {
        ([(first.0, first.1 + second.1), second], 1)
    } else if first.0 < second.0 {
        ([first, second], 2)
    } else {
        ([second, first], 2)
    }
}

/// Scales `v` to unit L2 norm, leaving a (near-)zero vector as it is.
fn normalize(v: &mut [f64]) {
    let norm = linalg::vecops::norm(v);
    if norm > 1e-12 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

/// Encodes SQL queries into fixed-size dense vectors.
///
/// Both weight matrices are fixed at construction from the seed and stored column by
/// column, the order a step reads them: element `j * dim + i` carries input `j` (state
/// `j`, or bucket `j` of the token's input vector) into unit `i`.
#[derive(Debug, Clone)]
pub struct QueryEncoder {
    dim: usize,
    /// Recurrent mixing weights (dim × dim).
    recurrent: Vec<f64>,
    /// Input weights (dim × dim).
    input: Vec<f64>,
}

impl QueryEncoder {
    /// Creates an encoder producing `dim`-dimensional embeddings. The seed fixes the random
    /// projection so embeddings are reproducible across runs.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (dim as f64).sqrt();
        // Each matrix is drawn row by row (unit i, then input j), recurrent first, and
        // stored column by column.
        let mut draw = || {
            let mut weights = vec![0.0; dim * dim];
            for i in 0..dim {
                for j in 0..dim {
                    weights[j * dim + i] = rng.gen_range(-scale..scale);
                }
            }
            weights
        };
        let recurrent = draw();
        let input = draw();
        QueryEncoder {
            dim,
            recurrent,
            input,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One recurrent step over the token hashed to `hash`: `next[i] = tanh(Σ_j
    /// (R[i][j]·state[j] + W[i][j]·x[j]))`, where `x` is the token's hashed input vector.
    /// The step walks the inputs `j` in ascending order and adds each one's column to
    /// every unit's partial sum, so each `next[i]` still sums over `j` in that order.
    ///
    /// The input term is added only where `x` is nonzero. Elsewhere it is `W[i][j]·0 =
    /// ±0`, so skipping it is bit-exact: added to a nonzero product it changes nothing,
    /// and a term that is ±0 as a whole leaves the partial sum unchanged, because the sum
    /// starts at +0 and is never −0 (rounding to nearest, only −0 + −0 gives −0).
    fn step(&self, hash: u64, state: &[f64], next: &mut [f64]) {
        let dim = self.dim;
        let (entries, count) = input_entries(hash, dim);
        let mut entries = entries[..count].iter().peekable();
        next.fill(0.0);
        let columns = self
            .recurrent
            .chunks_exact(dim)
            .zip(self.input.chunks_exact(dim));
        for (j, (&s, (recurrent, input))) in state.iter().zip(columns).enumerate() {
            match entries.next_if(|&&(bucket, _)| bucket == j) {
                Some(&(_, x)) => {
                    for ((acc, r), w) in next.iter_mut().zip(recurrent).zip(input) {
                        *acc += r * s + w * x;
                    }
                }
                None => {
                    for (acc, r) in next.iter_mut().zip(recurrent) {
                        *acc += r * s;
                    }
                }
            }
        }
        next.iter_mut().for_each(|acc| *acc = acc.tanh());
    }

    /// Embeds each query: `dim` values per query, end to end, in the order given.
    ///
    /// Queries are visited in lexicographic order of their token hashes, with the state
    /// after each depth of the query visited last kept on a stack. A query reuses the
    /// states of its longest common prefix with that query and steps through only the
    /// rest, so each distinct token prefix is encoded once per call.
    fn embed_each<Q: AsRef<str>>(&self, queries: &[Q]) -> Vec<f64> {
        let dim = self.dim;
        let mut tokenizer = SqlTokenizer::new();
        // Every query's token hashes, end to end: query q's are
        // `hashes[bounds[q]..bounds[q + 1]]`.
        let mut hashes = Vec::new();
        let mut bounds = Vec::with_capacity(queries.len() + 1);
        bounds.push(0);
        for query in queries {
            tokenizer.for_each_token(query.as_ref(), |token| hashes.push(fnv1a(token)));
            bounds.push(hashes.len());
        }
        let tokens = |q: usize| &hashes[bounds[q]..bounds[q + 1]];
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_unstable_by(|&a, &b| tokens(a).cmp(tokens(b)));

        let depth = bounds.windows(2).map(|b| b[1] - b[0]).max().unwrap_or(0);
        // `states[d * dim..(d + 1) * dim]` is the state after the first `d` tokens of the
        // query visited last; depth 0 is the zero start state.
        let mut states = vec![0.0; (depth + 1) * dim];
        let mut embeddings = vec![0.0; queries.len() * dim];
        let mut previous: &[u64] = &[];
        for &q in &order {
            let current = tokens(q);
            let shared = previous
                .iter()
                .zip(current)
                .take_while(|(a, b)| a == b)
                .count();
            for (d, &hash) in current.iter().enumerate().skip(shared) {
                let (done, rest) = states.split_at_mut((d + 1) * dim);
                self.step(hash, &done[d * dim..], &mut rest[..dim]);
            }
            let end = current.len() * dim;
            let embedding = &mut embeddings[q * dim..(q + 1) * dim];
            embedding.copy_from_slice(&states[end..end + dim]);
            normalize(embedding);
            previous = current;
        }
        embeddings
    }

    /// Encodes a single query into a dense vector with unit L2 norm (zero vector for empty
    /// input).
    pub fn encode_query(&self, sql: &str) -> Vec<f64> {
        self.embed_each(&[sql])
    }

    /// Encodes a workload as the mean of its query embeddings (§5.1.1: "we average the
    /// query encoding, obtaining the queries composition feature of a workload").
    ///
    /// The result is bit-identical to summing [`QueryEncoder::encode_query`] of each
    /// query, in the order given, and dividing by their count.
    pub fn encode_workload(&self, queries: &[String]) -> Vec<f64> {
        let mut mean = vec![0.0; self.dim];
        if queries.is_empty() {
            return mean;
        }
        for embedding in self.embed_each(queries).chunks_exact(self.dim) {
            for (m, v) in mean.iter_mut().zip(embedding) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|v| *v /= queries.len() as f64);
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(sql: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        SqlTokenizer::new().for_each_token(sql, |token| tokens.push(token.to_string()));
        tokens
    }

    #[test]
    fn tokenizer_splits_sql() {
        let toks = tokenize("SELECT c_id, c_balance FROM customer WHERE c_w_id = 3");
        assert!(toks.contains(&"select".to_string()));
        assert!(toks.contains(&"customer".to_string()));
        assert!(toks.contains(&"=".to_string()));
        assert!(toks.contains(&"3".to_string()));
        assert!(!toks.contains(&"SELECT".to_string()));
        // Only ASCII letters are lowercased.
        assert_eq!(
            tokenize("Äb_ǅ=(x)*COUNT"),
            ["Äb_ǅ", "=", "(", "x", ")", "*", "count"]
        );
        // One tokenizer over several queries hands out each query's tokens alone.
        let mut tokenizer = SqlTokenizer::new();
        let mut seen = Vec::new();
        for sql in ["SELECT abc", "WHERE", "x<y"] {
            tokenizer.for_each_token(sql, |token| seen.push(token.to_string()));
        }
        assert_eq!(seen, ["select", "abc", "where", "x", "<", "y"]);
    }

    #[test]
    fn tokenizer_empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   ,,,  ").is_empty());
    }

    #[test]
    fn encoding_is_deterministic_for_fixed_seed() {
        let e1 = QueryEncoder::new(16, 7);
        let e2 = QueryEncoder::new(16, 7);
        let q = "UPDATE warehouse SET w_ytd = w_ytd + 10 WHERE w_id = 1";
        assert_eq!(e1.encode_query(q), e2.encode_query(q));
    }

    #[test]
    fn different_seeds_give_different_embeddings() {
        let e1 = QueryEncoder::new(16, 7);
        let e2 = QueryEncoder::new(16, 8);
        let q = "SELECT * FROM item";
        assert_ne!(e1.encode_query(q), e2.encode_query(q));
    }

    #[test]
    fn embeddings_have_unit_norm_and_fixed_dim() {
        let enc = QueryEncoder::new(12, 3);
        let v = enc.encode_query("DELETE FROM new_order WHERE no_o_id = 5");
        assert_eq!(v.len(), 12);
        assert!((linalg::vecops::norm(&v) - 1.0).abs() < 1e-9);
        let empty = enc.encode_query("");
        assert!(empty.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn similar_queries_are_closer_than_dissimilar_ones() {
        let enc = QueryEncoder::new(24, 42);
        let a = enc.encode_query("SELECT c_balance FROM customer WHERE c_id = 17");
        let b = enc.encode_query("SELECT c_balance FROM customer WHERE c_id = 99");
        let c = enc.encode_query(
            "SELECT MIN(t.title) FROM title t, movie_info mi, cast_info ci WHERE t.id = mi.movie_id AND ci.movie_id = t.id GROUP BY t.production_year",
        );
        let d_ab = linalg::vecops::euclidean_distance(&a, &b);
        let d_ac = linalg::vecops::euclidean_distance(&a, &c);
        assert!(d_ab < d_ac, "similar {d_ab} vs dissimilar {d_ac}");
    }

    #[test]
    fn workload_embedding_is_average_of_query_embeddings() {
        // Shared prefixes, a repeat, an empty query and an order that is not sorted: the
        // workload path shares prefix states across queries, the single-query path does
        // not, and the bits must agree.
        let queries: Vec<String> = [
            "SELECT * FROM a WHERE id = 7",
            "INSERT INTO b VALUES (1)",
            "SELECT * FROM a",
            "",
            "SELECT * FROM a WHERE id = 7",
            "SELECT * FROM a WHERE name = 'x'",
        ]
        .iter()
        .map(|q| q.to_string())
        .collect();
        for dim in [1, 2, 8] {
            let enc = QueryEncoder::new(dim, 1);
            let mut expected = vec![0.0; dim];
            for q in &queries {
                for (m, v) in expected.iter_mut().zip(enc.encode_query(q)) {
                    *m += v;
                }
            }
            expected.iter_mut().for_each(|v| *v /= queries.len() as f64);
            let w = enc.encode_workload(&queries);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&expected), "dim {dim}");
            assert!(enc.encode_workload(&[]).iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn workload_embedding_shifts_with_composition() {
        // The read-heavy and write-heavy mixes must produce different workload features —
        // this is what allows the contextual GP to distinguish workload phases.
        let enc = QueryEncoder::new(16, 5);
        let reads = vec!["SELECT * FROM tweets WHERE id = 1".to_string(); 10];
        let mut mixed = vec!["SELECT * FROM tweets WHERE id = 1".to_string(); 5];
        mixed.extend(vec!["INSERT INTO tweets VALUES (2, 'hi')".to_string(); 5]);
        let wr = enc.encode_workload(&reads);
        let wm = enc.encode_workload(&mixed);
        assert!(linalg::vecops::euclidean_distance(&wr, &wm) > 1e-3);
    }
}
