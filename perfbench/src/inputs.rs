//! Seeded input generators. Every workload input is a pure function of the
//! `--seed` argument; the program under test only ever sees the results.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::datagen::vocab::synthetic_phrase;
use explain3d::incremental::TupleOp;
use explain3d::prelude::*;
use explain3d::service::json::Json;

/// Vocabulary size of the phrase attribute (the shape of `perf_report`'s
/// candidate and incremental lanes).
const VOCAB: usize = 1500;

/// Derives an independent RNG stream for one purpose from the run seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// The input seed of a run's `k`-th input: distinct for every (seed, k)
/// with k below 2^20.
pub fn sample_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(k)
}

/// The input seed of the explain workloads' warm-up input. It is the same
/// for every `--seed`, so set-up time does not depend on which input a
/// seed happens to draw.
pub const WARM_UP_SEED: u64 = u64::MAX;

/// One phrase+year tuple with the given impact.
pub fn phrase_tuple(rng: &mut StdRng, impact: f64) -> CanonicalTuple {
    let words = rng.gen_range(2..=4usize);
    let phrase = synthetic_phrase(rng, VOCAB, words);
    let year = rng.gen_range(1950..2030i64);
    CanonicalTuple {
        id: 0,
        key: vec![Value::str(phrase.clone())],
        impact,
        members: vec![],
        representative: Row::new(vec![Value::str(phrase), Value::Int(year)]),
    }
}

fn phrase_relation(name: &str, rng: &mut StdRng, rows: usize) -> CanonicalRelation {
    let schema = Schema::from_pairs(&[("name", ValueType::Str), ("year", ValueType::Int)]);
    CanonicalRelation {
        query_name: name.to_string(),
        schema,
        key_attrs: vec!["name".to_string()],
        tuples: (0..rows)
            .map(|i| {
                let mut t = phrase_tuple(rng, 1.0);
                t.id = i;
                t.members = vec![i];
                t
            })
            .collect(),
        aggregate: None,
    }
}

/// Two seeded `rows`-tuple phrase+year relations, name-keyed, unit impacts.
pub fn phrase_relations(seed: u64, rows: usize) -> (CanonicalRelation, CanonicalRelation) {
    (phrase_relation("Q1", &mut rng(seed, 1), rows), phrase_relation("Q2", &mut rng(seed, 2), rows))
}

/// The attribute matches of the phrase relations.
pub fn phrase_matches() -> AttributeMatches {
    AttributeMatches::single_equivalent("name", "name")
}

/// The session configuration of the phrase workloads: default pipeline,
/// similarity floor 0.4 (near-duplicate phrases only).
pub fn session_config() -> SessionConfig {
    SessionConfig {
        mapping: MappingOptions { min_similarity: 0.4, ..Default::default() },
        ..Default::default()
    }
}

/// A seeded stream of valid deltas over two relations whose sizes it
/// tracks: every index it emits is in range when its op applies.
pub struct DeltaGen {
    rng: StdRng,
    len: [usize; 2],
}

impl DeltaGen {
    pub fn new(seed: u64, stream: u64, left_len: usize, right_len: usize) -> Self {
        DeltaGen { rng: rng(seed, stream), len: [left_len, right_len] }
    }

    /// The next delta of `ops` operations: about 60% updates (half of them
    /// impact-only edits), 20% inserts and 20% deletes, each on a seeded
    /// side. Deletes never empty a side.
    pub fn next(&mut self, ops: usize) -> RelationDelta {
        let mut delta = RelationDelta::new();
        for _ in 0..ops {
            let side = if self.rng.gen_bool(0.5) { Side::Left } else { Side::Right };
            let s = usize::from(side == Side::Right);
            let roll = self.rng.gen_range(0..10u32);
            if roll < 2 || self.len[s] < 2 {
                self.len[s] += 1;
                delta = delta.insert(side, phrase_tuple(&mut self.rng, 1.0));
            } else if roll < 4 {
                let index = self.rng.gen_range(0..self.len[s]);
                self.len[s] -= 1;
                delta = delta.delete(side, index);
            } else {
                let index = self.rng.gen_range(0..self.len[s]);
                let impact = if self.rng.gen_bool(0.5) { 2.0 } else { 1.0 };
                delta = delta.update(side, index, phrase_tuple(&mut self.rng, impact));
            }
        }
        delta
    }
}

fn side_name(side: Side) -> &'static str {
    match side {
        Side::Left => "left",
        Side::Right => "right",
    }
}

fn tuple_json(t: &CanonicalTuple) -> Json {
    let values: Vec<Json> = t
        .representative
        .values()
        .iter()
        .map(|v| match v {
            Value::Int(i) => Json::Int(*i),
            Value::Str(s) => Json::Str(s.clone()),
            other => panic!("phrase tuples hold only str and int values, got {other:?}"),
        })
        .collect();
    Json::obj().set("values", values).set("impact", t.impact)
}

fn relation_json(r: &CanonicalRelation) -> Json {
    let columns = Json::Arr(vec![
        Json::Arr(vec!["name".into(), "str".into()]),
        Json::Arr(vec!["year".into(), "int".into()]),
    ]);
    Json::obj()
        .set("name", r.query_name.as_str())
        .set("columns", columns)
        .set("key", Json::Arr(vec!["name".into()]))
        .set("tuples", r.tuples.iter().map(tuple_json).collect::<Vec<_>>())
}

/// The wire body that creates a session over the two relations.
pub fn create_body(left: &CanonicalRelation, right: &CanonicalRelation) -> String {
    Json::obj()
        .set("left", relation_json(left))
        .set("right", relation_json(right))
        .set("match", Json::obj().set("left", "name").set("right", "name"))
        .set("options", Json::obj().set("min_similarity", 0.4))
        .to_string()
}

/// The wire body of a delta request.
pub fn delta_body(delta: &RelationDelta) -> String {
    let ops: Vec<Json> = delta
        .ops
        .iter()
        .map(|op| match op {
            TupleOp::Insert { side, tuple } => Json::obj()
                .set("op", "insert")
                .set("side", side_name(*side))
                .set("tuple", tuple_json(tuple)),
            TupleOp::Update { side, index, tuple } => Json::obj()
                .set("op", "update")
                .set("side", side_name(*side))
                .set("index", *index)
                .set("tuple", tuple_json(tuple)),
            TupleOp::Delete { side, index } => {
                Json::obj().set("op", "delete").set("side", side_name(*side)).set("index", *index)
            }
        })
        .collect();
    Json::obj().set("ops", ops).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, _) = phrase_relations(3, 50);
        let (b, _) = phrase_relations(3, 50);
        let (c, _) = phrase_relations(4, 50);
        assert_eq!(create_body(&a, &a), create_body(&b, &b));
        assert_ne!(create_body(&a, &a), create_body(&c, &c));
    }

    #[test]
    fn generated_deltas_always_apply() {
        let (mut left, mut right) = phrase_relations(9, 5);
        let mut gen = DeltaGen::new(9, 7, left.len(), right.len());
        for _ in 0..200 {
            let delta = gen.next(7);
            explain3d::incremental::apply_delta(&mut left, &mut right, &delta)
                .expect("generated delta applies");
        }
    }
}
