//! Property test of the containment relation: `CubeQuery::relate` checked
//! against brute-force evaluation of both queries on random small cubes
//! (2–3 hierarchies of 2–3 levels, every level-0 coordinate enumerable).
//!
//! * `Disjoint` ⇒ no level-0 coordinate satisfies both selections;
//! * `Usable` ⇒ `other`'s Sum answer is `self`'s answer filtered by
//!   `other`'s predicates and rolled up to `other`'s group-by;
//! * `Equal` ⇒ the two answers are identical;
//! * every outcome occurs among the generated pairs.

use std::collections::BTreeMap;

use olap_model::{
    AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId, Predicate,
    PredicateOp, Relation,
};
use proptest::prelude::*;
use proptest::test_runner;

const MEASURES: [&str; 2] = ["m", "n"];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

fn coin(rng: &mut TestRng) -> bool {
    pick(rng, 2) == 0
}

/// A random cube: its schema and one fact (two Sum measures) per level-0
/// coordinate that holds one.
struct Cube {
    schema: CubeSchema,
    facts: Vec<(Vec<MemberId>, [f64; 2])>,
}

fn cube(rng: &mut TestRng) -> Cube {
    let hierarchies = (0..2 + pick(rng, 2))
        .map(|hi| {
            let depth = 2 + pick(rng, 2);
            let levels: Vec<String> = (0..depth).map(|li| format!("h{hi}l{li}")).collect();
            let mut b = HierarchyBuilder::new(format!("H{hi}"), levels);
            let leaves = 2 + pick(rng, 3);
            let mids = 1 + pick(rng, 3);
            let mid_top: Vec<usize> = (0..mids).map(|_| pick(rng, 2)).collect();
            for leaf in 0..leaves {
                let mid = pick(rng, mids);
                let mut chain = vec![format!("a{leaf}"), format!("b{mid}")];
                if depth == 3 {
                    chain.push(format!("c{}", mid_top[mid]));
                }
                b.add_member_chain(&chain).unwrap();
            }
            b.build().unwrap()
        })
        .collect();
    let schema = CubeSchema::new(
        "C",
        hierarchies,
        MEASURES.iter().map(|m| MeasureDef::new(*m, AggOp::Sum)).collect(),
    );
    let mut facts = Vec::new();
    for coord in domain(&schema) {
        if pick(rng, 4) != 0 {
            facts.push((coord, [1.0 + pick(rng, 9) as f64, 1.0 + pick(rng, 9) as f64]));
        }
    }
    Cube { schema, facts }
}

/// Every level-0 coordinate of the schema.
fn domain(schema: &CubeSchema) -> Vec<Vec<MemberId>> {
    let mut coords = vec![vec![]];
    for h in schema.hierarchies() {
        let n = h.level(0).unwrap().cardinality();
        coords = coords
            .into_iter()
            .flat_map(|c| {
                (0..n).map(move |m| {
                    let mut c = c.clone();
                    c.push(MemberId(m as u32));
                    c
                })
            })
            .collect();
    }
    coords
}

fn predicate(rng: &mut TestRng, schema: &CubeSchema) -> Predicate {
    let hierarchy = pick(rng, schema.hierarchies().len());
    let h = schema.hierarchy(hierarchy).unwrap();
    let level = pick(rng, h.depth());
    let card = h.level(level).unwrap().cardinality();
    let mut members: Vec<MemberId> =
        (0..card).filter(|_| coin(rng)).map(|m| MemberId(m as u32)).collect();
    if members.is_empty() {
        members.push(MemberId(pick(rng, card) as u32));
    }
    let op = match members.as_slice() {
        [one] => PredicateOp::Eq(*one),
        _ => PredicateOp::In(members),
    };
    Predicate { hierarchy, level, op }
}

fn measures(rng: &mut TestRng) -> Vec<String> {
    let all: [&[&str]; 4] = [&["m"], &["n"], &["m", "n"], &["n", "m"]];
    all[pick(rng, 4)].iter().map(|m| m.to_string()).collect()
}

fn query(rng: &mut TestRng, schema: &CubeSchema) -> CubeQuery {
    let slots = schema
        .hierarchies()
        .iter()
        .map(|h| (pick(rng, 3) != 0).then(|| pick(rng, h.depth())))
        .collect();
    let predicates = (0..pick(rng, 3)).map(|_| predicate(rng, schema)).collect();
    CubeQuery::new("C", GroupBySet::from_slots(slots), predicates, measures(rng))
}

/// A query near `base`: coarser or equal group-by, `base`'s predicates
/// (some narrowed, `in` lists reordered), perhaps one more predicate, and a
/// subset of its measures. Near pairs are where `Usable` and `Equal` live.
fn near(rng: &mut TestRng, schema: &CubeSchema, base: &CubeQuery) -> CubeQuery {
    let slots = base
        .group_by
        .slots()
        .iter()
        .zip(schema.hierarchies())
        .map(|(slot, h)| match slot {
            Some(l) if !coin(rng) => (pick(rng, 3) != 0).then(|| l + pick(rng, h.depth() - l)),
            kept => *kept,
        })
        .collect();
    let mut predicates: Vec<Predicate> = base
        .predicates
        .iter()
        .map(|p| {
            let mut p = p.clone();
            if let PredicateOp::In(ms) = &mut p.op {
                ms.reverse();
                if coin(rng) {
                    ms.truncate(1 + pick(rng, ms.len()));
                }
            }
            p
        })
        .collect();
    if coin(rng) {
        predicates.push(predicate(rng, schema));
    }
    let mut measures = base.measures.clone();
    if measures.len() > 1 && coin(rng) {
        measures.remove(pick(rng, measures.len()));
    }
    CubeQuery::new("C", GroupBySet::from_slots(slots), predicates, measures)
}

/// `member` of level `from` of hierarchy `hi`, rolled up to level `to`.
fn roll(schema: &CubeSchema, hi: usize, from: usize, to: usize, member: MemberId) -> MemberId {
    schema.hierarchy(hi).unwrap().roll_member(from, to, member).unwrap()
}

fn selects(schema: &CubeSchema, q: &CubeQuery, coord: &[MemberId]) -> bool {
    q.predicates
        .iter()
        .all(|p| p.matches(roll(schema, p.hierarchy, 0, p.level, coord[p.hierarchy])))
}

/// Cell key → Sum per measure of `q`, over the facts `q` selects.
type Answer = BTreeMap<Vec<MemberId>, Vec<f64>>;

fn answer(cube: &Cube, q: &CubeQuery) -> Answer {
    let mut out = Answer::new();
    for (coord, values) in cube.facts.iter().filter(|(c, _)| selects(&cube.schema, q, c)) {
        let key = q
            .group_by
            .included_hierarchies()
            .map(|(hi, li)| roll(&cube.schema, hi, 0, li, coord[hi]))
            .collect();
        let cell = out.entry(key).or_insert_with(|| vec![0.0; q.measures.len()]);
        for (slot, m) in cell.iter_mut().zip(&q.measures) {
            *slot += values[MEASURES.iter().position(|x| x == m).unwrap()];
        }
    }
    out
}

/// `other`'s answer derived from `self`'s: filter `self`'s cells by every
/// `other` predicate that is evaluable on them, roll the survivors up to
/// `other`'s group-by and sum `other`'s measures.
fn derive(schema: &CubeSchema, a: &CubeQuery, cells: &Answer, b: &CubeQuery) -> Answer {
    let mut out = Answer::new();
    for (key, values) in cells {
        // Per hierarchy, the level and member `self`'s cell carries.
        let mut at: Vec<Option<(usize, MemberId)>> = vec![None; schema.hierarchies().len()];
        for ((hi, li), m) in a.group_by.included_hierarchies().zip(key) {
            at[hi] = Some((li, *m));
        }
        let kept = b.predicates.iter().all(|p| match at[p.hierarchy] {
            Some((li, m)) if li <= p.level => p.matches(roll(schema, p.hierarchy, li, p.level, m)),
            _ => true,
        });
        if !kept {
            continue;
        }
        let rolled = b
            .group_by
            .included_hierarchies()
            .map(|(hi, lo)| {
                let (li, m) = at[hi].expect("a usable query carries every grouped hierarchy");
                roll(schema, hi, li, lo, m)
            })
            .collect();
        let cell = out.entry(rolled).or_insert_with(|| vec![0.0; b.measures.len()]);
        for (slot, m) in cell.iter_mut().zip(&b.measures) {
            *slot += values[a.measures.iter().position(|x| x == m).unwrap()];
        }
    }
    out
}

#[test]
fn relate_agrees_with_brute_force_evaluation() {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    test_runner::run(&ProptestConfig::with_cases(512), |rng| {
        let cube = cube(rng);
        let s = &cube.schema;
        let a = query(rng, s);
        let b = match pick(rng, 4) {
            0 => query(rng, s),
            1 => {
                CubeQuery { predicates: a.predicates.iter().rev().cloned().collect(), ..a.clone() }
            }
            _ => near(rng, s, &a),
        };
        let relation = a.relate(&b, s);
        let context = || format!("{relation:?} for\n  self  {a:?}\n  other {b:?}");
        match relation {
            Relation::Disjoint => {
                *seen.entry("disjoint").or_default() += 1;
                for coord in domain(s) {
                    prop_assert!(
                        !(selects(s, &a, &coord) && selects(s, &b, &coord)),
                        "{coord:?} satisfies both: {}",
                        context()
                    );
                }
            }
            Relation::Equal => {
                *seen.entry("equal").or_default() += 1;
                prop_assert_eq!(answer(&cube, &a), answer(&cube, &b), "{}", context());
            }
            Relation::Usable { rollup, .. } => {
                *seen.entry("usable").or_default() += 1;
                prop_assert_eq!(rollup, a.group_by != b.group_by, "{}", context());
                let derived = derive(s, &a, &answer(&cube, &a), &b);
                prop_assert_eq!(derived, answer(&cube, &b), "{}", context());
            }
            Relation::Overlaps => *seen.entry("overlaps").or_default() += 1,
        }
        Ok(())
    });
    assert_eq!(seen.len(), 4, "every outcome occurs among the generated pairs: {seen:?}");
}
