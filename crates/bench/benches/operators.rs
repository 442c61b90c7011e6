//! Operator-level ablations: materialized views on/off, sequential vs
//! parallel scans, and the three slice-alignment paths (in-memory join,
//! fused join, fused pivot) on identical inputs — the microscopic version of
//! the P3/POP argument.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use olap_engine::{AttachSpec, Engine, EngineConfig, JoinKind, Keep, Rewrite};
use olap_model::{CubeQuery, GroupBySet, Predicate};
use ssb_data::{generate::generate, views, SsbConfig};

const SF: f64 = 0.01;

fn bench_view_matching(c: &mut Criterion) {
    let ds = generate(SsbConfig::with_scale(SF));
    views::register_default_views(&ds.catalog, &ds.schema).unwrap();
    let with_views = Engine::new(Arc::clone(&ds.catalog));
    let without = Engine::with_config(
        Arc::clone(&ds.catalog),
        EngineConfig { use_views: false, ..EngineConfig::default() },
    );
    let q = CubeQuery::new(
        "SSB",
        GroupBySet::from_level_names(&ds.schema, &["customer", "year"]).unwrap(),
        vec![Predicate::eq(&ds.schema, "c_region", "ASIA").unwrap()],
        vec!["revenue".into()],
    );
    let mut group = c.benchmark_group("get_customer_year");
    group
        .bench_function("materialized_view", |b| b.iter(|| with_views.get(&q).unwrap().cube.len()));
    group.bench_function("fact_scan", |b| b.iter(|| without.get(&q).unwrap().cube.len()));
    group.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let ds = generate(SsbConfig::with_scale(SF));
    let seq = Engine::with_config(
        Arc::clone(&ds.catalog),
        EngineConfig { use_views: false, max_threads: 1, ..EngineConfig::default() },
    );
    let par = Engine::with_config(
        Arc::clone(&ds.catalog),
        EngineConfig {
            use_views: false,
            morsel_rows: 1 << 13,
            parallel_threshold: 1,
            ..EngineConfig::default()
        },
    );
    let q = CubeQuery::new(
        "SSB",
        GroupBySet::from_level_names(&ds.schema, &["part", "c_nation"]).unwrap(),
        vec![],
        vec!["revenue".into()],
    );
    let mut group = c.benchmark_group("fact_scan_parallelism");
    group.bench_function("sequential", |b| b.iter(|| seq.get(&q).unwrap().cube.len()));
    group.bench_function("parallel", |b| b.iter(|| par.get(&q).unwrap().cube.len()));
    group.finish();
}

fn bench_slice_alignment(c: &mut Criterion) {
    let ds = generate(SsbConfig::with_scale(SF));
    let engine = Engine::with_config(
        Arc::clone(&ds.catalog),
        EngineConfig { use_views: false, ..EngineConfig::default() },
    );
    let g = GroupBySet::from_level_names(&ds.schema, &["part", "c_region"]).unwrap();
    let target = CubeQuery::new(
        "SSB",
        g.clone(),
        vec![Predicate::eq(&ds.schema, "c_region", "ASIA").unwrap()],
        vec!["revenue".into()],
    );
    let bench_q = CubeQuery::new(
        "SSB",
        g.clone(),
        vec![Predicate::eq(&ds.schema, "c_region", "AMERICA").unwrap()],
        vec!["revenue".into()],
    );
    let q_all = CubeQuery::new(
        "SSB",
        g,
        vec![Predicate::is_in(&ds.schema, "c_region", &["ASIA", "AMERICA"]).unwrap()],
        vec!["revenue".into()],
    );
    let region = ds.schema.hierarchy(0).unwrap().level(3).unwrap();
    let asia = region.member_id("ASIA").unwrap();
    let america = region.member_id("AMERICA").unwrap();
    let names = vec!["benchmark.revenue".to_string()];

    let mut group = c.benchmark_group("slice_alignment");
    group.bench_function("memory_join_of_two_gets", |b| {
        b.iter(|| {
            let l = engine.get(&target).unwrap().cube;
            let r = engine.get(&bench_q).unwrap().cube;
            let spec = AttachSpec {
                on: Some(0),
                rewrites: vec![Rewrite::Member(america)],
                keep: Keep::Matched,
                measure: "revenue",
                names: &names,
            };
            assess_core::memops::attach(&l, Some(&r), &spec, None).unwrap().len()
        })
    });
    group.bench_function("fused_join", |b| {
        b.iter(|| {
            engine
                .get_join_sliced(
                    &target,
                    &bench_q,
                    0,
                    &[america],
                    "revenue",
                    &names,
                    JoinKind::Inner,
                )
                .unwrap()
                .cube
                .len()
        })
    });
    group.bench_function("fused_pivot", |b| {
        b.iter(|| {
            engine.get_pivot(&q_all, 0, asia, &[america], "revenue", &names).unwrap().cube.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_view_matching, bench_parallel_scan, bench_slice_alignment);
criterion_main!(benches);
