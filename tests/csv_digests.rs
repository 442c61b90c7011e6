//! Golden digests of assessed results: for the seven statement shapes the
//! repository benchmark issues, plus quantile, z-score, rank, repeated-label
//! and gapped-range variants, the cell count and the FNV-64 of `to_csv` and
//! of `label_histogram`, at SF 0.01 (data seed 1), with views on and off,
//! under `run_auto` and the Naive Plan. The file was recorded from the
//! string-labelled implementation the label codes replaced, so any change
//! in a label, a value or a row order shows here.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test csv_digests` (the
//! `#` header lines of the existing file are kept).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use assess_olap::assess::exec::AssessRunner;
use assess_olap::assess::plan::Strategy;
use assess_olap::engine::{Engine, EngineConfig};
use assess_olap::ssb::{generate::generate, views, SsbConfig};

const STATEMENTS: &[(&str, &str)] = &[
    (
        "past",
        "with SSB for month = '1997-06' by supplier, month assess revenue against past 6 \
         using ratio(revenue, benchmark.revenue) \
         labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf]: better}",
    ),
    (
        "nation_sliced",
        "with SSB for year = '1995' by c_nation, year assess revenue against 500000000 \
         using ratio(revenue, 500000000) labels {[0, 1): low, [1, inf]: high}",
    ),
    (
        "external",
        "with SSB for c_nation = 'JAPAN' by customer, year \
         assess revenue against SSB_EXPECTED.expected_revenue \
         using ratio(revenue, benchmark.expected_revenue) \
         labels {[0, 0.9): below, [0.9, 1.1]: expected, (1.1, inf]: above}",
    ),
    (
        "rollup_year",
        "with SSB by year assess revenue against 500000000 using ratio(revenue, 500000000) \
         labels {[0, 1): low, [1, inf]: high}",
    ),
    (
        "sibling",
        "with SSB for c_nation = 'FRANCE' by category, c_nation \
         assess revenue against c_nation = 'GERMANY' using ratio(revenue, benchmark.revenue) \
         labels {[0, 0.9): behind, [0.9, 1.1]: close, (1.1, inf]: ahead}",
    ),
    (
        "constant",
        "with SSB by customer, year assess revenue against 1300000 \
         using ratio(revenue, 1300000) \
         labels {[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}",
    ),
    (
        "constant_quartiles",
        "with SSB by customer, year assess revenue against 1300000 \
         using percOfTotal(difference(revenue, 1300000)) labels quartiles",
    ),
    (
        "constant_deciles",
        "with SSB by customer, year assess revenue against 1300000 \
         using percOfTotal(difference(revenue, 1300000)) labels deciles",
    ),
    (
        "sibling_terciles",
        "with SSB for c_region = 'ASIA' by part, c_region \
         assess revenue against c_region = 'AMERICA' \
         using percOfTotal(difference(revenue, benchmark.revenue)) labels terciles",
    ),
    (
        "constant_zscore",
        "with SSB by customer, year assess revenue against 1300000 \
         using ratio(revenue, 1300000) labels zscore",
    ),
    (
        "constant_rank_quintiles",
        "with SSB by customer, year assess revenue against 1300000 \
         using rank(difference(revenue, 1300000)) labels quintiles",
    ),
    (
        "constant_repeated_label",
        "with SSB by customer, year assess revenue against 1300000 \
         using ratio(revenue, 1300000) \
         labels {[0, 0.5): edge, [0.5, 1.5]: par, (1.5, inf]: edge}",
    ),
    (
        "constant_gap",
        "with SSB by customer, year assess revenue against 1300000 \
         using ratio(revenue, 1300000) labels {[0, 0.5): low, (1.5, inf]: high}",
    ),
];

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn histogram_text(hist: &BTreeMap<String, usize>) -> String {
    hist.iter().fold(String::new(), |mut out, (label, n)| {
        let _ = writeln!(out, "{label}\t{n}");
        out
    })
}

fn digests() -> String {
    let dataset = generate(SsbConfig { seed: 1, ..SsbConfig::with_scale(0.01) });
    views::register_default_views(&dataset.catalog, &dataset.schema).unwrap();
    let mut out = String::new();
    for views_on in [false, true] {
        let config = EngineConfig { use_views: views_on, ..EngineConfig::default() };
        let runner = AssessRunner::new(Engine::with_config(dataset.catalog.clone(), config));
        for (name, text) in STATEMENTS {
            let statement = assess_olap::sql::parse(text).unwrap();
            for (how, strategy) in [("auto", None), ("np", Some(Strategy::Naive))] {
                let (cube, _) = match strategy {
                    None => runner.run_auto(&statement),
                    Some(s) => runner.run(&statement, s),
                }
                .unwrap_or_else(|e| panic!("{name}/{how}: {e}"));
                let _ = writeln!(
                    out,
                    "{name} views={} {how} cells={} csv={:016x} hist={:016x}",
                    if views_on { "on" } else { "off" },
                    cube.len(),
                    fnv64(cube.to_csv().as_bytes()),
                    fnv64(histogram_text(&cube.label_histogram()).as_bytes()),
                );
            }
        }
    }
    out
}

#[test]
fn csv_and_histogram_digests_match_the_recorded_ones() {
    let actual = digests();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/csv_digests.txt");
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let (header, expected): (Vec<&str>, Vec<&str>) =
        existing.lines().partition(|line| line.starts_with('#'));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let mut text: String = header.iter().map(|h| format!("{h}\n")).collect();
        text.push_str(&actual);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    assert!(!expected.is_empty(), "missing tests/golden/csv_digests.txt");
    let actual: Vec<&str> = actual.lines().collect();
    assert_eq!(actual, expected, "assessed results diverge from tests/golden/csv_digests.txt");
}
