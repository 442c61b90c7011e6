//! Golden-file test pinning the rendered output of the workload analyzer:
//! the W107/W108/W109 diagnostics and the sharing matrix for a small
//! dashboard-style workload over generated SSB data (SF 0.01, the same
//! deterministic dataset the `w105` golden uses). Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p assess-core --test workload_golden`.

use std::path::Path;

use assess_core::diag::{self, DiagCode};
use assess_core::stmt;
use assess_core::workload::{WorkloadAnalyzer, WorkloadStatement};
use olap_engine::Engine;
use ssb_data::{generate::generate, views, SsbConfig};

/// Four statements with deliberate workload-level smells: #2 repeats #1's
/// target get (W107), #3's two-year probe contains the targets of #1 and #2,
/// so each is a slice of #3's result (W108), and #4's wide customer × year
/// sweep dwarfs the three year probes in estimated cost (W109).
const WORKLOAD: &str = "\
with SSB for year = '1997' by year assess revenue against 1000000 \
using ratio(revenue, 1000000) labels {[0, 1): low, [1, inf]: high};
with SSB for year = '1997' by year assess revenue against 2000000 \
using ratio(revenue, 2000000) labels {[0, 1): low, [1, inf]: high};
with SSB for year in ('1996', '1997') by year assess revenue against 1500000 \
using ratio(revenue, 1500000) labels {[0, 1): low, [1, inf]: high};
with SSB by customer, year assess revenue against 45000000 \
using ratio(revenue, 45000000) \
labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf]: good}";

fn golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {name}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "rendered workload report diverges from tests/golden/{name}"
    );
}

fn parse_workload(text: &str) -> Vec<WorkloadStatement> {
    stmt::split_statements(text)
        .into_iter()
        .map(|(offset, text)| {
            let spanned = assess_sql::parse_spanned(&text).expect("workload statement parses");
            WorkloadStatement {
                text,
                statement: spanned.statement,
                spans: Some(spanned.spans),
                offset,
            }
        })
        .collect()
}

#[test]
fn workload_lints_and_matrix_render_stably() {
    let dataset = generate(SsbConfig::with_scale(0.01));
    views::register_default_views(&dataset.catalog, &dataset.schema).unwrap();
    let statements = parse_workload(WORKLOAD);
    let engine = Engine::new(dataset.catalog.clone());
    let report =
        WorkloadAnalyzer::new(dataset.catalog.as_ref()).with_engine(&engine).analyze(&statements);

    for code in [DiagCode::W107, DiagCode::W108, DiagCode::W109] {
        assert!(
            report.diagnostics.iter().any(|d| d.code == code),
            "missing {code} in {:?}",
            report.diagnostics
        );
    }
    // The matrix is symmetric with an empty diagonal.
    for (i, row) in report.matrix.iter().enumerate() {
        assert_eq!(row[i], 0, "diagonal must be empty");
        for (j, &cell) in row.iter().enumerate() {
            assert_eq!(cell, report.matrix[j][i], "matrix must be symmetric");
        }
    }

    let rendered = format!(
        "{}\n{}",
        diag::render_all(&report.diagnostics, Some(WORKLOAD)),
        report.render_matrix()
    );
    golden("workload.txt", &rendered);
}

/// W108 needs every predicate the narrow target adds to be evaluable on the
/// wide target's cells. `for year = '1997' by year` sums every region, so
/// its cells do not hold one region's revenue; grouping by `c_region` too
/// makes the region slice a slice of its cells.
#[test]
fn w108_needs_the_added_predicate_on_a_grouped_level() {
    let dataset = generate(SsbConfig::with_scale(0.01));
    let w108 = |text: &str| {
        let report = WorkloadAnalyzer::new(dataset.catalog.as_ref()).analyze(&parse_workload(text));
        report.diagnostics.iter().filter(|d| d.code == DiagCode::W108).count()
    };
    let statement = |slice: &str, by: &str| {
        format!(
            "with SSB for {slice} by {by} assess revenue against 1000000 \
             using ratio(revenue, 1000000) labels {{[0, 1): low, [1, inf]: high}};"
        )
    };
    let asia = "year = '1997', c_region = 'ASIA'";
    let by_year = [statement("year = '1997'", "year"), statement(asia, "year")].concat();
    assert_eq!(w108(&by_year), 0, "a year total is no region's total");
    let by_region =
        [statement("year = '1997'", "year, c_region"), statement(asia, "year, c_region")].concat();
    assert_eq!(w108(&by_region), 1, "the region slice of a by-region result");
}
