//! Golden-file test pinning the full SQL and Python that
//! `assess_core::codegen::generate` emits for the four Table 1 intentions
//! and for one `against ancestor` statement (the JOP join path), together
//! with the character counts Table 1 reports. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p assess-bench --test table1_golden`.

use std::path::Path;

use assess_bench::scales::setup;
use assess_bench::workloads::intention_texts;

/// The ancestor-benchmark statement of `examples/per_capita.assess`.
const ANCESTOR: &str = "with SSB\n\
    by s_nation\n\
    assess revenue against ancestor s_region\n\
    using percentage(revenue, benchmark.revenue)\n\
    labels {[0, 10): minor, [10, 30]: typical, (30, 100]: dominant}";

#[test]
fn table1_code_renders_stably() {
    let env = setup(0.001, false);
    let mut statements = intention_texts();
    statements.push(("Ancestor", ANCESTOR.to_string()));
    let mut actual = String::new();
    for (name, text) in statements {
        let statement = assess_sql::parse(&text).expect("statement parses");
        let resolved = env.runner.resolve(&statement).expect("statement resolves");
        let code = assess_core::codegen::generate(&resolved, env.runner.engine().catalog())
            .expect("code generation succeeds");
        actual.push_str(&format!(
            "=== {name}: SQL {} / Python {} / Total {} / assess {}\n--- SQL\n{}\n--- Python\n{}\n",
            code.sql_chars(),
            code.python_chars(),
            code.total_chars(),
            statement.to_string().chars().count(),
            code.sql,
            code.python,
        ));
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/table1_golden.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("missing tests/table1_golden.txt; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(actual, expected, "generated Table 1 code diverges from tests/table1_golden.txt");
}
