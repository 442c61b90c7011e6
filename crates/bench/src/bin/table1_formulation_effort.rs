//! Table 1 — formulation effort: characters of generated SQL + Python against
//! the assess statement, per intention.

fn main() {
    assess_bench::artifacts::table1().publish();
}
