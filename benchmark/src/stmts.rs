//! Statement templates and the seeded request lists of the four
//! workloads. Which template sits where in a workload is fixed — the class
//! shares, and with them the class each percentile lands in, must not
//! depend on the seed — while every parameter (months, years, nations,
//! regions, constants, label bounds, appended rows) is drawn from it.

use std::collections::HashSet;

use serde::Value;

use crate::rng::{draw_rank, zipf_cdf, Rng};

const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

/// The statement shapes of the paper's four intention families, plus the
/// rollups that stress the scan differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// Month slice against the forecast from the six months before it.
    Past,
    /// One year by customer nation, against a constant.
    NationSliced,
    /// One customer nation by customer and year, against the external cube.
    External,
    /// The whole cube by year: no predicate, seven cells.
    RollupYear,
    /// One customer nation by part category, against a sibling nation.
    Sibling,
    /// The whole cube by customer and year, against a constant.
    Constant,
    /// The same, compared as a share of the total and labelled by quartile.
    ConstantQuartiles,
}

impl Template {
    pub const ALL: [Template; 7] = [
        Template::Past,
        Template::NationSliced,
        Template::External,
        Template::RollupYear,
        Template::Sibling,
        Template::Constant,
        Template::ConstantQuartiles,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Template::Past => "past",
            Template::NationSliced => "nation_sliced",
            Template::External => "external",
            Template::RollupYear => "rollup_year",
            Template::Sibling => "sibling",
            Template::Constant => "constant",
            Template::ConstantQuartiles => "constant_quartiles",
        }
    }

    /// One statement of this shape with freshly drawn parameters.
    pub fn text(self, rng: &mut Rng) -> String {
        match self {
            Template::Past => {
                let (lo, hi) = label_bounds(rng);
                let (year, month) = (rng.between(1993, 1998), rng.between(1, 12));
                format!(
                    "with SSB for month = '{year}-{month:02}' by supplier, month \
                     assess revenue against past 6 using ratio(revenue, benchmark.revenue) \
                     labels {{[0, {lo}): worse, [{lo}, {hi}]: fine, ({hi}, inf]: better}}"
                )
            }
            Template::NationSliced => {
                let year = rng.between(1992, 1998);
                let k = rng.between(1_000_000, 999_999_999);
                format!(
                    "with SSB for year = '{year}' by c_nation, year \
                     assess revenue against {k} using ratio(revenue, {k}) \
                     labels {{[0, 1): low, [1, inf]: high}}"
                )
            }
            Template::External => {
                let (lo, hi) = label_bounds(rng);
                let nation = *rng.pick(&NATIONS);
                format!(
                    "with SSB for c_nation = '{nation}' by customer, year \
                     assess revenue against SSB_EXPECTED.expected_revenue \
                     using ratio(revenue, benchmark.expected_revenue) \
                     labels {{[0, {lo}): below, [{lo}, {hi}]: expected, ({hi}, inf]: above}}"
                )
            }
            Template::RollupYear => {
                let k = rng.between(1_000_000, 999_999_999);
                format!(
                    "with SSB by year assess revenue against {k} using ratio(revenue, {k}) \
                     labels {{[0, 1): low, [1, inf]: high}}"
                )
            }
            Template::Sibling => {
                let (lo, hi) = label_bounds(rng);
                let target = rng.below(25) as usize;
                let sibling = (target + 1 + rng.below(24) as usize) % 25;
                format!(
                    "with SSB for c_nation = '{}' by category, c_nation \
                     assess revenue against c_nation = '{}' \
                     using ratio(revenue, benchmark.revenue) \
                     labels {{[0, {lo}): behind, [{lo}, {hi}]: close, ({hi}, inf]: ahead}}",
                    NATIONS[target], NATIONS[sibling]
                )
            }
            Template::Constant => {
                let k = rng.between(1_200_000, 1_400_000);
                format!(
                    "with SSB by customer, year assess revenue against {k} \
                     using ratio(revenue, {k}) \
                     labels {{[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}}"
                )
            }
            Template::ConstantQuartiles => {
                let k = rng.between(1_200_000, 1_400_000);
                format!(
                    "with SSB by customer, year assess revenue against {k} \
                     using percOfTotal(difference(revenue, {k})) labels quartiles"
                )
            }
        }
    }
}

/// Label bounds around 1 for ratio comparisons, three decimals.
fn label_bounds(rng: &mut Rng) -> (String, String) {
    let lo = 0.80 + 0.15 * rng.unit();
    let hi = 1.05 + 0.15 * rng.unit();
    (format!("{lo:.3}"), format!("{hi:.3}"))
}

/// One statement a workload issues, with the op class it is timed under.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    pub template: Template,
    pub class: &'static str,
    pub text: String,
}

/// Draws one statement per entry of `layout`, all distinct.
fn draw_distinct(
    layout: impl Iterator<Item = (Template, &'static str)>,
    rng: &mut Rng,
) -> Vec<Statement> {
    let mut seen = HashSet::new();
    layout
        .map(|(template, class)| loop {
            let text = template.text(rng);
            if seen.insert(text.clone()) {
                break Statement { template, class, text };
            }
        })
        .collect()
}

// ------------------------------------------------------------ in-process

/// `scan_cold`: the four cheap shapes hold the first 31 % of the latency
/// order, rollup_year ranks 31–77 % and constant the top 23 %, so p50 sits
/// 19 points inside its class and p95 18.
const SCAN_COLD_ROUND: [Template; 13] = [
    Template::RollupYear,
    Template::Past,
    Template::Constant,
    Template::RollupYear,
    Template::External,
    Template::RollupYear,
    Template::Constant,
    Template::RollupYear,
    Template::NationSliced,
    Template::RollupYear,
    Template::Sibling,
    Template::Constant,
    Template::RollupYear,
];

/// `assess_views`: the three cheap shapes hold the first 33 %, constant
/// ranks 33–78 % and constant_quartiles the top 22 %: 17 points each.
const ASSESS_VIEWS_ROUND: [Template; 9] = [
    Template::Constant,
    Template::Past,
    Template::ConstantQuartiles,
    Template::Constant,
    Template::External,
    Template::Constant,
    Template::Sibling,
    Template::ConstantQuartiles,
    Template::Constant,
];

/// Rounds with different parameters before the statements repeat.
const ROUND_VARIANTS: usize = 4;

/// The op mix of an in-process workload: round `r` issues
/// `statements[(r % variants) * round_len ..][..round_len]` in order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    pub round_len: usize,
    pub statements: Vec<Statement>,
}

impl RoundPlan {
    /// Rounds before the statements repeat.
    pub fn variants(&self) -> usize {
        self.statements.len() / self.round_len
    }

    /// Indices into `statements` of round `r`'s ops.
    pub fn round_range(&self, r: usize) -> std::ops::Range<usize> {
        let start = (r % self.variants()) * self.round_len;
        start..start + self.round_len
    }

    pub fn round(&self, r: usize) -> &[Statement] {
        &self.statements[self.round_range(r)]
    }
}

fn round_plan(round: &[Template], seed: u64, salt: &str) -> RoundPlan {
    let mut rng = Rng::new(seed, salt);
    let layout = (0..ROUND_VARIANTS).flat_map(|_| round.iter().map(|&t| (t, t.name())));
    RoundPlan { round_len: round.len(), statements: draw_distinct(layout, &mut rng) }
}

// -------------------------------------------------------------- serve_hot

pub const HOT_STATEMENTS: usize = 32;
pub const HOT_CLIENTS: usize = 2;

/// The popularity rank (1-based) of each `serve_hot` statement decides its
/// shape, so the Zipf weights give hit_small 75 %, hit_mid 4 % and
/// hit_large 21 % of the requests whatever the seed: p50 sits 25 points
/// inside hit_small, p95 16 points inside hit_large.
fn hot_layout(rank: usize) -> (Template, &'static str) {
    const SMALL: [Template; 4] =
        [Template::Past, Template::NationSliced, Template::RollupYear, Template::Sibling];
    const LARGE: [Template; 2] = [Template::Constant, Template::ConstantQuartiles];
    match rank {
        3 | 7 | 10 | 12 | 14 | 19 | 25 | 31 => (LARGE[rank % 2], "hit_large"),
        13 | 22 | 29 => (Template::External, "hit_mid"),
        _ => (SMALL[rank % 4], "hit_small"),
    }
}

/// One in four requests arrives rewritten, so the server's statement
/// normalisation has work to do and the cache key still matches.
fn rewrite(text: &str, rng: &mut Rng) -> String {
    match rng.below(8) {
        0 => format!("-- refresh {}\n{text}", rng.below(1000)),
        1 => {
            let mut out = text.to_string();
            for word in ["with", "for", "by", "assess", "against", "using", "labels"] {
                out = out.replace(&format!("{word} "), &format!("{} ", word.to_uppercase()));
            }
            out
        }
        _ => text.to_string(),
    }
}

/// The `serve_hot` inputs: the statements in popularity order and one
/// endless request stream per client.
#[derive(Debug, Clone)]
pub struct HotPlan {
    pub statements: Vec<Statement>,
    cdf: Vec<f64>,
    seed: u64,
}

/// A request of `serve_hot`: which statement, and the text as sent.
#[derive(Debug, Clone, PartialEq)]
pub struct HotRequest {
    pub statement: usize,
    pub text: String,
}

impl HotPlan {
    /// The request stream of client `client`.
    pub fn requests(&self, client: usize) -> impl Iterator<Item = HotRequest> + '_ {
        let mut rng = Rng::new(self.seed, &format!("serve_hot.client{client}"));
        std::iter::repeat_with(move || {
            let statement = draw_rank(&self.cdf, &mut rng);
            HotRequest { statement, text: rewrite(&self.statements[statement].text, &mut rng) }
        })
    }
}

fn hot_plan(seed: u64) -> HotPlan {
    let mut rng = Rng::new(seed, "serve_hot.statements");
    let statements = draw_distinct((1..=HOT_STATEMENTS).map(hot_layout), &mut rng);
    HotPlan { statements, cdf: zipf_cdf(HOT_STATEMENTS), seed }
}

// ------------------------------------------------------------ serve_churn

pub const CHURN_STATEMENTS: usize = 1024;
/// Reads per second on connection A.
pub const CHURN_RUNS_PER_S: u64 = 16;
/// Appends per second on connection B: one op in five, so p95 sits 15
/// points inside the append class.
pub const CHURN_APPENDS_PER_S: u64 = 4;
/// How long after an append is due the next read is. Both schedules are
/// periodic, four reads to an append, so a read meets an append cycle at a
/// fixed point of it, and a cycle takes 45–80 ms: with this phase one read
/// in four is due 25 ms into a cycle and the others 88, 150 and 213 ms
/// after its start, well clear of its end. The overall median is the
/// reads' 62nd percentile, so it stays among the three reads in four that
/// no cycle disturbs. (At 36 + 9 ops/s with a read due as each append was,
/// another followed 56 ms later — the length of a cycle — and the median
/// flipped between 1.1 and 2.5 ms with the host's speed.)
const READ_AFTER_APPEND_US: u64 = 25_000;
pub const APPEND_ROWS: usize = 64;

/// Five statements in six have small results, so run_miss's median is well
/// inside that latency mode; the rest keep large results moving through
/// the cache.
fn churn_layout(index: usize) -> (Template, &'static str) {
    const MIX: [Template; 12] = [
        Template::Past,
        Template::NationSliced,
        Template::RollupYear,
        Template::External,
        Template::Past,
        Template::NationSliced,
        Template::RollupYear,
        Template::Sibling,
        Template::Past,
        Template::NationSliced,
        Template::RollupYear,
        Template::Constant,
    ];
    (MIX[index % MIX.len()], "run_miss")
}

/// Row-count domains of the generated dimensions, for in-domain appends.
#[derive(Debug, Clone, Copy)]
pub struct Domains {
    pub customers: u64,
    pub suppliers: u64,
    pub parts: u64,
    pub dates: u64,
}

/// One op of the `serve_churn` schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    /// `run` of `statements[i]`, due `due_us` after the window opens.
    Run { due_us: u64, statement: usize },
    /// `append` of this batch (the `rows` object of the request).
    Append { due_us: u64, rows: Value },
}

/// The `serve_churn` inputs: the statements, the one the writer subscribes
/// to, and both connections' schedules.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    pub statements: Vec<Statement>,
    pub subscribed: Statement,
    seed: u64,
}

/// A batch of [`APPEND_ROWS`] fact rows with in-domain foreign keys and
/// whole-number measures, as the `rows` object of an `append` request.
pub fn append_batch(domains: Domains, rng: &mut Rng) -> Value {
    let mut column = |name: &str, lo: u64, hi: u64| {
        let values = (0..APPEND_ROWS).map(|_| Value::Number(rng.between(lo, hi) as f64)).collect();
        (name.to_string(), Value::Array(values))
    };
    Value::Object(vec![
        column("ckey", 0, domains.customers - 1),
        column("skey", 0, domains.suppliers - 1),
        column("pkey", 0, domains.parts - 1),
        column("dkey", 0, domains.dates - 1),
        column("quantity", 1, 50),
        column("discount", 0, 10),
        column("extendedprice", 90_000, 10_000_000),
        column("revenue", 80_000, 9_000_000),
        column("supplycost", 50_000, 6_000_000),
    ])
}

impl ChurnPlan {
    /// Connection A's schedule: a uniformly drawn statement every
    /// `1 / CHURN_RUNS_PER_S` seconds, in phase with the appends as
    /// [`READ_AFTER_APPEND_US`] says.
    pub fn runs(&self, seconds: f64) -> Vec<ChurnOp> {
        let mut rng = Rng::new(self.seed, "serve_churn.runs");
        let count = (seconds * CHURN_RUNS_PER_S as f64) as u64;
        (0..count)
            .map(|i| ChurnOp::Run {
                due_us: READ_AFTER_APPEND_US + i * 1_000_000 / CHURN_RUNS_PER_S,
                statement: rng.below(self.statements.len() as u64) as usize,
            })
            .collect()
    }

    /// Connection B's schedule: a batch every `1 / CHURN_APPENDS_PER_S`
    /// seconds, the first as the third read is due.
    pub fn appends(&self, seconds: f64, domains: Domains) -> Vec<ChurnOp> {
        let mut rng = Rng::new(self.seed, "serve_churn.appends");
        let count = (seconds * CHURN_APPENDS_PER_S as f64) as u64;
        let period_us = 1_000_000 / CHURN_APPENDS_PER_S;
        (0..count)
            .map(|i| ChurnOp::Append {
                due_us: i * period_us + period_us / 2,
                rows: append_batch(domains, &mut rng),
            })
            .collect()
    }
}

fn churn_plan(seed: u64) -> ChurnPlan {
    let mut rng = Rng::new(seed, "serve_churn.statements");
    let mut statements = draw_distinct(
        (0..=CHURN_STATEMENTS).map(|i| match i {
            CHURN_STATEMENTS => (Template::Constant, "append"),
            _ => churn_layout(i),
        }),
        &mut rng,
    );
    let subscribed = statements.pop().expect("the subscribed statement was drawn last");
    ChurnPlan { statements, subscribed, seed }
}

// ------------------------------------------------------------------ plans

/// Everything a workload issues, made from the seed alone. The variant is
/// the workload's shape: who drives the timed ops, and how.
#[derive(Debug, Clone)]
pub enum Plan {
    /// One caller of `AssessRunner::run_auto`, rounds of a fixed op mix.
    Rounds(RoundPlan),
    /// Closed-loop `LineClient`s over a cached working set.
    Hot(HotPlan),
    /// Paced reads beside a subscribed writer.
    Churn(ChurnPlan),
}

pub fn scan_cold(seed: u64) -> Plan {
    Plan::Rounds(round_plan(&SCAN_COLD_ROUND, seed, "scan_cold"))
}

pub fn assess_views(seed: u64) -> Plan {
    Plan::Rounds(round_plan(&ASSESS_VIEWS_ROUND, seed, "assess_views"))
}

pub fn serve_hot(seed: u64) -> Plan {
    Plan::Hot(hot_plan(seed))
}

pub fn serve_churn(seed: u64) -> Plan {
    Plan::Churn(churn_plan(seed))
}

impl Plan {
    /// The distinct statements of the workload.
    pub fn statements(&self) -> &[Statement] {
        match self {
            Plan::Rounds(p) => &p.statements,
            Plan::Hot(p) => &p.statements,
            Plan::Churn(p) => &p.statements,
        }
    }

    /// The first `n` requests as the system would receive them, one line
    /// each — what "the same seed gives the same inputs" is tested on.
    #[cfg(test)]
    pub fn request_list(&self, n: usize, domains: Domains) -> Vec<String> {
        match self {
            Plan::Rounds(p) => {
                (0..).flat_map(|r| p.round(r).iter().map(|s| s.text.clone())).take(n).collect()
            }
            Plan::Hot(p) => {
                let per_client = n.div_ceil(HOT_CLIENTS);
                (0..HOT_CLIENTS)
                    .flat_map(|c| p.requests(c).take(per_client).map(|r| r.text))
                    .take(n)
                    .collect()
            }
            Plan::Churn(p) => {
                let seconds = n as f64 / CHURN_RUNS_PER_S as f64;
                let mut ops = p.runs(seconds);
                ops.extend(p.appends(seconds, domains));
                ops.sort_by_key(|op| match op {
                    ChurnOp::Run { due_us, .. } | ChurnOp::Append { due_us, .. } => *due_us,
                });
                ops.iter()
                    .map(|op| match op {
                        ChurnOp::Run { statement, .. } => p.statements[*statement].text.clone(),
                        ChurnOp::Append { rows, .. } => {
                            serde_json::to_string(rows).unwrap_or_default()
                        }
                    })
                    .take(n)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    const DOMAINS: Domains = Domains { customers: 300, suppliers: 20, parts: 400, dates: 2557 };

    #[test]
    fn every_template_parses_for_many_draws() {
        let mut rng = Rng::new(11, "parse");
        for template in Template::ALL {
            for _ in 0..50 {
                let text = template.text(&mut rng);
                assess_sql::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            }
        }
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for workload in WORKLOADS {
            let list = |seed| (workload.plan)(seed).request_list(400, DOMAINS).join("\n");
            assert_eq!(list(5).into_bytes(), list(5).into_bytes(), "{}", workload.name);
            assert_ne!(list(5), list(6), "{}", workload.name);
            assert_eq!((workload.plan)(5).request_list(400, DOMAINS).len(), 400);
        }
    }

    #[test]
    fn statements_are_distinct_after_normalisation() {
        for workload in WORKLOADS {
            let plan = (workload.plan)(9);
            let normal: HashSet<String> =
                plan.statements().iter().map(|s| assess_core::stmt::normalize(&s.text)).collect();
            assert_eq!(normal.len(), plan.statements().len(), "{}", workload.name);
        }
        assert_eq!(serve_churn(9).statements().len(), CHURN_STATEMENTS);
    }

    #[test]
    fn rewrites_keep_the_cache_key() {
        let mut rng = Rng::new(2, "rewrite");
        let plan = hot_plan(2);
        let mut rewritten = 0;
        for statement in &plan.statements {
            for _ in 0..16 {
                let text = rewrite(&statement.text, &mut rng);
                rewritten += usize::from(text != statement.text);
                assert_eq!(
                    assess_core::stmt::normalize(&text),
                    assess_core::stmt::normalize(&statement.text)
                );
            }
        }
        // One request in four, give or take.
        assert!((64..=192).contains(&rewritten), "{rewritten} of 512 rewritten");
    }

    #[test]
    fn class_shares_put_each_percentile_fifteen_points_inside_its_class() {
        // In-process rounds: shares follow from the multiplicities. Classes
        // are listed cheapest first, as measured at the seed commit.
        let share = |round: &[Template], of: &[Template]| {
            round.iter().filter(|t| of.contains(t)).count() as f64 / round.len() as f64
        };
        let cheap = share(
            &SCAN_COLD_ROUND,
            &[Template::Past, Template::NationSliced, Template::External, Template::Sibling],
        );
        let rollup = share(&SCAN_COLD_ROUND, &[Template::RollupYear]);
        assert!(cheap <= 0.35 && cheap + rollup >= 0.65);
        assert!(share(&SCAN_COLD_ROUND, &[Template::Constant]) >= 0.20);
        let cheap =
            share(&ASSESS_VIEWS_ROUND, &[Template::Past, Template::External, Template::Sibling]);
        let constant = share(&ASSESS_VIEWS_ROUND, &[Template::Constant]);
        assert!(cheap <= 0.35 && cheap + constant >= 0.65);
        assert!(share(&ASSESS_VIEWS_ROUND, &[Template::ConstantQuartiles]) >= 0.20);

        // serve_hot: Zipf weights per class.
        let cdf = zipf_cdf(HOT_STATEMENTS);
        let mut shares = std::collections::BTreeMap::new();
        for rank in 1..=HOT_STATEMENTS {
            let weight = cdf[rank - 1] - if rank > 1 { cdf[rank - 2] } else { 0.0 };
            *shares.entry(hot_layout(rank).1).or_insert(0.0) += weight;
        }
        assert!(shares["hit_small"] >= 0.65, "{shares:?}");
        assert!(shares["hit_large"] >= 0.20, "{shares:?}");

        // serve_churn: appends are the slowest fifth of the ops, and small
        // statements are more than 65 % of all ops.
        let appends = CHURN_APPENDS_PER_S as f64 / (CHURN_APPENDS_PER_S + CHURN_RUNS_PER_S) as f64;
        assert!(appends >= 0.20);
        let small = (0..12)
            .filter(|&i| !matches!(churn_layout(i).0, Template::External | Template::Constant))
            .count() as f64
            / 12.0;
        assert!(small * (1.0 - appends) >= 0.65);
    }

    #[test]
    fn append_batches_are_in_domain() {
        let mut rng = Rng::new(4, "append");
        let batch = append_batch(DOMAINS, &mut rng);
        let Value::Object(columns) = &batch else { panic!("object expected") };
        assert_eq!(columns.len(), 9);
        for (name, values) in columns {
            let values = values.as_array().expect("array");
            assert_eq!(values.len(), APPEND_ROWS);
            let max = values.iter().filter_map(Value::as_f64).fold(0.0, f64::max);
            match name.as_str() {
                "ckey" => assert!(max < 300.0),
                "skey" => assert!(max < 20.0),
                "pkey" => assert!(max < 400.0),
                "dkey" => assert!(max < 2557.0),
                _ => assert!(values.iter().all(|v| v.as_f64().is_some_and(|x| x.fract() == 0.0))),
            }
        }
    }
}
