//! End-to-end tests over a real TCP connection: boot a server on an
//! ephemeral port, talk the line protocol with [`LineClient`], and check
//! the acceptance criteria of the serving layer — concurrent sessions get
//! serial-identical answers, warm-cache repeats skip execution, client
//! `cancel` reaches in-flight runs, and overload is refused crisply.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use assess_core::exec::AssessRunner;
use olap_engine::Engine;
use olap_storage::{Catalog, Table};
use serde::Value;
use ssb_data::SsbConfig;

use assess_serve::{
    serve, LineClient, RetryPolicy, ServerConfig, ServerHandle, TenantDirectory, TenantSpec,
};

/// The canonical intention statements (one per benchmark type) against the
/// shared SSB test dataset.
const CONSTANT: &str = "with SSB by customer, year assess revenue against 1300000 \
     using ratio(revenue, 1300000) \
     labels {[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}";
const EXTERNAL: &str = "with SSB by customer, year assess revenue \
     against SSB_EXPECTED.expected_revenue \
     using ratio(revenue, benchmark.expected_revenue) \
     labels {[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}";
const SIBLING: &str = "with SSB for c_region = 'ASIA' by part, c_region assess revenue \
     against c_region = 'AMERICA' \
     using percOfTotal(difference(revenue, benchmark.revenue)) \
     labels quartiles";
const PAST: &str = "with SSB for month = '1998-06' by supplier, month assess revenue \
     against past 6 \
     using ratio(revenue, benchmark.revenue) \
     labels {[0, 0.9): worse, [0.9, 1.1]: flat, (1.1, inf]: better}";

const BATCH: [&str; 4] = [CONSTANT, EXTERNAL, SIBLING, PAST];

/// One SSB catalog (SF 0.01, with the default views) shared by every test
/// in this binary; generating it once keeps the suite fast and exercises
/// many servers over one truly shared dataset.
fn ssb_catalog() -> Arc<Catalog> {
    static CATALOG: OnceLock<Arc<Catalog>> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            let dataset = ssb_data::generate::generate(SsbConfig::with_scale(0.01));
            ssb_data::views::register_default_views(&dataset.catalog, &dataset.schema)
                .expect("default views build");
            dataset.catalog
        })
        .clone()
}

fn boot(config: ServerConfig) -> ServerHandle {
    serve(Engine::new(ssb_catalog()), config).expect("server boots on an ephemeral port")
}

fn connect(handle: &ServerHandle) -> LineClient {
    LineClient::connect(handle.addr()).expect("client connects")
}

fn assert_ok(response: &Value) {
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok response, got: {response:?}"
    );
}

fn error_code(response: &Value) -> Option<&str> {
    response.get("error").and_then(|e| e.get("code")).and_then(Value::as_str)
}

fn stat_u64(stats: &Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("stats missing {path:?}: {stats:?}"));
    }
    v.as_f64().unwrap_or_else(|| panic!("stats {path:?} not a number")) as u64
}

/// Condition-polls `stats` until `check` passes or a 5s deadline hits —
/// the fixture for asserting on state the server updates asynchronously
/// (session reaping, queue drain); a fixed sleep here would flake.
fn wait_for_stats(client: &mut LineClient, what: &str, check: impl Fn(&Value) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut last = Value::Null;
    while std::time::Instant::now() < deadline {
        last = client.stats().expect("stats responds");
        if check(&last) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server never converged on {what}: {last:?}");
}

// ----------------------------------------------------------- basic session

#[test]
fn session_basics_ping_check_explain_history() {
    let handle = boot(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.session_id() > 0);

    assert_ok(&client.ping().unwrap());

    let check = client.check(CONSTANT).unwrap();
    assert_ok(&check);
    assert_eq!(check.get("errors").and_then(Value::as_f64), Some(0.0));

    // Comments are part of the statement language; the server strips them.
    let commented = format!("-- intention: constant benchmark\n{CONSTANT}");
    assert_ok(&client.check(&commented).unwrap());

    let bad = client.check("with NO_SUCH_CUBE by x assess y using ratio(y, 1) labels quartiles");
    let bad = bad.unwrap();
    assert_ok(&bad); // check itself succeeds; the diagnostics carry the errors
    assert!(bad.get("errors").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

    let explain = client.explain(SIBLING).unwrap();
    assert_ok(&explain);
    let text = explain.get("explain").and_then(Value::as_str).unwrap_or("");
    assert!(text.contains("statement"), "explain output looks wrong: {text}");

    let run = client.run(CONSTANT).unwrap();
    assert_ok(&run);
    assert_eq!(run.get("cached").and_then(Value::as_bool), Some(false));
    assert!(run.get("rows").and_then(Value::as_array).is_some());

    let history = client.history().unwrap();
    assert_ok(&history);
    let entries = history.get("history").and_then(Value::as_array).unwrap();
    assert_eq!(entries.len(), 1, "only run statements enter history");
    assert_eq!(entries[0].get("outcome").and_then(Value::as_str), Some("ok"));

    handle.shutdown();
}

#[test]
fn malformed_and_unknown_requests_are_refused() {
    let handle = boot(ServerConfig::default());
    let mut client = connect(&handle);

    client.send_raw("this is not json").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(error_code(&response), Some("bad_request"));

    client.send_raw("{\"id\": 1, \"op\": \"frobnicate\"}").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(error_code(&response), Some("unknown_op"));

    // `run` without an id has no cancel handle and is refused.
    client.send_raw(&format!("{{\"op\": \"run\", \"statement\": \"{CONSTANT}\"}}")).unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(error_code(&response), Some("bad_request"));

    let parse = client.run("with SSB by assess").unwrap();
    assert_eq!(error_code(&parse), Some("parse_error"));
    assert!(parse.get("diagnostics").and_then(Value::as_array).is_some());

    handle.shutdown();
}

// ------------------------------------------------- concurrency acceptance

/// ≥16 concurrent sessions over one shared engine produce byte-identical
/// CSV to a serial [`AssessRunner`] on the same catalog. Half the clients
/// bypass the result cache so cold concurrent executions are exercised
/// alongside cache hits.
#[test]
fn sixteen_concurrent_sessions_match_serial_execution() {
    let catalog = ssb_catalog();
    let runner = AssessRunner::new(Engine::new(catalog));
    let serial: Vec<String> = BATCH
        .iter()
        .map(|text| {
            let statement = assess_sql::parse(text).expect("batch statement parses");
            runner.run_auto(&statement).expect("batch statement runs").0.to_csv()
        })
        .collect();

    let handle = boot(ServerConfig { workers: 8, ..ServerConfig::default() });
    let addr = handle.addr();

    const CLIENTS: usize = 16;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("client connects");
                let mut out = Vec::new();
                for offset in 0..BATCH.len() {
                    let idx = (i + offset) % BATCH.len();
                    let mut fields = vec![
                        ("op", Value::String("run".into())),
                        ("statement", Value::String(BATCH[idx].into())),
                        ("format", Value::String("csv".into())),
                    ];
                    // Odd clients skip the cache: genuine concurrent runs.
                    if i % 2 == 1 {
                        fields.push(("cache", Value::Bool(false)));
                    }
                    let response = client.request(fields).expect("run completes");
                    let csv = response
                        .get("csv")
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("no csv in {response:?}"))
                        .to_string();
                    out.push((idx, csv));
                }
                out
            })
        })
        .collect();

    for h in handles {
        for (idx, csv) in h.join().expect("client thread panicked") {
            assert_eq!(
                csv, serial[idx],
                "statement {idx} differed between a concurrent session and serial execution"
            );
        }
    }
    handle.shutdown();
}

// ------------------------------------------------------------- warm cache

#[test]
fn warm_cache_repeats_skip_execution() {
    let handle = boot(ServerConfig::default());
    let mut client = connect(&handle);

    let cold = client.run_csv(SIBLING).unwrap();
    assert_ok(&cold);
    assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));

    let warm = client.run_csv(SIBLING).unwrap();
    assert_ok(&warm);
    assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(warm.get("csv"), cold.get("csv"), "cache returned different bytes");

    // Cosmetic rewrites (case, whitespace, comments) share the entry.
    let rewritten = format!("-- same intention\n{}", SIBLING.replace("assess", "ASSESS"));
    let also_warm = client.run_csv(&rewritten).unwrap();
    assert_eq!(also_warm.get("cached").and_then(Value::as_bool), Some(true));

    // A different pinned strategy is a different cache key.
    let pinned = client
        .request(vec![
            ("op", Value::String("run".into())),
            ("statement", Value::String(SIBLING.into())),
            ("strategy", Value::String("np".into())),
        ])
        .unwrap();
    assert_ok(&pinned);
    assert_eq!(pinned.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(pinned.get("strategy").and_then(Value::as_str), Some("NP"));

    let stats = client.stats().unwrap();
    assert_eq!(stat_u64(&stats, &["runs", "executed"]), 2, "cold + pinned only");
    assert_eq!(stat_u64(&stats, &["runs", "cache_hits"]), 2);
    assert!(stat_u64(&stats, &["cache", "hits"]) >= 2);

    // Storage stats report the physical footprint per table; the fact
    // table's encoded foreign keys make it smaller than its plain layout.
    let storage = stats.get("storage").and_then(Value::as_array).expect("storage section");
    let lineorder = storage
        .iter()
        .find(|t| t.get("table").and_then(Value::as_str) == Some("lineorder"))
        .expect("lineorder stats");
    let bytes = lineorder.get("bytes").and_then(Value::as_f64).unwrap();
    let plain = lineorder.get("plain_bytes").and_then(Value::as_f64).unwrap();
    let ratio = lineorder.get("compression_ratio").and_then(Value::as_f64).unwrap();
    assert!(bytes < plain, "encoded fact table must beat the plain layout");
    assert!(ratio < 1.0 && (ratio - bytes / plain).abs() < 1e-9);
    assert!(lineorder.get("columns").and_then(Value::as_array).is_some_and(|c| !c.is_empty()));

    // Explicit wholesale invalidation brings the next run back to cold.
    assert_ok(&client.request(vec![("op", Value::String("invalidate_cache".into()))]).unwrap());
    let recold = client.run_csv(SIBLING).unwrap();
    assert_eq!(recold.get("cached").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

/// A catalog mutation between two identical runs invalidates the entry:
/// the second run re-executes instead of serving a stale cube. Uses its
/// own tiny dataset so the shared catalog's version stays untouched.
#[test]
fn catalog_mutation_invalidates_cached_results() {
    let dataset = ssb_data::generate::generate(SsbConfig::with_scale(0.001));
    let catalog = dataset.catalog.clone();
    let handle =
        serve(Engine::new(catalog.clone()), ServerConfig::default()).expect("server boots");
    let mut client = connect(&handle);

    let cold = client.run_csv(CONSTANT).unwrap();
    assert_ok(&cold);
    assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));

    // Any catalog write bumps the seqlock version.
    catalog.register_table(Table::new("e2e_mutation_marker", vec![]).expect("empty table"));

    let after = client.run_csv(CONSTANT).unwrap();
    assert_ok(&after);
    assert_eq!(
        after.get("cached").and_then(Value::as_bool),
        Some(false),
        "stale entry served after a catalog mutation"
    );
    assert!(handle.cache_stats().invalidations >= 1);

    handle.shutdown();
}

// ------------------------------------------------------------ cancellation

/// With one worker, a queued run can be cancelled deterministically, and a
/// client-driven cancel of the executing run aborts it through the
/// resource governor's cooperative checks.
#[test]
fn cancel_aborts_queued_and_in_flight_runs() {
    let config = ServerConfig { workers: 1, cache_capacity: 0, ..ServerConfig::default() };
    let handle = boot(config);
    let mut client = connect(&handle);

    // Run A occupies the single worker; B is deterministically queued.
    let a = client.start_run(SIBLING).unwrap();
    let b = client.start_run(PAST).unwrap();

    let cancel_b = client.cancel(b).unwrap();
    assert_ok(&cancel_b);
    assert_eq!(cancel_b.get("cancelled").and_then(Value::as_bool), Some(true));
    let b_response = client.wait_for(b).unwrap();
    assert_eq!(error_code(&b_response), Some("cancelled"), "queued run was not cancelled");

    // A is either still executing (token aborts it mid-run through the
    // governor) or already finished; both responses are legal.
    let cancel_a = client.cancel(a).unwrap();
    assert_ok(&cancel_a);
    let a_response = client.wait_for(a).unwrap();
    assert!(
        a_response.get("ok").and_then(Value::as_bool) == Some(true)
            || error_code(&a_response) == Some("cancelled"),
        "unexpected response for run A: {a_response:?}"
    );

    let stats = client.stats().unwrap();
    assert!(stat_u64(&stats, &["runs", "cancelled"]) >= 1);

    // Cancelling an unknown id reports `cancelled: false`, not an error.
    let noop = client.cancel(9999).unwrap();
    assert_ok(&noop);
    assert_eq!(noop.get("cancelled").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

/// The governor path is e2e-deterministic with a starved row budget: the
/// session policy propagates into every attempt of the fallback ladder and
/// the run fails with `budget_exceeded`.
#[test]
fn session_policy_propagates_to_the_governor() {
    let handle = boot(ServerConfig { cache_capacity: 0, ..ServerConfig::default() });
    let mut client = connect(&handle);

    let set = client.set_policy(None, Some(100), None).unwrap();
    assert_ok(&set);
    assert_eq!(
        set.get("policy").and_then(|p| p.get("max_rows_scanned")).and_then(Value::as_f64),
        Some(100.0)
    );

    let starved = client.run(CONSTANT).unwrap();
    assert_eq!(error_code(&starved), Some("budget_exceeded"));

    // Lifting the limit heals the session.
    let lifted = client.set_policy(None, None, None).unwrap();
    assert_ok(&lifted);
    let ok = client.run(CONSTANT).unwrap();
    assert_ok(&ok);

    handle.shutdown();
}

// ---------------------------------------------------------------- overload

#[test]
fn overload_is_refused_with_queue_full_and_server_full() {
    // workers=1, max_queued=0: one outstanding run, the next is refused.
    let config =
        ServerConfig { workers: 1, max_queued: 0, cache_capacity: 0, ..ServerConfig::default() };
    let handle = boot(config);
    let mut client = connect(&handle);

    // B is refused only while A still holds the one slot, and A can finish
    // (≈ 1 ms) before the reader thread gets to B's frame on a loaded
    // host: pair them again until B meets an outstanding A.
    let mut attempts = 0;
    let (a, b_response) = loop {
        let a = client.start_run(SIBLING).unwrap();
        let b = client.start_run(CONSTANT).unwrap();
        let b_response = client.wait_for(b).unwrap();
        attempts += 1;
        if error_code(&b_response).is_some() || attempts == 50 {
            break (a, b_response);
        }
        assert_ok(&client.wait_for(a).unwrap());
    };
    assert_eq!(error_code(&b_response), Some("queue_full"));
    // Every admission refusal carries a backoff hint.
    let hint = b_response
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    assert!(hint >= 1.0, "queue_full without a usable retry_after_ms: {b_response:?}");
    assert_ok(&client.wait_for(a).unwrap());
    // The slot freed by A is usable again.
    assert_ok(&client.run(CONSTANT).unwrap());
    handle.shutdown();

    // max_sessions=1: the second connection is told the server is full.
    let handle = boot(ServerConfig { max_sessions: 1, ..ServerConfig::default() });
    let _first = connect(&handle);
    let refused = LineClient::connect(handle.addr());
    assert!(refused.is_err(), "second session should be refused");
    handle.shutdown();
}

#[test]
fn duplicate_in_flight_ids_are_rejected() {
    let config = ServerConfig { workers: 1, cache_capacity: 0, ..ServerConfig::default() };
    let handle = boot(config);
    let mut client = connect(&handle);

    // The duplicate is only refused while the first run is still in
    // flight; on a fast or loaded machine the run can finish before the
    // reader sees the second frame, in which case both runs legitimately
    // succeed in sequence. Retry with fresh ids until the race is won.
    let mut refused = false;
    for attempt in 0..32u64 {
        let id = 100 + attempt;
        let line = format!("{{\"id\": {id}, \"op\": \"run\", \"statement\": {SIBLING:?}}}");
        client.send_raw(&line).unwrap();
        client.send_raw(&line).unwrap();

        // Two responses for the id arrive: either the duplicate refusal
        // (from the reader, immediately) plus the real result (from the
        // executor), or — when the first run finished before the second
        // frame was read — two ordinary successes.
        let first = client.read_response().unwrap();
        let second = client.read_response().unwrap();
        let codes = [error_code(&first), error_code(&second)];
        if codes.contains(&Some("duplicate_id")) {
            assert!(
                first.get("ok").and_then(Value::as_bool) == Some(true)
                    || second.get("ok").and_then(Value::as_bool) == Some(true),
                "expected the original run to succeed: {first:?} / {second:?}"
            );
            refused = true;
            break;
        }
        assert!(
            first.get("ok").and_then(Value::as_bool) == Some(true)
                && second.get("ok").and_then(Value::as_bool) == Some(true),
            "without a duplicate refusal both runs must succeed: {first:?} / {second:?}"
        );
    }
    assert!(refused, "no attempt ever observed a duplicate_id refusal");

    handle.shutdown();
}

// ------------------------------------------------------------ idle eviction

#[test]
fn idle_sessions_are_evicted() {
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(150), ..ServerConfig::default() };
    let handle = boot(config);
    let mut idle = connect(&handle);
    assert_ok(&idle.ping().unwrap());

    // The reader polls every 100ms; this read blocks until the eviction
    // notice (or, at worst, the EOF that follows it) arrives.
    let evicted = match idle.read_response() {
        Ok(notice) => error_code(&notice) == Some("idle_timeout"),
        Err(_) => true, // EOF without the notice still proves the eviction
    };
    assert!(evicted, "idle session was not evicted");

    // The notice proves the eviction; the reaper's accounting and the
    // close bookkeeping land asynchronously, so poll rather than assert a
    // single racy snapshot.
    let mut probe = connect(&handle);
    wait_for_stats(&mut probe, "idle eviction accounting", |stats| {
        stat_u64(stats, &["sessions", "idle_evicted"]) >= 1
            && stat_u64(stats, &["sessions", "active"]) == 1
    });

    handle.shutdown();
}

// ------------------------------------------------------------ observability

/// Pulls one counter value out of a Prometheus-style text exposition.
fn exposition_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(name)).then(|| parts.next())?.and_then(|v| v.parse().ok())
    })
}

/// `metrics` round-trips: the exposition parses line by line, and the
/// query counters are monotone across two runs.
#[test]
fn metrics_exposition_parses_and_counters_are_monotone() {
    let handle = boot(ServerConfig { cache_capacity: 0, ..ServerConfig::default() });
    let mut client = connect(&handle);

    let first = client.metrics().unwrap();
    assert_ok(&first);
    let exposition = first.get("exposition").and_then(Value::as_str).unwrap().to_string();
    assert!(!exposition.is_empty());
    // Every line is either a `# HELP`/`# TYPE` comment or `name value`
    // with a parseable number — the whole exposition must scan cleanly.
    for line in exposition.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (name, value) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        assert!(!name.is_empty(), "nameless sample line: {line}");
        assert!(value.parse::<f64>().is_ok(), "unparseable sample value in: {line}");
        assert!(parts.next().is_none(), "trailing tokens in: {line}");
    }
    for required in [
        "assess_queries_total",
        "assess_rows_scanned_total",
        "assess_queries_in_flight",
        "assess_serve_runs_total",
        "assess_engine_scans_total",
        "assess_pool_threads",
        "assess_query_latency_ms_count",
    ] {
        assert!(
            exposition_value(&exposition, required).is_some()
                || exposition.contains(&format!("{required}{{")),
            "exposition is missing {required}:\n{exposition}"
        );
    }
    let runs_before = exposition_value(&exposition, "assess_serve_runs_total").unwrap();
    let queries_before = exposition_value(&exposition, "assess_queries_total").unwrap();
    let rows_before = exposition_value(&exposition, "assess_rows_scanned_total").unwrap();

    assert_ok(&client.run(CONSTANT).unwrap());
    assert_ok(&client.run(SIBLING).unwrap());

    let second = client.metrics().unwrap();
    assert_ok(&second);
    let exposition = second.get("exposition").and_then(Value::as_str).unwrap();
    assert!(
        exposition_value(exposition, "assess_serve_runs_total").unwrap() >= runs_before + 2.0,
        "serve run counter did not advance"
    );
    // The query registry is process-global (other tests share it), so the
    // two runs above are a lower bound, never an exact delta.
    assert!(
        exposition_value(exposition, "assess_queries_total").unwrap() >= queries_before + 2.0,
        "core query counter did not advance"
    );
    assert!(
        exposition_value(exposition, "assess_rows_scanned_total").unwrap() > rows_before,
        "rows-scanned counter did not advance"
    );

    // The JSON twin carries the same sections.
    let json = second.get("metrics").expect("metrics JSON section");
    for section in ["core", "engine", "serve"] {
        assert!(json.get(section).is_some(), "metrics JSON missing {section}");
    }

    handle.shutdown();
}

/// `"trace": true` on a cold run returns a well-formed trace tree whose
/// scan totals agree with the response's own row accounting.
#[test]
fn traced_runs_return_well_formed_trees() {
    let handle = boot(ServerConfig { cache_capacity: 0, ..ServerConfig::default() });
    let mut client = connect(&handle);

    // Without the opt-in there is no trace field at all.
    let plain = client.run(SIBLING).unwrap();
    assert_ok(&plain);
    assert!(plain.get("trace").is_none(), "untraced run leaked a trace");

    let traced = client.run_traced(SIBLING).unwrap();
    assert_ok(&traced);
    let trace = traced.get("trace").expect("traced run carries a trace");
    assert_eq!(trace.get("cache_hit").and_then(Value::as_bool), Some(false));
    let strategy = trace.get("strategy").and_then(Value::as_str).unwrap_or("");
    assert!(["NP", "JOP", "POP"].contains(&strategy), "odd strategy {strategy:?}");
    assert!(
        trace.get("rows_scanned").and_then(Value::as_f64).unwrap_or(0.0) > 0.0,
        "a cold run must scan rows"
    );
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans array");
    let names: Vec<&str> =
        spans.iter().map(|s| s.get("name").and_then(Value::as_str).unwrap_or("?")).collect();
    assert!(names.contains(&"resolve"), "missing resolve span in {names:?}");
    assert!(names.contains(&"execute"), "missing execute span in {names:?}");
    for span in spans {
        assert!(span.get("wall_ms").and_then(Value::as_f64).is_some(), "span without wall time");
        assert!(span.get("rows_out").and_then(Value::as_f64).is_some(), "span without rows_out");
    }

    handle.shutdown();
}

/// A warm-cache hit still honours the trace opt-in: it reports
/// `cache_hit: true` and zero scan spans (nothing was re-scanned).
#[test]
fn cache_hit_traces_report_no_scans() {
    let handle = boot(ServerConfig::default());
    let mut client = connect(&handle);

    assert_ok(&client.run(PAST).unwrap());
    let warm = client.run_traced(PAST).unwrap();
    assert_ok(&warm);
    assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
    let trace = warm.get("trace").expect("cache hit still traces");
    assert_eq!(trace.get("cache_hit").and_then(Value::as_bool), Some(true));
    assert_eq!(
        trace.get("rows_scanned").and_then(Value::as_f64),
        Some(0.0),
        "a cache hit must not scan"
    );
    let spans = trace.get("spans").and_then(Value::as_array).unwrap();
    assert_eq!(spans.len(), 1, "a cache hit reports exactly the hit span");
    assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("cache_hit"));
    assert!(spans[0].get("rows_scanned").is_none(), "the cache-hit span must carry no scan stats");

    // The session's latency histogram saw both statements.
    let stats = client.stats().unwrap();
    assert!(stat_u64(&stats, &["session", "queries"]) >= 2);

    handle.shutdown();
}

// -------------------------------------------------------- pinned strategies

#[test]
fn pinned_strategies_and_infeasible_pins() {
    let handle = boot(ServerConfig { cache_capacity: 0, ..ServerConfig::default() });
    let mut client = connect(&handle);

    let run = |client: &mut LineClient, statement: &str, strategy: &str| {
        client
            .request(vec![
                ("op", Value::String("run".into())),
                ("statement", Value::String(statement.into())),
                ("strategy", Value::String(strategy.into())),
            ])
            .unwrap()
    };

    let np = run(&mut client, CONSTANT, "np");
    assert_ok(&np);
    assert_eq!(np.get("strategy").and_then(Value::as_str), Some("NP"));

    // A sibling benchmark has a real join to push: JOP is feasible.
    let jop = run(&mut client, SIBLING, "jop");
    assert_ok(&jop);
    assert_eq!(jop.get("strategy").and_then(Value::as_str), Some("JOP"));

    // A constant benchmark has no join and no pivot: pinning JOP or POP is
    // an execution error, not a silent fallback.
    for infeasible in ["jop", "pop"] {
        let refused = run(&mut client, CONSTANT, infeasible);
        assert_eq!(error_code(&refused), Some("execution_error"));
    }

    handle.shutdown();
}

// -------------------------------------------------------- tenancy & shedding

/// Finds one tenant's entry in the `stats` response's `tenants` array.
fn tenant_entry<'a>(stats: &'a Value, name: &str) -> &'a Value {
    stats
        .get("tenants")
        .and_then(Value::as_array)
        .and_then(|ts| ts.iter().find(|t| t.get("name").and_then(Value::as_str) == Some(name)))
        .unwrap_or_else(|| panic!("stats has no tenant {name:?}: {stats:?}"))
}

/// `auth` rebinds the session to a keyed tenant; the tenant's own quotas
/// and rate limit then refuse with structured `overloaded` + hint, while
/// stats and metrics report per-tenant counters under the tenant's name.
#[test]
fn auth_binds_tenants_and_their_quotas_bite() {
    let tenants = Arc::new(
        TenantDirectory::new(
            TenantSpec::named("anonymous"),
            vec![
                TenantSpec::named("acme").with_key("acme-key").with_weight(3).with_max_in_flight(1),
                TenantSpec::named("lite").with_key("lite-key").with_rate_per_sec(1.0),
            ],
        )
        .expect("directory builds"),
    );
    let config = ServerConfig { workers: 1, cache_capacity: 0, tenants, ..ServerConfig::default() };
    let handle = boot(config);
    let mut client = connect(&handle);

    // A bad key is refused and the session stays anonymous (still usable).
    let bad = client.auth("wrong-key").unwrap();
    assert_eq!(error_code(&bad), Some("auth_failed"));
    assert_ok(&client.ping().unwrap());

    let ok = client.auth("acme-key").unwrap();
    assert_ok(&ok);
    assert_eq!(ok.get("tenant").and_then(Value::as_str), Some("acme"));
    assert_eq!(ok.get("weight").and_then(Value::as_f64), Some(3.0));

    // max_in_flight = 1: while one run is outstanding the next is refused
    // at the tenant gate (`overloaded`), not the server gate (`queue_full`).
    let a = client.start_run(SIBLING).unwrap();
    let b = client.start_run(CONSTANT).unwrap();
    let b_response = client.wait_for(b).unwrap();
    assert_eq!(error_code(&b_response), Some("overloaded"));
    let hint = b_response
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    assert!(hint >= 1.0, "overloaded without retry_after_ms: {b_response:?}");
    assert_ok(&client.wait_for(a).unwrap());
    // With the slot free again the tenant may run.
    assert_ok(&client.run(CONSTANT).unwrap());

    // lite's token bucket (1/s, burst 1): the first run drains it, an
    // immediate second run is rate-refused with a wait hint.
    let mut lite = connect(&handle);
    assert_ok(&lite.auth("lite-key").unwrap());
    assert_ok(&lite.run(CONSTANT).unwrap());
    let limited = lite.run(CONSTANT).unwrap();
    assert_eq!(error_code(&limited), Some("overloaded"));
    let wait = limited
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    assert!((1.0..=10_000.0).contains(&wait), "odd rate-limit hint: {limited:?}");

    // Per-tenant accounting shows up in `stats` under the tenant's name...
    let stats = client.stats().unwrap();
    let acme = tenant_entry(&stats, "acme");
    assert_eq!(acme.get("weight").and_then(Value::as_f64), Some(3.0));
    assert!(acme.get("admitted").and_then(Value::as_f64).unwrap_or(0.0) >= 2.0);
    assert!(acme.get("rejected_quota").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
    let lite_stats = tenant_entry(&stats, "lite");
    assert!(lite_stats.get("rejected_rate").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
    assert!(lite_stats.get("completed").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

    // ...and in the metrics exposition as labeled families.
    let metrics = client.metrics().unwrap();
    let exposition = metrics.get("exposition").and_then(Value::as_str).unwrap();
    for family in [
        "assess_tenant_admitted_total{tenant=\"acme\"}",
        "assess_tenant_rejected_quota_total{tenant=\"acme\"}",
        "assess_tenant_rejected_rate_total{tenant=\"lite\"}",
        "assess_tenant_run_latency_ms_count{tenant=\"acme\"}",
    ] {
        assert!(exposition.contains(family), "exposition is missing {family}:\n{exposition}");
    }

    handle.shutdown();
}

/// Under pressure (outstanding ≥ half the limit) runs are admitted in
/// *light* mode: they execute and answer, but trace capture is suppressed
/// and their results are not inserted into the cache.
#[test]
fn soft_shedding_drops_traces_and_cache_inserts_under_pressure() {
    // limit = workers + max_queued = 9; shedding starts at outstanding ≥ 5.
    let config = ServerConfig { workers: 1, max_queued: 8, ..ServerConfig::default() };
    let handle = boot(config);
    let mut client = connect(&handle);

    // Six uncached traced runs pile onto the single worker; the sends are
    // microseconds apart while each run takes milliseconds, so the later
    // admissions see outstanding ≥ 5 and are shed.
    let xs: Vec<u64> = (0..6)
        .map(|_| {
            client
                .send(vec![
                    ("op", Value::String("run".into())),
                    ("statement", Value::String(SIBLING.into())),
                    ("cache", Value::Bool(false)),
                    ("trace", Value::Bool(true)),
                ])
                .unwrap()
        })
        .collect();
    // A seventh, cacheable run queued at peak pressure: its insert is shed.
    let y = client
        .send(vec![
            ("op", Value::String("run".into())),
            ("statement", Value::String(CONSTANT.into())),
            ("trace", Value::Bool(true)),
        ])
        .unwrap();

    let x_responses: Vec<Value> = xs.iter().map(|&id| client.wait_for(id).unwrap()).collect();
    let y_response = client.wait_for(y).unwrap();
    for response in x_responses.iter().chain([&y_response]) {
        assert_ok(response);
        let shed = response.get("shed").and_then(Value::as_str) == Some("light");
        assert_eq!(
            response.get("trace").is_some(),
            !shed,
            "trace presence must match the shed level: {response:?}"
        );
    }
    assert_eq!(
        x_responses[0].get("shed"),
        None,
        "the first run was admitted into an empty server and must not shed"
    );
    let shed_count = x_responses
        .iter()
        .filter(|r| r.get("shed").and_then(Value::as_str) == Some("light"))
        .count();
    assert!(shed_count >= 1, "a 7-deep pile-up on one worker must shed: {x_responses:?}");

    let stats = client.stats().unwrap();
    assert!(stat_u64(&stats, &["admission", "shed_light"]) >= 1);

    // If Y was shed its result must NOT be in the cache: the re-run (now
    // unpressured) is cold. Either way that re-run inserts, so a third run
    // is a hit — the cache works again once the pressure is gone.
    let y_shed = y_response.get("shed").and_then(Value::as_str) == Some("light");
    let again = client.run(CONSTANT).unwrap();
    assert_ok(&again);
    if y_shed {
        assert_eq!(
            again.get("cached").and_then(Value::as_bool),
            Some(false),
            "a shed run must not have inserted into the cache"
        );
    }
    let third = client.run(CONSTANT).unwrap();
    assert_eq!(third.get("cached").and_then(Value::as_bool), Some(true));

    handle.shutdown();
}

// ------------------------------------------------------ shared-scan batches

/// The acceptance test for shared-scan batch execution: four statements
/// that differ only in their constant benchmark share one canonical target
/// `get`, so a `batch` executes that scan exactly once — proved by a
/// private engine-metrics registry and the batch trace's `shared_scan`
/// span — while every response stays byte-identical to serial execution.
#[test]
fn batch_executes_a_shared_scan_once_with_serial_identical_results() {
    let statements: Vec<String> = [900_000u64, 1_100_000, 1_300_000, 1_500_000]
        .iter()
        .map(|k| {
            format!(
                "with SSB by customer, year assess revenue against {k} \
                 using ratio(revenue, {k}) labels {{[0, 1): low, [1, inf]: high}}"
            )
        })
        .collect();
    let refs: Vec<&str> = statements.iter().map(String::as_str).collect();

    // A private metrics registry so concurrent tests cannot perturb the
    // scan deltas this test asserts exactly.
    let metrics = Arc::new(olap_engine::EngineMetrics::new());
    let engine = Engine::new(ssb_catalog()).with_metrics(metrics.clone());
    let handle = serve(engine, ServerConfig { cache_capacity: 0, ..ServerConfig::default() })
        .expect("server boots");
    let mut client = connect(&handle);

    // Serial baseline: each statement runs alone — one target scan each.
    let before_serial = metrics.snapshot().scans;
    let serial: Vec<String> = refs
        .iter()
        .map(|text| {
            let response = client
                .request(vec![
                    ("op", Value::String("run".into())),
                    ("statement", Value::String((*text).into())),
                    ("format", Value::String("csv".into())),
                ])
                .unwrap();
            assert_ok(&response);
            response.get("csv").and_then(Value::as_str).expect("csv result").to_string()
        })
        .collect();
    let serial_scans = metrics.snapshot().scans - before_serial;
    assert_eq!(serial_scans, 4, "serial baseline must scan once per statement");

    // The batch: the four target gets are fingerprint-equal, so the scan
    // runs once and fans out to all four consumers.
    let before_batch = metrics.snapshot().scans;
    let response = client.batch(&refs, "csv", true).unwrap();
    let batch_scans = metrics.snapshot().scans - before_batch;
    assert_ok(&response);
    assert_eq!(response.get("batch").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("succeeded").and_then(Value::as_f64), Some(4.0));
    assert_eq!(batch_scans, 1, "the shared scan must execute exactly once");

    // The sharing report names one group feeding all four statements.
    let shared = response.get("shared_scans").and_then(Value::as_array).expect("shared_scans");
    assert_eq!(shared.len(), 1, "exactly one shared group expected: {shared:?}");
    assert_eq!(shared[0].get("consumers").and_then(Value::as_f64), Some(4.0));
    assert!(shared[0].get("fingerprint").and_then(Value::as_str).is_some());
    assert!(shared[0].get("rows_scanned").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);

    // The batch-level trace carries the `shared_scan` span...
    let trace = response.get("trace").expect("traced batch carries a trace");
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans array");
    let shared_span = spans
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("shared_scan"))
        .expect("batch trace is missing the shared_scan span");
    let detail = shared_span.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(detail.contains("consumers=4"), "odd shared_scan detail: {detail:?}");

    // ...each consumer's own trace marks the get it absorbed as shared
    // (the marker sits on a nested get span, so search the whole tree)...
    fn any_span(spans: &[Value], pred: &dyn Fn(&Value) -> bool) -> bool {
        spans.iter().any(|s| {
            pred(s)
                || s.get("children").and_then(Value::as_array).is_some_and(|cs| any_span(cs, pred))
        })
    }
    let results = response.get("results").and_then(Value::as_array).expect("results array");
    assert_eq!(results.len(), 4);
    for (i, (result, baseline)) in results.iter().zip(&serial).enumerate() {
        assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true));
        let item_trace = result.get("trace").expect("per-statement trace");
        let item_spans = item_trace.get("spans").and_then(Value::as_array).expect("item spans");
        assert!(
            any_span(item_spans, &|s| s.get("detail").and_then(Value::as_str)
                == Some("shared scan")),
            "statement {i} has no span fed by the shared scan: {item_spans:?}"
        );
        // ...and every result is byte-identical to its serial run.
        assert_eq!(
            result.get("csv").and_then(Value::as_str),
            Some(baseline.as_str()),
            "statement {i} differed between batch and serial execution"
        );
    }

    handle.shutdown();
}

/// A `with_retry` client rides out `queue_full`/`overloaded` refusals by
/// honoring the server's `retry_after_ms` hints; every request eventually
/// completes even with zero queue slots.
#[test]
fn retrying_clients_ride_out_overload() {
    let config =
        ServerConfig { workers: 1, max_queued: 0, cache_capacity: 0, ..ServerConfig::default() };
    let handle = boot(config);
    let addr = handle.addr();

    // Connect everyone up front (accepts are polled, so connecting inside
    // the contention loop would stagger the clients apart), then race 4
    // retrying clients × 4 runs against 1 worker with zero queue slots.
    let mut probe = connect(&handle);
    // Each round starts behind a barrier so the four sends hit the server
    // within microseconds of each other: one is admitted, the rest are
    // refused and must back off.
    let round_gate = Arc::new(std::sync::Barrier::new(4));
    let contenders: Vec<_> = (0..4)
        .map(|_| {
            let client = LineClient::connect(addr)
                .unwrap()
                .with_retry(RetryPolicy { max_retries: 50, ..RetryPolicy::default() });
            let round_gate = round_gate.clone();
            std::thread::spawn(move || {
                let mut client = client;
                for _ in 0..4 {
                    round_gate.wait();
                    let response = client.run(SIBLING).expect("request completes");
                    assert_eq!(
                        response.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "retries exhausted: {response:?}"
                    );
                }
            })
        })
        .collect();
    for h in contenders {
        h.join().expect("contender panicked");
    }

    // 16 uncached runs racing for a single slot: with backoff every one
    // completed, and at least one of them needed a retry to get there.
    let stats = probe.stats().unwrap();
    assert!(stat_u64(&stats, &["runs", "executed"]) >= 16);
    assert!(stat_u64(&stats, &["admission", "rejected"]) >= 1, "no refusal was retried");

    handle.shutdown();
}

// ------------------------------------------------------- incremental cubes

/// Boots a server over its own freshly generated SSB dataset (SF 0.001,
/// default views registered) so append tests never disturb the shared
/// catalog. Returns the catalog for direct inspection.
fn boot_fresh(
    config: ServerConfig,
    metrics: Option<Arc<olap_engine::EngineMetrics>>,
) -> (ServerHandle, Arc<Catalog>) {
    let dataset = ssb_data::generate::generate(SsbConfig::with_scale(0.001));
    ssb_data::views::register_default_views(&dataset.catalog, &dataset.schema)
        .expect("default views build");
    let catalog = dataset.catalog.clone();
    let mut engine = Engine::new(catalog.clone());
    if let Some(metrics) = metrics {
        engine = engine.with_metrics(metrics);
    }
    let handle = serve(engine, config).expect("server boots");
    (handle, catalog)
}

/// Builds a wire `rows` object covering every lineorder column: the given
/// customer keys, derived in-domain keys for the other dimensions, and
/// integer-valued measures so merged view sums stay FP-exact against a
/// full rebuild.
fn wire_batch(catalog: &Arc<Catalog>, ckeys: &[i64]) -> Value {
    let nums = |v: Vec<f64>| Value::Array(v.into_iter().map(Value::Number).collect());
    let mut fields = vec![("ckey".to_string(), nums(ckeys.iter().map(|k| *k as f64).collect()))];
    for (fk, dim) in [("skey", "supplier"), ("pkey", "part"), ("dkey", "dates")] {
        let card = catalog.table(dim).expect("dimension table").n_rows() as i64;
        let keys = (0..ckeys.len()).map(|i| ((i as i64 * 7 + 3) % card) as f64).collect();
        fields.push((fk.to_string(), nums(keys)));
    }
    let measures = ["quantity", "discount", "extendedprice", "revenue", "supplycost"];
    for (m, name) in measures.iter().enumerate() {
        let values = (0..ckeys.len()).map(|row| (100 + 10 * m + row) as f64).collect();
        fields.push((name.to_string(), nums(values)));
    }
    Value::Object(fields)
}

/// Serial re-run of `statement` on the (possibly grown) catalog with the
/// default engine configuration — the same execution path the server
/// takes, so results are byte-comparable.
fn serial_rerun(catalog: &Arc<Catalog>, statement: &str) -> assess_core::result::AssessedCube {
    let runner = AssessRunner::new(Engine::new(catalog.clone()));
    let parsed = assess_sql::parse(statement).expect("statement parses");
    runner.run_auto(&parsed).expect("serial run succeeds").0
}

/// Asserts two CSV renderings agree row-for-row: coordinates and labels
/// exactly, numeric fields within FP summation noise. View-answered sums
/// accumulate in a different order than fact-table scans, so comparisons
/// *across* those paths cannot demand byte equality on f64 totals.
fn assert_csv_close(left: &str, right: &str, context: &str) {
    let (l_lines, r_lines): (Vec<_>, Vec<_>) = (left.lines().collect(), right.lines().collect());
    assert_eq!(l_lines.len(), r_lines.len(), "row count differs: {context}");
    for (l, r) in l_lines.iter().zip(&r_lines) {
        for (lf, rf) in l.split(',').zip(r.split(',')) {
            match (lf.parse::<f64>(), rf.parse::<f64>()) {
                (Ok(a), Ok(b)) => assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                    "numeric drift ({a} vs {b}) in `{l}` vs `{r}`: {context}"
                ),
                _ => assert_eq!(lf, rf, "field differs in `{l}` vs `{r}`: {context}"),
            }
        }
    }
}

/// The append path commits exactly-once through incremental maintenance:
/// every default view delta-merges (no rebuilds), unscoped cache entries
/// are evicted, and post-append answers equal a cold views-off serial
/// recomputation on the grown catalog. Malformed batches are refused
/// without committing anything.
#[test]
fn append_commits_through_incremental_maintenance() {
    let (handle, catalog) = boot_fresh(ServerConfig::default(), None);
    let mut client = connect(&handle);
    let before = catalog.table("lineorder").expect("fact table").n_rows();

    let cold = client.run_csv(CONSTANT).unwrap();
    assert_ok(&cold);

    let response = client.append("SSB", wire_batch(&catalog, &[0, 1])).unwrap();
    assert_ok(&response);
    assert_eq!(response.get("appended").and_then(Value::as_f64), Some(2.0));
    assert_eq!(response.get("views_merged").and_then(Value::as_f64), Some(3.0));
    assert_eq!(response.get("views_rebuilt").and_then(Value::as_f64), Some(0.0));
    assert_eq!(catalog.table("lineorder").expect("fact table").n_rows(), before + 2);
    // CONSTANT carries no predicate, so its entry has whole-table scope
    // and cannot survive the delta.
    assert!(response.get("cache_evicted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

    for statement in [CONSTANT, EXTERNAL] {
        let run = client.run_csv(statement).unwrap();
        assert_ok(&run);
        assert_eq!(run.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(
            run.get("csv").and_then(Value::as_str),
            Some(serial_rerun(&catalog, statement).to_csv().as_str()),
            "post-append answer drifted from a cold serial recomputation: {statement}"
        );
    }

    // A fractional value for an integer-typed key column is refused…
    let bad = Value::Object(vec![("ckey".to_string(), Value::Array(vec![Value::Number(0.5)]))]);
    let refused = client.append("SSB", bad).unwrap();
    assert_eq!(error_code(&refused), Some("bad_request"));
    // …as is an unknown cube, and neither refusal commits rows.
    let unknown = client.append("NO_SUCH_CUBE", wire_batch(&catalog, &[0])).unwrap();
    assert_eq!(error_code(&unknown), Some("bad_request"));
    assert_eq!(catalog.table("lineorder").expect("fact table").n_rows(), before + 2);

    handle.shutdown();
}

/// Flagship acceptance: subscribe → append → the pushed diff frame holds
/// exactly the changed cells (every one belongs to the appended customer),
/// and patching the baseline with the frame reproduces a cold views-off
/// full re-run byte-for-byte. Private [`olap_engine::EngineMetrics`] prove
/// the maintenance went through the delta-merge path, the serve exposition
/// carries the ingest counters, and after `unsubscribe` the next append
/// notifies no one.
#[test]
fn subscribe_receives_exact_diffs_that_patch_to_a_full_rerun() {
    let metrics = Arc::new(olap_engine::EngineMetrics::new());
    let (handle, catalog) = boot_fresh(ServerConfig::default(), Some(metrics.clone()));
    let mut client = connect(&handle);

    let subscribed = client.subscribe(CONSTANT).unwrap();
    assert_ok(&subscribed);
    let sub = subscribed.get("sub").and_then(Value::as_f64).expect("subscription id") as u64;
    let rows = subscribed.get("rows").and_then(Value::as_array).expect("baseline rows");
    assert_eq!(
        Some(rows.len() as f64),
        subscribed.get("cells").and_then(Value::as_f64),
        "the baseline must travel in full, never truncated"
    );

    // The client-held state starts from the complete baseline.
    let mut state: std::collections::BTreeMap<Vec<String>, Value> = rows
        .iter()
        .map(|cell| {
            let coordinate = cell
                .get("coordinate")
                .and_then(Value::as_array)
                .expect("cell coordinate")
                .iter()
                .map(|m| m.as_str().expect("string member").to_string())
                .collect();
            (coordinate, cell.clone())
        })
        .collect();
    let baseline_cells = state.len();

    // Append two rows for exactly one customer (ckey 2; the generator
    // names level-0 members after their key).
    let member = format!("Customer#{:09}", 2);
    let append = client.append("SSB", wire_batch(&catalog, &[2, 2])).unwrap();
    assert_ok(&append);
    assert_eq!(append.get("subscriptions_notified").and_then(Value::as_f64), Some(1.0));
    assert_eq!(append.get("subscriptions_lagged").and_then(Value::as_f64), Some(0.0));

    let frame = client.next_event().unwrap();
    assert_eq!(frame.get("event").and_then(Value::as_str), Some("diff"));
    assert_eq!(frame.get("sub").and_then(Value::as_f64), Some(sub as f64));
    assert_eq!(frame.get("seq").and_then(Value::as_f64), Some(1.0));
    assert_eq!(frame.get("full").and_then(Value::as_bool), Some(false));
    let changed = frame.get("changed").and_then(Value::as_array).expect("changed cells");
    assert!(!changed.is_empty(), "the append touched cells but the frame is empty");
    assert!(changed.len() < baseline_cells, "diff frame re-sent nearly everything");
    for cell in changed {
        let coordinate = cell.get("coordinate").and_then(Value::as_array).expect("coordinate");
        assert_eq!(
            coordinate.first().and_then(Value::as_str),
            Some(member.as_str()),
            "an untouched customer's cell travelled in the diff: {cell:?}"
        );
    }
    assert_eq!(frame.get("removed").and_then(Value::as_array).map(Vec::len), Some(0));

    // Patching the baseline with the frame reproduces a cold full re-run.
    assess_serve::apply_diff(&mut state, &frame).expect("frame applies cleanly");
    let rerun: std::collections::BTreeMap<Vec<String>, Value> = serial_rerun(&catalog, CONSTANT)
        .cells()
        .iter()
        .map(|c| (c.coordinate.clone(), serde::Serialize::to_value(c)))
        .collect();
    assert_eq!(state, rerun, "patched client state diverged from a full re-run");

    // The private engine metrics prove the delta path did the maintenance.
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.appends, 1);
    assert_eq!(snapshot.mview_delta_merges, 3);
    assert_eq!(snapshot.mview_rebuilds, 0);

    // The serve exposition carries the ingest counters.
    let exposed = client.metrics().unwrap();
    let exposition = exposed.get("exposition").and_then(Value::as_str).unwrap();
    assert_eq!(exposition_value(exposition, "assess_appends_total"), Some(1.0));
    assert_eq!(exposition_value(exposition, "assess_mview_delta_merges_total"), Some(3.0));
    assert_eq!(exposition_value(exposition, "assess_mview_rebuilds_total"), Some(0.0));
    assert_eq!(exposition_value(exposition, "assess_serve_subscriptions_active"), Some(1.0));

    // After unsubscribing, the next append notifies no one.
    let dropped = client.unsubscribe(sub).unwrap();
    assert_ok(&dropped);
    assert_eq!(dropped.get("unsubscribed").and_then(Value::as_bool), Some(true));
    let second = client.append("SSB", wire_batch(&catalog, &[0])).unwrap();
    assert_ok(&second);
    assert_eq!(second.get("subscriptions_notified").and_then(Value::as_f64), Some(0.0));

    handle.shutdown();
}

/// The per-tenant subscription ceiling refuses the (N+1)th registration,
/// `unsubscribe` frees the slot, and unsubscription is owner-only: neither
/// unknown ids nor another session's ids detach a subscription.
#[test]
fn subscription_ceiling_is_per_tenant_and_unsubscribe_is_owner_only() {
    let config = ServerConfig { max_subscriptions_per_tenant: 1, ..ServerConfig::default() };
    let handle = boot(config);
    let mut client = connect(&handle);

    let first = client.subscribe(CONSTANT).unwrap();
    assert_ok(&first);
    let sub = first.get("sub").and_then(Value::as_f64).expect("subscription id") as u64;

    let refused = client.subscribe(SIBLING).unwrap();
    assert_eq!(error_code(&refused), Some("subscription_limit"));

    let dropped = client.unsubscribe(sub).unwrap();
    assert_ok(&dropped);
    assert_eq!(dropped.get("unsubscribed").and_then(Value::as_bool), Some(true));

    let again = client.subscribe(SIBLING).unwrap();
    assert_ok(&again);
    let again_sub = again.get("sub").and_then(Value::as_f64).expect("subscription id") as u64;

    // Unknown ids and other sessions' ids both report `false`.
    let noop = client.unsubscribe(9999).unwrap();
    assert_ok(&noop);
    assert_eq!(noop.get("unsubscribed").and_then(Value::as_bool), Some(false));
    let mut intruder = connect(&handle);
    let stolen = intruder.unsubscribe(again_sub).unwrap();
    assert_ok(&stolen);
    assert_eq!(stolen.get("unsubscribed").and_then(Value::as_bool), Some(false));

    let stats = client.stats().unwrap();
    assert_eq!(stat_u64(&stats, &["subscriptions", "active"]), 1);

    handle.shutdown();
}

/// Scoped cache entries ride out disjoint appends: a batch provably
/// outside a cached statement's predicate scope patches the entry forward
/// (the repeat run stays warm and byte-identical), while a batch inside
/// the scope evicts it and the repeat run recomputes.
#[test]
fn scoped_cache_entries_survive_disjoint_appends() {
    let (handle, catalog) = boot_fresh(ServerConfig::default(), None);
    let mut client = connect(&handle);

    // SIBLING scans customers in ASIA ∪ AMERICA only.
    let cold = client.run_csv(SIBLING).unwrap();
    assert_ok(&cold);
    assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));

    let customer = catalog.table("customer").expect("customer dimension");
    let region = customer.column("c_region").expect("region column");
    let find = |want: &str| {
        (0..customer.n_rows())
            .find(|&row| region.string_at(row) == Some(want))
            .unwrap_or_else(|| panic!("no {want} customer at this scale")) as i64
    };

    // A batch entirely outside the entry's scope patches it forward…
    let outside = client.append("SSB", wire_batch(&catalog, &[find("EUROPE")])).unwrap();
    assert_ok(&outside);
    assert!(outside.get("cache_patched").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
    assert_eq!(outside.get("cache_evicted").and_then(Value::as_f64), Some(0.0));
    let warm = client.run_csv(SIBLING).unwrap();
    assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(warm.get("csv"), cold.get("csv"));

    // …while a batch inside the scope evicts it and the rerun recomputes.
    let inside = client.append("SSB", wire_batch(&catalog, &[find("ASIA")])).unwrap();
    assert_ok(&inside);
    assert!(inside.get("cache_evicted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
    let recold = client.run_csv(SIBLING).unwrap();
    assert_eq!(recold.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(
        recold.get("csv").and_then(Value::as_str),
        Some(serial_rerun(&catalog, SIBLING).to_csv().as_str())
    );

    let stats = client.stats().unwrap();
    assert!(stat_u64(&stats, &["cache", "patches"]) >= 1);
    let exposed = client.metrics().unwrap();
    let exposition = exposed.get("exposition").and_then(Value::as_str).unwrap();
    assert!(exposition_value(exposition, "assess_cache_patches_total").unwrap_or(0.0) >= 1.0);

    handle.shutdown();
}

/// Satellite acceptance: appends interleave with concurrent `run` traffic
/// without torn reads — every interleaved request succeeds, the fact
/// table grows by exactly the rows sent (exactly-once commitment), and
/// every materialized view still agrees with a views-off scan of the base
/// data afterwards (exactly-once maintenance).
#[test]
fn appends_interleave_with_runs_without_torn_reads() {
    let config = ServerConfig { workers: 4, cache_capacity: 16, ..ServerConfig::default() };
    let (handle, catalog) = boot_fresh(config, None);
    let addr = handle.addr();
    let before = catalog.table("lineorder").expect("fact table").n_rows();

    const APPENDS: usize = 6;
    let writer_catalog = catalog.clone();
    let writer = std::thread::spawn(move || {
        let mut client = LineClient::connect(addr).expect("writer connects");
        for i in 0..APPENDS {
            let ckeys = [(i % 5) as i64, ((i * 3) % 5) as i64];
            let response =
                client.append("SSB", wire_batch(&writer_catalog, &ckeys)).expect("append io");
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(true),
                "interleaved append refused: {response:?}"
            );
        }
    });
    let readers: Vec<_> = (0..3)
        .map(|r| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("reader connects");
                for _ in 0..8 {
                    let response = client.run(BATCH[r]).expect("run io");
                    assert_eq!(
                        response.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "interleaved run failed: {response:?}"
                    );
                }
            })
        })
        .collect();
    // A fourth reader drives shared-scan batches — whose exactly-once
    // scan accounting must hold across concurrent commits — and fires
    // `invalidate_cache` mid-flight, racing the append path's own
    // patch/evict bookkeeping.
    let batcher = std::thread::spawn(move || {
        let mut client = LineClient::connect(addr).expect("batcher connects");
        for i in 0..8 {
            let response = client.batch(&BATCH, "cells", false).expect("batch io");
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(true),
                "interleaved batch failed: {response:?}"
            );
            assert_eq!(
                response.get("succeeded").and_then(Value::as_f64),
                Some(BATCH.len() as f64),
                "a batched statement failed mid-append: {response:?}"
            );
            if i % 3 == 0 {
                let invalidated = client
                    .request(vec![("op", Value::String("invalidate_cache".into()))])
                    .expect("invalidate io");
                assert_eq!(
                    invalidated.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "invalidate_cache failed mid-append: {invalidated:?}"
                );
            }
        }
    });
    writer.join().expect("writer thread panicked");
    batcher.join().expect("batcher thread panicked");
    for reader in readers {
        reader.join().expect("reader thread panicked");
    }

    assert_eq!(
        catalog.table("lineorder").expect("fact table").n_rows(),
        before + 2 * APPENDS,
        "appends were lost or committed twice"
    );

    // Exactly-once maintenance: every view-answered cube still agrees with
    // a views-off scan of the grown base data. A lost or double-applied
    // merge would shift sums by whole row contributions; only FP
    // summation-order noise is tolerated.
    let with_views = AssessRunner::new(Engine::new(catalog.clone()));
    let scan_config = olap_engine::EngineConfig { use_views: false, ..Default::default() };
    let without_views = AssessRunner::new(Engine::with_config(catalog.clone(), scan_config));
    for statement in BATCH {
        let parsed = assess_sql::parse(statement).expect("statement parses");
        assert_csv_close(
            &with_views.run_auto(&parsed).expect("views run").0.to_csv(),
            &without_views.run_auto(&parsed).expect("scan run").0.to_csv(),
            &format!("a view drifted from the base data after interleaved appends: {statement}"),
        );
    }

    handle.shutdown();
}

// ------------------------------------------------------ statement pipeline

/// A statement that is clean apart from one warning: the label ranges
/// leave `[0.5, 1.5]` uncovered (W101).
const GAPPED: &str = "with SSB by customer, year assess revenue against 1300000 \
     using ratio(revenue, 1300000) \
     labels {[0, 0.5): low, (1.5, inf]: high}";

/// `run`, a one-member `batch` and `subscribe` walk the same statement
/// pipeline: whichever op carries a statement, a refusal has the same
/// error code and the same diagnostics (codes, spans, rendered carets),
/// and a clean statement yields the same cells.
#[test]
fn run_batch_and_subscribe_answer_a_statement_alike() {
    let handle = boot(ServerConfig { cache_capacity: 0, ..ServerConfig::default() });
    let mut client = connect(&handle);
    let limit = Value::Number(1e6);
    let text = |statement: &str| Value::String(statement.to_string());

    // (statement, session row budget, expected error code or clean)
    let cases: [(&str, Option<u64>, Option<&str>); 4] = [
        ("with SSB by customer year assess", None, Some("parse_error")),
        (
            "with NO_SUCH_CUBE by x assess y using ratio(y, 1) labels quartiles",
            None,
            Some("check_failed"),
        ),
        (CONSTANT, Some(1), Some("budget_exceeded")),
        (GAPPED, None, None),
    ];
    for (statement, budget, expected) in cases {
        assert_ok(&client.set_policy(None, budget, None).unwrap());
        let run = client
            .request(vec![
                ("op", text("run")),
                ("statement", text(statement)),
                ("limit", limit.clone()),
            ])
            .unwrap();
        let batch = client
            .request(vec![
                ("op", text("batch")),
                ("statements", Value::Array(vec![text(statement)])),
                ("limit", limit.clone()),
            ])
            .unwrap();
        assert_ok(&batch);
        let member = &batch.get("results").and_then(Value::as_array).expect("batch results")[0];
        let subscribed = client.subscribe(statement).unwrap();

        match expected {
            Some(code) => {
                assert_eq!(error_code(&run), Some(code), "{statement}: {run:?}");
                assert_eq!(error_code(member), Some(code), "{statement}: {member:?}");
                assert_eq!(error_code(&subscribed), Some(code), "{statement}: {subscribed:?}");
                let diagnostics = run.get("diagnostics").expect("run diagnostics");
                assert!(
                    diagnostics.as_array().is_some_and(|d| !d.is_empty()),
                    "{statement}: a refusal without diagnostics: {run:?}"
                );
                assert_eq!(member.get("diagnostics"), Some(diagnostics), "{statement}: batch");
                assert_eq!(subscribed.get("diagnostics"), Some(diagnostics), "{statement}: sub");
            }
            None => {
                assert_ok(&run);
                assert_ok(&subscribed);
                assert_eq!(member.get("ok").and_then(Value::as_bool), Some(true), "{member:?}");
                let warnings = run.get("diagnostics").and_then(Value::as_array).expect("warning");
                assert_eq!(warnings[0].get("code").and_then(Value::as_str), Some("W101"));
                assert_eq!(member.get("diagnostics"), run.get("diagnostics"));
                assert_eq!(run.get("truncated").and_then(Value::as_bool), Some(false));
                for other in [member, &subscribed] {
                    assert_eq!(other.get("cells"), run.get("cells"), "{statement}");
                    assert_eq!(other.get("rows"), run.get("rows"), "{statement}");
                }
            }
        }
    }
    handle.shutdown();
}

/// A `subscribe` whose baseline evaluation fails is refused the way `run`
/// refuses: the specific code, the diagnostics, and a failed run in
/// `stats`. A live subscription whose re-evaluation fails still gets the
/// `lagged` notice.
#[test]
fn subscribe_failures_are_classified_and_counted() {
    let (handle, catalog) = boot_fresh(ServerConfig::default(), None);
    let mut client = connect(&handle);

    assert_ok(&client.set_policy(None, Some(1), None).unwrap());
    let failed_before = stat_u64(&client.stats().unwrap(), &["runs", "failed"]);
    let refused = client.subscribe(CONSTANT).unwrap();
    assert_eq!(error_code(&refused), Some("budget_exceeded"), "{refused:?}");
    let diagnostics = refused.get("diagnostics").and_then(Value::as_array);
    assert!(diagnostics.is_some_and(|d| !d.is_empty()), "no diagnostics: {refused:?}");
    let stats = client.stats().unwrap();
    assert_eq!(stat_u64(&stats, &["runs", "failed"]), failed_before + 1);
    assert_eq!(stat_u64(&stats, &["subscriptions", "active"]), 0);

    // Register under no budget, then starve the session: the append's
    // re-evaluation fails and the subscriber is told it lags.
    assert_ok(&client.set_policy(None, None, None).unwrap());
    let subscribed = client.subscribe(CONSTANT).unwrap();
    assert_ok(&subscribed);
    let sub = subscribed.get("sub").and_then(Value::as_f64).expect("subscription id");
    assert_ok(&client.set_policy(None, Some(1), None).unwrap());
    let mut writer = connect(&handle);
    let append = writer.append("SSB", wire_batch(&catalog, &[2])).unwrap();
    assert_ok(&append);
    assert_eq!(append.get("subscriptions_notified").and_then(Value::as_f64), Some(0.0));
    assert_eq!(append.get("subscriptions_lagged").and_then(Value::as_f64), Some(1.0));
    let event = client.next_event().unwrap();
    assert_eq!(event.get("event").and_then(Value::as_str), Some("lagged"), "{event:?}");
    assert_eq!(event.get("sub").and_then(Value::as_f64), Some(sub));
    assert_eq!(event.get("code").and_then(Value::as_str), Some("execution_error"));

    handle.shutdown();
}

/// The `partial` op runs under the limits of the session that sent it: a
/// tenant's row ceiling binds even when the coordinator forwards no budget,
/// and the refusal is the structured error the coordinator decodes back
/// into the exact [`EngineError`](olap_engine::EngineError).
#[test]
fn partial_runs_under_the_tenant_ceiling() {
    let ceiling = assess_core::ExecutionPolicy::default().with_max_rows_scanned(1);
    let capped = TenantSpec::named("capped").with_key("capped-key").with_ceiling(ceiling);
    let tenants = Arc::new(
        TenantDirectory::new(TenantSpec::named("anonymous"), vec![capped])
            .expect("directory builds"),
    );
    let handle = boot(ServerConfig { tenants, ..ServerConfig::default() });
    let mut client = connect(&handle);
    assert_ok(&client.auth("capped-key").unwrap());

    let runner = AssessRunner::new(Engine::new(ssb_catalog()));
    let parsed = assess_sql::parse(CONSTANT).expect("statement parses");
    let query = runner.resolve(&parsed).expect("statement resolves").target_query;
    let response = client
        .request(vec![
            ("op", Value::String("partial".into())),
            ("query", assess_serve::shard::encode_query(&query)),
        ])
        .unwrap();

    assert_eq!(error_code(&response), Some("budget_exceeded"), "{response:?}");
    let error = response.get("error").expect("error object");
    assert_eq!(error.get("resource").and_then(Value::as_str), Some("rows_scanned"));
    assert_eq!(error.get("limit").and_then(Value::as_f64), Some(1.0));
    match assess_serve::shard::decode_engine_error("node", &response) {
        olap_engine::EngineError::BudgetExceeded { resource, limit, .. } => {
            assert_eq!(resource, olap_engine::ResourceKind::RowsScanned);
            assert_eq!(limit, 1);
        }
        other => panic!("the refusal did not round-trip as a budget error: {other:?}"),
    }

    handle.shutdown();
}
