//! `assess-serve` — the concurrent assess query service over TCP.
//!
//! ```text
//! cargo run --release --bin assess-serve -- [options]
//!
//! options:
//!   --addr HOST:PORT     bind address (default 127.0.0.1:7878; port 0 = ephemeral)
//!   --scale S            SSB scale factor for the served catalog (default 0.01)
//!   --workers N          executor threads (default 4)
//!   --max-sessions N     connection cap (default 64)
//!   --max-queued N       queued runs beyond the executing ones (default 32)
//!   --cache N            result-cache entries, 0 disables (default 128)
//!   --idle-timeout SECS  evict idle sessions after this long (default 300)
//!   --max-rows N         server-wide row-scan ceiling per run (default none)
//!   --deadline-ms MS     server-wide per-run deadline (default none)
//!   --scan-threads N     helper threads of the shared scan pool
//!                        (default 0 = available cores − 1)
//!   --max-threads N      server-wide per-scan thread ceiling (default none)
//!   --tenants FILE       tenant directory (API keys, weights, quotas) as
//!                        JSON; see the README "Multi-tenancy & overload"
//!                        section for the format (default: anonymous only)
//!   --max-frame BYTES    longest accepted request line (default 262144)
//!   --shard-of I/N       act as shard node I of an N-way partitioning:
//!                        serve only that slice of the catalog (0-based)
//!   --shard-node ADDR    act as scatter-gather frontend over a shard node
//!                        at ADDR; repeat once per node, in shard order —
//!                        every node must run --shard-of with the same
//!                        --scale and N = the number of --shard-node flags
//!   --self-check         boot on an ephemeral port, run a scripted client
//!                        session against it, print a report, and exit
//! ```
//!
//! The protocol is newline-delimited JSON; see the `Serving` section of the
//! README for request and response shapes. `--self-check` is the CI smoke
//! mode: it exercises check → run → traced cached run → stats → metrics →
//! cancel → shared-scan batch → a 2-shard scatter-gather run (two
//! `--shard-of` nodes plus a `--shard-node` frontend, byte-identical CSV)
//! → subscribe → append (live diff frame) → unsubscribe → auth →
//! rate-limit overload → oversized frame end to end and exits non-zero if
//! any response deviates.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use assess_olap::engine::{Engine, EngineError, ShardSet, ShardTransport};
use assess_olap::serde::Value;
use assess_olap::serve::{serve, LineClient, RemoteShard, ServerConfig, TenantDirectory};
use assess_olap::ssb::generate::SsbDataset;
use assess_olap::ssb::{generate::generate, shard::shard_dataset, views, SsbConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig { addr: "127.0.0.1:7878".to_string(), ..ServerConfig::default() };
    let mut scale = 0.01;
    let mut self_check = false;
    let mut shard_of: Option<(usize, usize)> = None;
    let mut shard_nodes: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |name: &str| -> Option<String> {
            let v = args.get(i + 1).cloned();
            if v.is_none() {
                eprintln!("assess-serve: {name} expects a value");
            }
            v
        };
        match flag {
            "--addr" => match value("--addr") {
                Some(v) => {
                    config.addr = v;
                    i += 2;
                }
                None => return ExitCode::from(2),
            },
            "--scale" => match value("--scale").and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => {
                    scale = s;
                    i += 2;
                }
                _ => return usage("--scale expects a positive number"),
            },
            "--workers" => match value("--workers").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => {
                    config.workers = n;
                    i += 2;
                }
                _ => return usage("--workers expects a positive integer"),
            },
            "--max-sessions" => match value("--max-sessions").and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) if n > 0 => {
                    config.max_sessions = n;
                    i += 2;
                }
                _ => return usage("--max-sessions expects a positive integer"),
            },
            "--max-queued" => match value("--max-queued").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => {
                    config.max_queued = n;
                    i += 2;
                }
                _ => return usage("--max-queued expects an integer"),
            },
            "--cache" => match value("--cache").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => {
                    config.cache_capacity = n;
                    i += 2;
                }
                _ => return usage("--cache expects an integer"),
            },
            "--idle-timeout" => match value("--idle-timeout").and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) if secs > 0 => {
                    config.idle_timeout = Duration::from_secs(secs);
                    i += 2;
                }
                _ => return usage("--idle-timeout expects a positive number of seconds"),
            },
            "--max-rows" => match value("--max-rows").and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => {
                    config.ceiling.max_rows_scanned = Some(n);
                    i += 2;
                }
                _ => return usage("--max-rows expects a positive integer"),
            },
            "--deadline-ms" => match value("--deadline-ms").and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => {
                    config.ceiling.deadline = Some(Duration::from_millis(n));
                    i += 2;
                }
                _ => return usage("--deadline-ms expects a positive integer"),
            },
            "--scan-threads" => match value("--scan-threads").and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) => {
                    config.scan_threads = n;
                    i += 2;
                }
                _ => return usage("--scan-threads expects an integer"),
            },
            "--max-threads" => match value("--max-threads").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => {
                    config.ceiling.max_threads = Some(n);
                    i += 2;
                }
                _ => return usage("--max-threads expects a positive integer"),
            },
            "--tenants" => match value("--tenants") {
                Some(path) => {
                    match TenantDirectory::load(&path) {
                        Ok(directory) => config.tenants = Arc::new(directory),
                        Err(e) => return usage(&format!("--tenants: {e}")),
                    }
                    i += 2;
                }
                None => return ExitCode::from(2),
            },
            "--max-frame" => match value("--max-frame").and_then(|v| v.parse::<usize>().ok()) {
                Some(bytes) if bytes > 0 => {
                    config.max_frame_bytes = bytes;
                    i += 2;
                }
                _ => return usage("--max-frame expects a positive byte count"),
            },
            "--shard-of" => match value("--shard-of").map(|v| parse_shard_of(&v)) {
                Some(Some(pair)) => {
                    shard_of = Some(pair);
                    i += 2;
                }
                Some(None) => return usage("--shard-of expects I/N with 0 <= I < N"),
                None => return ExitCode::from(2),
            },
            "--shard-node" => match value("--shard-node") {
                Some(addr) => {
                    shard_nodes.push(addr);
                    i += 2;
                }
                None => return ExitCode::from(2),
            },
            "--self-check" => {
                self_check = true;
                i += 1;
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    if shard_of.is_some() && !shard_nodes.is_empty() {
        return usage("--shard-of and --shard-node are mutually exclusive");
    }

    if self_check {
        config.addr = "127.0.0.1:0".to_string();
        // The scripted session exercises auth and the rate-limit overload
        // path, so it needs a known tenant: write a directory to a temp
        // file and load it the same way `--tenants` would.
        match self_check_tenants() {
            Ok(directory) => config.tenants = Arc::new(directory),
            Err(e) => {
                eprintln!("assess-serve: self-check tenant setup failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    eprintln!("assess-serve: generating SSB catalog at SF={scale} …");
    let dataset = generate(SsbConfig::with_scale(scale));
    // Topology. SSB generation is seeded and deterministic, so every
    // process started with the same --scale holds the same dataset: a
    // frontend and its --shard-of nodes agree on the partitioning without
    // any data exchange.
    let engine = if let Some((index, total)) = shard_of {
        // Shard node: serve only slice `index` of an N-way partitioning.
        // Its fact tables hold just that dkey range; scans, views and
        // appends all stay local. Frontends reach it via `partial`.
        match shard_dataset(&dataset, total) {
            Ok(deployment) => {
                eprintln!("assess-serve: serving shard {index}/{total}");
                Engine::new(deployment.shard_catalogs[index].clone())
            }
            Err(e) => {
                eprintln!("assess-serve: cannot partition the catalog: {e}");
                return ExitCode::from(2);
            }
        }
    } else if !shard_nodes.is_empty() {
        match frontend_engine(&dataset, &shard_nodes) {
            Ok(engine) => {
                eprintln!(
                    "assess-serve: scatter-gather frontend over {} shard node(s)",
                    shard_nodes.len()
                );
                engine
            }
            Err(e) => {
                eprintln!("assess-serve: cannot build the scatter-gather frontend: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        if let Err(e) = views::register_default_views(&dataset.catalog, &dataset.schema) {
            eprintln!("assess-serve: cannot materialize default views: {e}");
            return ExitCode::from(2);
        }
        Engine::new(dataset.catalog.clone())
    };

    let handle = match serve(engine, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("assess-serve: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("assess-serve: listening on {}", handle.addr());

    if self_check {
        let outcome = run_self_check(&handle, &dataset);
        handle.shutdown();
        return match outcome {
            Ok(steps) => {
                println!("self-check: {steps} steps passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-check FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Serve until the process is killed; the acceptor and executors live on
    // their own threads, so the main thread just parks.
    loop {
        std::thread::park();
    }
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("assess-serve: {problem}");
    }
    eprintln!(
        "usage: assess-serve [--addr HOST:PORT] [--scale S] [--workers N] \
         [--max-sessions N] [--max-queued N] [--cache N] [--idle-timeout SECS] \
         [--max-rows N] [--deadline-ms MS] [--scan-threads N] [--max-threads N] \
         [--tenants FILE] [--max-frame BYTES] [--shard-of I/N] \
         [--shard-node ADDR]... [--self-check]"
    );
    ExitCode::from(2)
}

/// Parses `--shard-of I/N` into `(index, total)`.
fn parse_shard_of(text: &str) -> Option<(usize, usize)> {
    let (index, total) = text.split_once('/')?;
    let index = index.trim().parse::<usize>().ok()?;
    let total = total.trim().parse::<usize>().ok()?;
    (index < total).then_some((index, total))
}

/// The `--shard-node` topology: a scatter-gather frontend over the shard
/// nodes at `addrs`, in shard order. Its catalog is the coordinator
/// catalog of an N-way partitioning of `dataset` (dimensions plus empty
/// fact tables); every scan and append reaches a node through a
/// [`RemoteShard`].
fn frontend_engine(dataset: &SsbDataset, addrs: &[String]) -> Result<Engine, EngineError> {
    let deployment = shard_dataset(dataset, addrs.len())?;
    let shards = addrs
        .iter()
        .map(|addr| Arc::new(RemoteShard::new(addr.clone())) as Arc<dyn ShardTransport>)
        .collect();
    let set = ShardSet::new(deployment.scheme, shards)?;
    Ok(Engine::new(deployment.coordinator).with_shards(Arc::new(set)))
}

/// Self-check tenant directory: written as JSON to a temp file and loaded
/// back through the `--tenants` code path, so the file format is exercised
/// in CI too. The `ci` tenant's 1 req/s rate limit (burst 1) makes the
/// overload step deterministic: the first run drains the bucket, the
/// immediate second run must be refused.
fn self_check_tenants() -> Result<TenantDirectory, String> {
    let path =
        std::env::temp_dir().join(format!("assess-serve-selfcheck-{}.json", std::process::id()));
    let json = r#"{
        "tenants": [
            {"name": "ci", "key": "ci-key", "weight": 2, "rate_per_sec": 1.0}
        ]
    }"#;
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    let loaded = TenantDirectory::load(&path.to_string_lossy());
    let _ = std::fs::remove_file(&path);
    loaded
}

// ----------------------------------------------------------- self-check

const STATEMENT: &str = "with SSB by customer, year assess revenue against 1300000 \
     using ratio(revenue, 1300000) \
     labels {[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}";

fn field_bool(v: &Value, key: &str) -> Option<bool> {
    v.get(key).and_then(Value::as_bool)
}

fn expect(cond: bool, step: &str, response: &Value) -> Result<(), String> {
    if cond {
        eprintln!("self-check: {step} ok");
        Ok(())
    } else {
        Err(format!("{step}: unexpected response {response:?}"))
    }
}

fn error_code(v: &Value) -> &str {
    v.get("error").and_then(|e| e.get("code")).and_then(Value::as_str).unwrap_or_default()
}

/// The scripted session: check → run (cold) → traced run (cached) →
/// stats → metrics → cancel → shared-scan batch → a 2-shard
/// scatter-gather frontend (two shard-node servers behind it) answering
/// the same statement with a byte-identical CSV → subscribe → append
/// with incremental view maintenance and a pushed diff frame →
/// unsubscribe → auth (bad key, then good) → rate-limit overload with a
/// `retry_after_ms` hint → oversized-frame rejection with the connection
/// surviving. Returns the number of verified steps.
fn run_self_check(
    handle: &assess_olap::serve::ServerHandle,
    dataset: &SsbDataset,
) -> Result<u32, String> {
    let mut client = LineClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;

    let check = client.check(STATEMENT).map_err(|e| format!("check: {e}"))?;
    expect(
        field_bool(&check, "ok") == Some(true) && field_bool(&check, "clean") == Some(true),
        "check",
        &check,
    )?;

    let cold = client.run(STATEMENT).map_err(|e| format!("run: {e}"))?;
    expect(
        field_bool(&cold, "ok") == Some(true) && field_bool(&cold, "cached") == Some(false),
        "cold run",
        &cold,
    )?;

    // The warm run opts into tracing: a cache hit must still report a
    // trace, with `cache_hit` set and no scan spans.
    let warm = client.run_traced(STATEMENT).map_err(|e| format!("cached run: {e}"))?;
    let trace_hit = warm
        .get("trace")
        .and_then(|t| t.get("cache_hit"))
        .and_then(Value::as_bool)
        .unwrap_or(false);
    expect(
        field_bool(&warm, "ok") == Some(true)
            && field_bool(&warm, "cached") == Some(true)
            && trace_hit,
        "cached run",
        &warm,
    )?;

    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let executed =
        stats.get("runs").and_then(|r| r.get("executed")).and_then(Value::as_f64).unwrap_or(-1.0);
    let cache_hits =
        stats.get("runs").and_then(|r| r.get("cache_hits")).and_then(Value::as_f64).unwrap_or(-1.0);
    let pool_threads =
        stats.get("pool").and_then(|p| p.get("threads")).and_then(Value::as_f64).unwrap_or(-1.0);
    expect(
        field_bool(&stats, "ok") == Some(true)
            && executed == 1.0
            && cache_hits == 1.0
            && pool_threads >= 0.0,
        "stats",
        &stats,
    )?;

    let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let exposition =
        metrics.get("exposition").and_then(Value::as_str).unwrap_or_default().to_string();
    expect(
        field_bool(&metrics, "ok") == Some(true)
            && !exposition.is_empty()
            && exposition.contains("assess_serve_runs_total"),
        "metrics",
        &metrics,
    )?;

    // Start a run and cancel it. Depending on timing the run is aborted
    // while queued/executing or has already finished; the protocol answers
    // both cases coherently and that is what the step verifies.
    let id = client.start_run(STATEMENT).map_err(|e| format!("start run: {e}"))?;
    let cancel = client.cancel(id).map_err(|e| format!("cancel: {e}"))?;
    expect(field_bool(&cancel, "ok") == Some(true), "cancel", &cancel)?;
    let outcome = client.wait_for(id).map_err(|e| format!("cancelled run: {e}"))?;
    let code = outcome
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or_default();
    expect(
        field_bool(&outcome, "ok") == Some(true) || code == "cancelled",
        "cancelled run outcome",
        &outcome,
    )?;

    // Batch: four statements sharing one target get must execute its scan
    // once and fan out — the response reports the shared scan with all
    // four consumers, and every per-statement result succeeds.
    let shared_group: Vec<String> = [900_000u64, 1_100_000, 1_300_000, 1_500_000]
        .iter()
        .map(|k| {
            format!(
                "with SSB by customer, year assess revenue against {k} \
                 using ratio(revenue, {k}) \
                 labels {{[0, 1): low, [1, inf]: high}}"
            )
        })
        .collect();
    let refs: Vec<&str> = shared_group.iter().map(String::as_str).collect();
    let batch = client.batch(&refs, "cells", false).map_err(|e| format!("batch: {e}"))?;
    let succeeded = batch.get("succeeded").and_then(Value::as_f64).unwrap_or(-1.0);
    let consumers = batch
        .get("shared_scans")
        .and_then(|ss| match ss {
            Value::Array(items) => items.first(),
            _ => None,
        })
        .and_then(|scan| scan.get("consumers"))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    expect(
        field_bool(&batch, "ok") == Some(true)
            && field_bool(&batch, "batch") == Some(true)
            && succeeded == 4.0
            && consumers == 4.0,
        "batch shares one scan across 4 statements",
        &batch,
    )?;

    // Scatter-gather: two shard-node servers, each over one slice of a
    // 2-way partitioning of the same catalog (the `--shard-of` topology),
    // and a frontend over them built as `--shard-node` builds it, must
    // answer the same statement with a byte-identical CSV. SSB measures
    // are integer-valued, so the per-shard sums merge exactly in any
    // association; the step runs before the append below so the comparison
    // is against the layout the shards were cut from (re-partitioning
    // after an append re-clusters the appended rows into range order,
    // which only exact sums are insensitive to).
    let reference = client.run_csv(STATEMENT).map_err(|e| format!("reference csv run: {e}"))?;
    let reference_csv =
        reference.get("csv").and_then(Value::as_str).unwrap_or_default().to_string();
    expect(
        field_bool(&reference, "ok") == Some(true) && !reference_csv.is_empty(),
        "reference csv run",
        &reference,
    )?;
    let deployment = shard_dataset(dataset, 2).map_err(|e| format!("shard the catalog: {e}"))?;
    let mut servers = Vec::with_capacity(3);
    let step = (|| -> Result<(), String> {
        let mut addrs = Vec::with_capacity(deployment.shard_catalogs.len());
        for (i, catalog) in deployment.shard_catalogs.iter().enumerate() {
            let node = serve(Engine::new(catalog.clone()), ServerConfig::default())
                .map_err(|e| format!("boot shard node {i}: {e}"))?;
            addrs.push(node.addr().to_string());
            servers.push(node);
        }
        let engine = frontend_engine(dataset, &addrs).map_err(|e| format!("frontend: {e}"))?;
        let frontend = serve(engine, ServerConfig::default())
            .map_err(|e| format!("boot sharded frontend: {e}"))?;
        let addr = frontend.addr();
        servers.push(frontend);
        let mut shard_client =
            LineClient::connect(addr).map_err(|e| format!("connect sharded: {e}"))?;
        let run = shard_client.run_csv(STATEMENT).map_err(|e| format!("sharded run: {e}"))?;
        let csv = run.get("csv").and_then(Value::as_str).unwrap_or_default();
        expect(
            field_bool(&run, "ok") == Some(true) && csv == reference_csv,
            "2-shard scatter-gather run is byte-identical",
            &run,
        )
    })();
    // The frontend first, so no scan is in flight to a node that is gone.
    for server in servers.into_iter().rev() {
        server.shutdown();
    }
    step?;

    // Incremental cubes: subscribe to the statement, append two fact rows
    // (foreign keys 0 and 1 are in-domain at every scale), and verify the
    // append commits through incremental view maintenance, pushes a diff
    // frame to the subscription before answering, and that unsubscribing
    // releases the slot.
    let subscribed = client.subscribe(STATEMENT).map_err(|e| format!("subscribe: {e}"))?;
    let sub = subscribed.get("sub").and_then(Value::as_f64).unwrap_or(-1.0);
    let baseline = subscribed.get("cells").and_then(Value::as_f64).unwrap_or(-1.0);
    expect(
        field_bool(&subscribed, "ok") == Some(true) && sub >= 0.0 && baseline > 0.0,
        "subscribe returns the baseline evaluation",
        &subscribed,
    )?;

    let column = |values: &[f64]| Value::Array(values.iter().copied().map(Value::Number).collect());
    let batch_rows = Value::Object(vec![
        ("ckey".to_string(), column(&[0.0, 1.0])),
        ("skey".to_string(), column(&[0.0, 1.0])),
        ("pkey".to_string(), column(&[0.0, 1.0])),
        ("dkey".to_string(), column(&[0.0, 1.0])),
        ("quantity".to_string(), column(&[10.0, 20.0])),
        ("discount".to_string(), column(&[1.0, 2.0])),
        ("extendedprice".to_string(), column(&[1000.0, 2000.0])),
        ("revenue".to_string(), column(&[900.0, 1800.0])),
        ("supplycost".to_string(), column(&[300.0, 600.0])),
    ]);
    let appended = client.append("SSB", batch_rows).map_err(|e| format!("append: {e}"))?;
    let merged = appended.get("views_merged").and_then(Value::as_f64).unwrap_or(-1.0);
    let notified = appended.get("subscriptions_notified").and_then(Value::as_f64).unwrap_or(-1.0);
    expect(
        field_bool(&appended, "ok") == Some(true)
            && appended.get("appended").and_then(Value::as_f64) == Some(2.0)
            && merged == 3.0
            && notified == 1.0,
        "append maintains views and notifies the subscription",
        &appended,
    )?;

    let event = client.next_event().map_err(|e| format!("diff event: {e}"))?;
    expect(
        event.get("event").and_then(Value::as_str) == Some("diff")
            && event.get("sub").and_then(Value::as_f64) == Some(sub)
            && event.get("full").and_then(Value::as_bool) == Some(false),
        "append pushes a diff frame",
        &event,
    )?;

    let freed = client.unsubscribe(sub as u64).map_err(|e| format!("unsubscribe: {e}"))?;
    expect(field_bool(&freed, "unsubscribed") == Some(true), "unsubscribe", &freed)?;

    // Tenancy: an unknown key is refused and the session stays anonymous;
    // the self-check directory's `ci-key` binds the session to tenant `ci`.
    let bad = client.auth("not-a-key").map_err(|e| format!("auth bad key: {e}"))?;
    expect(
        field_bool(&bad, "ok") == Some(false) && error_code(&bad) == "auth_failed",
        "auth rejects unknown key",
        &bad,
    )?;
    let good = client.auth("ci-key").map_err(|e| format!("auth: {e}"))?;
    expect(
        field_bool(&good, "ok") == Some(true)
            && good.get("tenant").and_then(Value::as_str) == Some("ci"),
        "auth binds tenant",
        &good,
    )?;

    // Overload: `ci` is rate-limited to 1 req/s with burst 1, so the first
    // run drains the bucket and the immediate second run must be refused
    // with a structured `overloaded` error carrying `retry_after_ms`.
    let first = client.run(STATEMENT).map_err(|e| format!("rate-limited run: {e}"))?;
    expect(field_bool(&first, "ok") == Some(true), "run within rate", &first)?;
    let refused = client.run(STATEMENT).map_err(|e| format!("overloaded run: {e}"))?;
    let hint = refused
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    expect(
        field_bool(&refused, "ok") == Some(false)
            && error_code(&refused) == "overloaded"
            && hint >= 0.0,
        "overloaded with retry_after_ms",
        &refused,
    )?;

    // Robustness: an oversized frame gets `frame_too_large` and the
    // connection keeps serving.
    let oversized = "x".repeat(300 * 1024);
    client.send_raw(&oversized).map_err(|e| format!("oversized frame: {e}"))?;
    let rejection = client.read_response().map_err(|e| format!("oversized response: {e}"))?;
    expect(error_code(&rejection) == "frame_too_large", "oversized frame rejected", &rejection)?;
    let pong = client.ping().map_err(|e| format!("post-rejection ping: {e}"))?;
    expect(field_bool(&pong, "ok") == Some(true), "connection survives rejection", &pong)?;

    Ok(19)
}
