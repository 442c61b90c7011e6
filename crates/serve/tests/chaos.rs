//! Connection-chaos harness: a byte-level TCP proxy ([`ChaosProxy`])
//! injects slow-loris reads, mid-frame disconnects and truncation between
//! a client and an assess-serve instance, plus direct-socket garbage
//! floods and a 100+-connection tenant-fairness flood. After every
//! scenario the server must stay healthy: no panics, sessions evicted or
//! closed, admission drained, stats and metrics still consistent.
//!
//! The heavyweight randomized blast is gated behind `ASSESS_CHAOS_STRESS`
//! so smoke runs stay fast; CI's `serve-chaos` job sets it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use olap_engine::{Engine, ShardSet, ShardTransport};
use olap_storage::Catalog;
use rand::{Rng, SeedableRng};
use serde::Value;
use ssb_data::generate::SsbDataset;
use ssb_data::shard::{shard_dataset, ShardedSsb};
use ssb_data::SsbConfig;

use assess_serve::{
    serve, LineClient, RemoteShard, RetryPolicy, ServerConfig, ServerHandle, TenantDirectory,
    TenantSpec,
};

const CONSTANT: &str = "with SSB by customer, year assess revenue against 1300000 \
     using ratio(revenue, 1300000) \
     labels {[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}";
const SIBLING: &str = "with SSB for c_region = 'ASIA' by part, c_region assess revenue \
     against c_region = 'AMERICA' \
     using percOfTotal(difference(revenue, benchmark.revenue)) \
     labels quartiles";

/// One small SSB catalog shared by every chaos scenario in this binary.
fn ssb_catalog() -> Arc<Catalog> {
    static CATALOG: OnceLock<Arc<Catalog>> = OnceLock::new();
    CATALOG
        .get_or_init(|| {
            let dataset = ssb_data::generate::generate(SsbConfig::with_scale(0.005));
            ssb_data::views::register_default_views(&dataset.catalog, &dataset.schema)
                .expect("default views build");
            dataset.catalog
        })
        .clone()
}

fn boot(config: ServerConfig) -> ServerHandle {
    serve(Engine::new(ssb_catalog()), config).expect("server boots on an ephemeral port")
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

/// Polls `stats` until `check` passes or the deadline hits; panics with
/// the last snapshot otherwise. Used for post-chaos convergence (session
/// cleanup and queue drain are prompt but asynchronous).
fn wait_for_stats(client: &mut LineClient, what: &str, check: impl Fn(&Value) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = Value::Null;
    while Instant::now() < deadline {
        last = client.stats().expect("stats responds");
        if check(&last) {
            return;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("server never converged on {what}: {last:?}");
}

/// The full post-scenario health check: a fresh session can still run a
/// statement, the admission gate has drained, and the metrics exposition
/// scans line by line.
fn assert_server_healthy(handle: &ServerHandle) {
    let mut probe = LineClient::connect(handle.addr()).expect("post-chaos connect");
    let run = probe.run(CONSTANT).expect("post-chaos run");
    assert_eq!(run.get("ok").and_then(Value::as_bool), Some(true), "post-chaos run: {run:?}");
    wait_for_stats(&mut probe, "admission drain", |s| {
        stat_u64(s, &["admission", "outstanding"]) == 0
    });
    let metrics = probe.metrics().expect("post-chaos metrics");
    let exposition = metrics.get("exposition").and_then(Value::as_str).expect("exposition");
    for line in exposition.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (name, value) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        assert!(!name.is_empty(), "nameless sample line: {line}");
        assert!(value.parse::<f64>().is_ok(), "unparseable sample in: {line}");
    }
}

// ------------------------------------------------------------- chaos proxy

/// What the proxy does to the client→server byte stream (responses always
/// flow back untouched).
#[derive(Debug, Clone, Copy)]
enum ChaosMode {
    /// Relay bytes unmodified.
    Passthrough,
    /// Relay exactly `n` bytes, then sever both directions mid-frame.
    TruncateAfter(usize),
    /// Relay one byte per tick — a slow-loris writer that never completes
    /// a frame within any reasonable idle window.
    SlowDrip(Duration),
}

/// A std-only TCP relay between test clients and the server under test.
/// Each accepted connection dials the upstream and pumps bytes through
/// [`ChaosMode`]; dropping the proxy stops the acceptor (live relay
/// threads die with their sockets).
struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr, mode: ChaosMode) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().expect("proxy addr");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = stop.clone();
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Ok((client, _)) = listener.accept() else { break };
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(server) = TcpStream::connect(upstream) else { continue };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    let (client_rx, server_rx) = match (client.try_clone(), server.try_clone()) {
                        (Ok(c), Ok(s)) => (c, s),
                        _ => continue,
                    };
                    thread::spawn(move || pump(client_rx, server, mode));
                    thread::spawn(move || pump(server_rx, client, ChaosMode::Passthrough));
                }
            })
        };
        ChaosProxy { addr, stop, acceptor: Some(acceptor) }
    }

    fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr); // wake the blocking accept
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream, mode: ChaosMode) {
    let mut relayed = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        match mode {
            ChaosMode::Passthrough => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            ChaosMode::TruncateAfter(limit) => {
                let take = limit.saturating_sub(relayed).min(n);
                if take > 0 && to.write_all(&buf[..take]).is_err() {
                    break;
                }
                relayed += take;
                if relayed >= limit {
                    let _ = from.shutdown(Shutdown::Both);
                    break;
                }
            }
            ChaosMode::SlowDrip(interval) => {
                for &byte in &buf[..n] {
                    if to.write_all(&[byte]).is_err() {
                        return;
                    }
                    thread::sleep(interval);
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
}

/// A raw (non-`LineClient`) connection: gives the tests byte-level control
/// the client API deliberately does not expose.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("raw connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut conn = RawConn { stream, reader };
        let hello = conn.read_line().expect("server hello").expect("hello before EOF");
        assert!(hello.contains("\"hello\""), "unexpected hello: {hello}");
        conn
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one response line; `Ok(None)` is a clean EOF.
    fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line)),
            Err(e) => Err(e),
        }
    }

    fn read_json(&mut self) -> Value {
        let line = self.read_line().expect("response read").expect("response before EOF");
        serde_json::from_str(line.trim()).expect("response parses")
    }

    /// Drains the connection until EOF (or error), bounded by the read
    /// timeout per syscall.
    fn drain_to_eof(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            match self.read_line() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) | Err(_) => return lines,
            }
        }
    }
}

// ---------------------------------------------------------------- scenarios

/// A slow-loris client drips one byte at a time and never completes a
/// frame: the idle clock must evict it (partial bytes are not "activity"),
/// and the server stays fully serviceable.
#[test]
fn slow_loris_writers_are_evicted_not_served() {
    let handle =
        boot(ServerConfig { idle_timeout: Duration::from_millis(200), ..ServerConfig::default() });
    // The drip must be slower than the server's read poll (100ms): only a
    // read timeout gives the reader loop a chance to check the idle clock.
    let proxy = ChaosProxy::start(handle.addr(), ChaosMode::SlowDrip(Duration::from_millis(150)));

    let mut loris = RawConn::connect(proxy.addr());
    // ~24 bytes at 150ms/byte ≈ 3.6s to complete the frame — far past the
    // 200ms idle window. The proxy feeds the drip from its buffer.
    loris.write(b"{\"id\": 1, \"op\": \"ping\"}\n").expect("drip write");
    let leftovers = loris.drain_to_eof();
    // The server may have written the eviction notice before closing; it
    // must NOT have answered the ping (the frame never completed).
    for line in &leftovers {
        assert!(
            line.contains("idle_timeout"),
            "slow-loris got a real response instead of eviction: {line}"
        );
    }

    let mut probe = LineClient::connect(handle.addr()).expect("probe connects");
    wait_for_stats(&mut probe, "loris eviction", |s| {
        stat_u64(s, &["sessions", "idle_evicted"]) >= 1 && stat_u64(s, &["sessions", "active"]) == 1
    });
    drop(probe);
    assert_server_healthy(&handle);
    handle.shutdown();
}

/// Mid-frame disconnects at assorted byte offsets: the server must treat
/// the torn frame as garbage at worst, close the session, release every
/// resource, and keep serving everyone else.
#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let handle = boot(ServerConfig { workers: 2, ..ServerConfig::default() });
    let request = format!("{{\"id\": 9, \"op\": \"run\", \"statement\": {SIBLING:?}}}\n");
    for cut in [1, 7, 40, request.len() - 2] {
        let proxy = ChaosProxy::start(handle.addr(), ChaosMode::TruncateAfter(cut));
        let mut victim = RawConn::connect(proxy.addr());
        let _ = victim.write(request.as_bytes());
        // The relay severs after `cut` bytes; whatever comes back (a
        // bad_request for the torn prefix, or nothing) must end in EOF,
        // never a hang or an ok run response.
        let leftovers = victim.drain_to_eof();
        for line in &leftovers {
            let parsed: Value = serde_json::from_str(line.trim()).expect("response parses");
            assert_ne!(
                parsed.get("ok").and_then(Value::as_bool),
                Some(true),
                "torn frame (cut {cut}) produced a successful response: {line}"
            );
        }
        drop(proxy);
    }

    let mut probe = LineClient::connect(handle.addr()).expect("probe connects");
    wait_for_stats(&mut probe, "victim session cleanup", |s| {
        stat_u64(s, &["sessions", "active"]) == 1
    });
    drop(probe);
    assert_server_healthy(&handle);
    handle.shutdown();
}

/// Garbage floods: an oversized frame, raw non-UTF-8 bytes, and binary
/// noise. Every flood gets a structured refusal (or is discarded) and the
/// same connection keeps working afterwards.
#[test]
fn garbage_floods_get_structured_refusals() {
    let handle = boot(ServerConfig { max_frame_bytes: 4096, ..ServerConfig::default() });
    let mut conn = RawConn::connect(handle.addr());

    // 64 KiB with no newline: refused as frame_too_large once the cap is
    // crossed, the remainder of the line discarded in O(cap) memory.
    let flood = vec![b'x'; 64 * 1024];
    conn.write(&flood).expect("flood write");
    conn.write(b"\n").expect("flood newline");
    let response = conn.read_json();
    assert_eq!(
        response.get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("frame_too_large"),
        "oversized frame: {response:?}"
    );

    // Non-UTF-8 bytes forming a complete line: refused, connection lives.
    conn.write(b"\xff\xfe\x80 not utf8 \x9b\n").expect("binary write");
    let response = conn.read_json();
    assert_eq!(
        response.get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("bad_request"),
        "non-UTF-8 frame: {response:?}"
    );

    // Binary noise that happens to be UTF-8-clean is still not JSON.
    conn.write(b"\x7f\x7f\x09garbage\x09\x7f\n").expect("noise write");
    let response = conn.read_json();
    assert!(response.get("error").is_some(), "garbage line was accepted: {response:?}");

    // The same connection still answers real requests.
    conn.write(b"{\"id\": 2, \"op\": \"ping\"}\n").expect("ping write");
    let response = conn.read_json();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true), "{response:?}");
    assert_eq!(response.get("id").and_then(Value::as_f64), Some(2.0));

    drop(conn);
    assert_server_healthy(&handle);
    handle.shutdown();
}

// ----------------------------------------------------------------- fairness

/// The acceptance criterion for fair admission: 96 connections of one
/// tenant flood the server while 8 connections of an equal-weight tenant
/// submit politely. The light tenant's completed share must stay within
/// 2× of its fair share (≥ 0.25 of completions for equal weights), and
/// every refusal must be structured with a `retry_after_ms` hint.
#[test]
fn flooding_tenant_cannot_starve_an_equal_weight_tenant() {
    let tenants = Arc::new(
        TenantDirectory::new(
            TenantSpec::named("anonymous"),
            vec![
                // The flood is capped by its in-flight quota so admission
                // slots remain; DWRR then splits the workers fairly.
                TenantSpec::named("hot").with_key("hot-key").with_max_in_flight(8),
                TenantSpec::named("lite").with_key("lite-key"),
            ],
        )
        .expect("directory builds"),
    );
    let handle = boot(ServerConfig {
        workers: 2,
        max_queued: 16,
        cache_capacity: 0,
        max_sessions: 128,
        tenants,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    const HOT: usize = 96;
    const LITE: usize = 8;
    // Long enough for a meaningful completion count even in debug builds,
    // where one run costs ~100ms on the shared SF 0.005 catalog — with
    // headroom: at 1.5s a loaded machine intermittently came in under the
    // 20-run signal floor asserted below.
    const DURATION: Duration = Duration::from_millis(3000);
    let start_gate = Arc::new(Barrier::new(HOT + LITE));
    let hot_done = Arc::new(AtomicU64::new(0));
    let lite_done = Arc::new(AtomicU64::new(0));
    let unstructured = Arc::new(AtomicU64::new(0));

    let mut threads = Vec::new();
    for i in 0..HOT {
        let (gate, done, bad) = (start_gate.clone(), hot_done.clone(), unstructured.clone());
        threads.push(thread::spawn(move || {
            let mut client = LineClient::connect(addr).expect("hot connects");
            let auth = client.auth("hot-key").expect("hot auth");
            assert_eq!(auth.get("ok").and_then(Value::as_bool), Some(true));
            gate.wait();
            let deadline = Instant::now() + DURATION;
            while Instant::now() < deadline {
                let id = client.start_run(CONSTANT).expect("hot send");
                let response = client.wait_for(id).expect("hot response");
                if response.get("ok").and_then(Value::as_bool) == Some(true) {
                    done.fetch_add(1, Ordering::Relaxed);
                } else {
                    // A refusal without a code or a backoff hint is a
                    // dropped request in all but name.
                    let structured =
                        matches!(error_code(&response), Some("overloaded") | Some("queue_full"))
                            && response
                                .get("error")
                                .and_then(|e| e.get("retry_after_ms"))
                                .and_then(Value::as_f64)
                                .is_some_and(|ms| ms >= 1.0);
                    if !structured {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                    thread::sleep(Duration::from_millis(1 + (i as u64 % 3)));
                }
            }
        }));
    }
    for _ in 0..LITE {
        let (gate, done) = (start_gate.clone(), lite_done.clone());
        threads.push(thread::spawn(move || {
            let mut client = LineClient::connect(addr)
                .expect("lite connects")
                .with_retry(RetryPolicy { max_retries: 500, ..RetryPolicy::default() });
            let auth = client.auth("lite-key").expect("lite auth");
            assert_eq!(auth.get("ok").and_then(Value::as_bool), Some(true));
            gate.wait();
            let deadline = Instant::now() + DURATION;
            while Instant::now() < deadline {
                let response = client.run(CONSTANT).expect("lite run");
                assert_eq!(
                    response.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "lite request never admitted: {response:?}"
                );
                done.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for t in threads {
        t.join().expect("flood thread panicked");
    }

    let hot = hot_done.load(Ordering::Relaxed);
    let lite = lite_done.load(Ordering::Relaxed);
    assert_eq!(unstructured.load(Ordering::Relaxed), 0, "refusals must carry retry_after_ms");
    assert!(hot + lite >= 20, "flood produced too little signal: hot={hot} lite={lite}");
    let share = lite as f64 / (hot + lite) as f64;
    assert!(
        share >= 0.25,
        "equal-weight tenant starved: lite {lite} vs hot {hot} (share {share:.3})"
    );

    // Post-flood the per-tenant accounting is consistent and drained.
    let mut probe = LineClient::connect(addr).expect("probe connects");
    wait_for_stats(&mut probe, "flood drain", |s| stat_u64(s, &["admission", "outstanding"]) == 0);
    let stats = probe.stats().expect("stats");
    let tenants = stats.get("tenants").and_then(Value::as_array).expect("tenants section");
    for tenant in tenants {
        let name = tenant.get("name").and_then(Value::as_str).unwrap_or("?");
        assert_eq!(stat_u64(tenant, &["queued"]), 0, "tenant {name} still queued");
        assert_eq!(stat_u64(tenant, &["running"]), 0, "tenant {name} still running");
        let admitted = stat_u64(tenant, &["admitted"]);
        let completed = stat_u64(tenant, &["completed"]);
        assert_eq!(admitted, completed, "tenant {name} leaked permits");
    }
    drop(probe);
    assert_server_healthy(&handle);
    handle.shutdown();
}

// ------------------------------------------------------------- remote shards

/// A generated SSB dataset (not just the catalog) for the remote-shard
/// scenarios: sharding needs the counts and schema to cut range shards.
fn ssb_dataset() -> &'static SsbDataset {
    static DS: OnceLock<SsbDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let dataset = ssb_data::generate::generate(SsbConfig::with_scale(0.002));
        ssb_data::views::register_default_views(&dataset.catalog, &dataset.schema)
            .expect("default views build");
        dataset
    })
}

/// A frontend engine whose two shards live behind the given addresses,
/// with a short read timeout so hung nodes fail fast in tests.
fn remote_frontend(deployment: &ShardedSsb, addrs: &[SocketAddr]) -> Engine {
    let shards: Vec<Arc<dyn ShardTransport>> = addrs
        .iter()
        .map(|a| {
            Arc::new(RemoteShard::with_timeout(a.to_string(), Duration::from_secs(2)))
                as Arc<dyn ShardTransport>
        })
        .collect();
    let set = ShardSet::new(deployment.scheme.clone(), shards).expect("shard set builds");
    Engine::new(deployment.coordinator.clone()).with_shards(Arc::new(set))
}

fn csv_of(response: &Value) -> &str {
    response.get("csv").and_then(Value::as_str).expect("csv payload")
}

/// Polls `attempt` until it returns `Some` or the deadline hits. The
/// closure decides what counts as converged; transient states return
/// `None`.
fn poll_until<T>(what: &str, mut attempt: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(value) = attempt() {
            return value;
        }
        assert!(Instant::now() < deadline, "never converged on {what}");
        thread::sleep(Duration::from_millis(20));
    }
}

/// Kill a shard node mid-topology: every scatter-gather after the kill is
/// one structured `shard_unavailable` refusal — never a torn or partial
/// cube — and once the node is rebooted on the same address, the
/// coordinator's reconnect-on-next-use retry path recovers byte-identical
/// results without restarting the frontend.
#[test]
fn killed_shard_node_yields_shard_unavailable_then_recovers() {
    let deployment = shard_dataset(ssb_dataset(), 2).expect("2-way shard");
    let node0 = serve(Engine::new(deployment.shard_catalogs[0].clone()), ServerConfig::default())
        .expect("shard node 0 boots");
    let node1 = serve(Engine::new(deployment.shard_catalogs[1].clone()), ServerConfig::default())
        .expect("shard node 1 boots");
    let frontend = serve(
        remote_frontend(&deployment, &[node0.addr(), node1.addr()]),
        ServerConfig { cache_capacity: 0, ..ServerConfig::default() },
    )
    .expect("frontend boots");

    let mut client = LineClient::connect(frontend.addr()).expect("client connects");
    let before = client.run_csv(CONSTANT).expect("run before kill");
    assert_eq!(before.get("ok").and_then(Value::as_bool), Some(true), "{before:?}");
    let reference = csv_of(&before).to_string();

    // Kill shard 1. The frontend holds a cached connection to the dead
    // node; the next fan-out must fail it structurally and whole.
    let node1_addr = node1.addr();
    node1.shutdown();
    let refusal = poll_until("structured shard refusal", || {
        let response = client.run_csv(CONSTANT).expect("run during outage");
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            // A run raced the shutdown and won; the result must still be
            // the untorn reference.
            assert_eq!(csv_of(&response), reference, "torn cube during shutdown race");
            return None;
        }
        Some(response)
    });
    assert_eq!(error_code(&refusal), Some("shard_unavailable"), "{refusal:?}");
    assert!(refusal.get("csv").is_none(), "refusal carries result data: {refusal:?}");
    assert!(refusal.get("cells").is_none(), "refusal carries result data: {refusal:?}");

    // While one shard is down the frontend itself must stay serviceable.
    let pong = client.ping().expect("ping during outage");
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));

    // Reboot the node on the same address (the port just freed). The
    // transport dropped its connection on failure, so the next call
    // reconnects — that is the whole retry path.
    let node1 = poll_until("shard node reboot", || {
        serve(
            Engine::new(deployment.shard_catalogs[1].clone()),
            ServerConfig { addr: node1_addr.to_string(), ..ServerConfig::default() },
        )
        .ok()
    });
    let recovered = poll_until("scatter-gather recovery", || {
        let response = client.run_csv(CONSTANT).expect("run after reboot");
        (response.get("ok").and_then(Value::as_bool) == Some(true)).then_some(response)
    });
    assert_eq!(csv_of(&recovered), reference, "recovered cube must be byte-identical");

    drop(client);
    assert_server_healthy(&frontend);
    frontend.shutdown();
    node1.shutdown();
    node0.shutdown();
}

/// A SlowDrip'd shard node (requests crawl one byte at a time, so the node
/// never answers within the transport's read timeout) is indistinguishable
/// from a hang: the coordinator must turn it into the same structured
/// `shard_unavailable` — on every attempt, not just the first — and the
/// frontend must stay healthy throughout.
#[test]
fn slow_dripped_shard_node_fails_structurally_not_torn() {
    let deployment = shard_dataset(ssb_dataset(), 2).expect("2-way shard");
    let node0 = serve(Engine::new(deployment.shard_catalogs[0].clone()), ServerConfig::default())
        .expect("shard node 0 boots");
    let node1 = serve(Engine::new(deployment.shard_catalogs[1].clone()), ServerConfig::default())
        .expect("shard node 1 boots");
    // The drip sits between the frontend and node 1; the encoded partial
    // request is hundreds of bytes, so at 50ms/byte it cannot complete
    // within the 2s transport timeout.
    let proxy = ChaosProxy::start(node1.addr(), ChaosMode::SlowDrip(Duration::from_millis(50)));
    let frontend = serve(
        remote_frontend(&deployment, &[node0.addr(), proxy.addr()]),
        ServerConfig { cache_capacity: 0, ..ServerConfig::default() },
    )
    .expect("frontend boots");

    let mut client = LineClient::connect(frontend.addr()).expect("client connects");
    for attempt in 0..2 {
        let response = client.run_csv(SIBLING).expect("run against dripping shard");
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(false),
            "attempt {attempt} succeeded against a dripping shard: {response:?}"
        );
        assert_eq!(error_code(&response), Some("shard_unavailable"), "{response:?}");
        assert!(response.get("csv").is_none(), "torn result on attempt {attempt}: {response:?}");
    }

    // The frontend itself must stay healthy (the shared health probe runs
    // a statement, which here would fan out to the dripping shard again —
    // check serviceability through ping/stats/metrics instead).
    let mut probe = LineClient::connect(frontend.addr()).expect("post-chaos connect");
    assert_eq!(probe.ping().expect("ping").get("ok").and_then(Value::as_bool), Some(true));
    wait_for_stats(&mut probe, "admission drain", |s| {
        stat_u64(s, &["admission", "outstanding"]) == 0
    });
    let metrics = probe.metrics().expect("metrics");
    assert!(metrics.get("exposition").and_then(Value::as_str).is_some());
    drop(probe);
    drop(client);
    frontend.shutdown();
    drop(proxy);
    node1.shutdown();
    node0.shutdown();
}

// ------------------------------------------------------------------- stress

/// Heavy randomized blast (64 connections × random chaos), gated behind
/// `ASSESS_CHAOS_STRESS` so smoke runs stay fast. CI's serve-chaos job
/// sets the variable.
#[test]
fn randomized_chaos_blast_leaves_no_wreckage() {
    if std::env::var("ASSESS_CHAOS_STRESS").is_err() {
        eprintln!("skipping: set ASSESS_CHAOS_STRESS=1 to run the chaos blast");
        return;
    }
    let handle = boot(ServerConfig {
        workers: 4,
        max_sessions: 128,
        max_frame_bytes: 8 * 1024,
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let request = format!("{{\"id\": 1, \"op\": \"run\", \"statement\": {CONSTANT:?}}}\n");

    let threads: Vec<_> = (0..64)
        .map(|i| {
            let request = request.clone();
            thread::spawn(move || {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC4A05 + i);
                match i % 4 {
                    // Torn frames at random offsets through the proxy.
                    0 => {
                        let cut = rng.gen_range(1..request.len());
                        let proxy = ChaosProxy::start(addr, ChaosMode::TruncateAfter(cut));
                        let mut conn = RawConn::connect(proxy.addr());
                        let _ = conn.write(request.as_bytes());
                        conn.drain_to_eof();
                    }
                    // Oversized + binary floods on a direct socket.
                    1 => {
                        let mut conn = RawConn::connect(addr);
                        let size = rng.gen_range(9_000..64_000);
                        let mut flood = vec![b'z'; size];
                        for byte in flood.iter_mut().step_by(97) {
                            *byte = rng.gen_range(1..=255u8); // may break UTF-8 too
                        }
                        let _ = conn.write(&flood);
                        let _ = conn.write(b"\n");
                        let _ = conn.read_line();
                    }
                    // Well-behaved runs must survive the surrounding chaos.
                    2 => {
                        let mut client = LineClient::connect(addr)
                            .expect("client connects")
                            .with_retry(RetryPolicy { max_retries: 100, ..RetryPolicy::default() });
                        for _ in 0..3 {
                            let response = client.run(CONSTANT).expect("run survives chaos");
                            assert_eq!(
                                response.get("ok").and_then(Value::as_bool),
                                Some(true),
                                "well-behaved run failed during chaos: {response:?}"
                            );
                        }
                    }
                    // Interleaved sends and cancels, then abandon mid-read.
                    _ => {
                        let mut client = LineClient::connect(addr).expect("client connects");
                        let id = client.start_run(CONSTANT).expect("send");
                        if rng.gen_range(0..2) == 0 {
                            let _ = client.cancel(id);
                        }
                        // Drop without reading the run response: the
                        // server must clean up the abandoned session.
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("chaos thread panicked");
    }

    let mut probe = LineClient::connect(addr).expect("probe connects");
    wait_for_stats(&mut probe, "post-blast cleanup", |s| {
        stat_u64(s, &["admission", "outstanding"]) == 0 && stat_u64(s, &["sessions", "active"]) == 1
    });
    drop(probe);
    assert_server_healthy(&handle);
    handle.shutdown();
}
