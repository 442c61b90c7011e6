//! A small blocking line client for the protocol, used by the test
//! suite, the CI smoke session and the throughput benchmark.
//!
//! The client pairs responses to requests by id: responses can arrive out
//! of order (a quick `stats` answered by the reader thread can overtake a
//! long `run` answered by an executor), so [`LineClient::wait_for`]
//! buffers whatever arrives for other ids until asked for it.
//!
//! With [`LineClient::with_retry`] the client transparently retries
//! requests the server refuses with `overloaded`/`queue_full`: it sleeps
//! for the response's `retry_after_ms` hint (or its own exponential
//! schedule when the hint is missing), jittered to avoid thundering-herd
//! resubmission, up to [`RetryPolicy::max_retries`] attempts.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use serde::Value;

use crate::protocol::{self, get_str, get_u64, n, obj, s};

/// Backoff behavior for [`LineClient::with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first refusal (0 = behave like a bare client).
    pub max_retries: u32,
    /// Base of the exponential schedule when the server sends no
    /// `retry_after_ms` hint: attempt k sleeps `base * 2^k`, capped.
    pub base_delay: Duration,
    /// Upper bound on any single sleep, hinted or not.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// A tiny xorshift generator for retry jitter — deterministic given its
/// seed, no dependencies, good enough for decorrelating client sleeps.
struct Jitter(u64);

impl Jitter {
    fn new() -> Self {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9e37_79b9);
        Jitter(seed | 1)
    }

    /// A factor in `[0.5, 1.0)`: sleeps are shortened, never lengthened,
    /// so `retry_after_ms` stays an upper bound per attempt.
    fn factor(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 / 2.0
    }
}

/// A connected client session.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    session_id: u64,
    /// Responses read while waiting for a different id.
    pending: Vec<Value>,
    /// Pushed event frames (`"event"` field, no `"id"`) read while waiting
    /// for responses — diff frames and lag notices from subscriptions.
    events: Vec<Value>,
    /// When set, `request` retries `overloaded`/`queue_full` refusals.
    retry: Option<RetryPolicy>,
    jitter: Jitter,
}

impl LineClient {
    /// Connects and consumes the server's hello line.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<LineClient> {
        LineClient::connect_with_read_timeout(addr, None)
    }

    /// Like [`Self::connect`], but with a socket read timeout installed
    /// *before* the hello line is consumed, so even a peer that accepts and
    /// then stalls cannot block the caller forever. Used by the shard
    /// transport, whose coordinator must turn a hung node into a structured
    /// error instead of hanging the whole fan-out.
    pub fn connect_with_read_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> std::io::Result<LineClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(timeout)?;
        // Interactive line protocol: without TCP_NODELAY, Nagle holds a
        // second request back until the first one's response ACKs, which
        // serializes what should be pipelined sends.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = LineClient {
            writer,
            reader,
            next_id: 1,
            session_id: 0,
            pending: Vec::new(),
            events: Vec::new(),
            retry: None,
            jitter: Jitter::new(),
        };
        let hello = client.read_response()?;
        if hello.get("error").is_some() {
            let message = hello
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("connection refused")
                .to_string();
            return Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, message));
        }
        client.session_id = get_u64(&hello, "session").unwrap_or(0);
        Ok(client)
    }

    /// The server-assigned session id from the hello line.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Adjusts the socket read timeout (both clones share the descriptor,
    /// so reads through the buffered reader honor it too).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Opts into transparent retry of `overloaded`/`queue_full` refusals
    /// for every [`Self::request`]-based call.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Sends a raw line (appending `\n` if missing) without waiting.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()
    }

    /// Reads the next response line, whatever it answers.
    pub fn read_response(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(line.trim()).map_err(std::io::Error::from)
    }

    /// Sends `fields` (plus a fresh `id`) and returns the assigned id
    /// without waiting for the response.
    pub fn send(&mut self, mut fields: Vec<(&str, Value)>) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(0, ("id", n(id)));
        let line = protocol::to_line(&obj(fields));
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Blocks until the response for `id` arrives, buffering others.
    pub fn wait_for(&mut self, id: u64) -> std::io::Result<Value> {
        if let Some(pos) = self.pending.iter().position(|v| get_u64(v, "id") == Some(id)) {
            return Ok(self.pending.remove(pos));
        }
        loop {
            let response = self.read_response()?;
            if get_u64(&response, "id") == Some(id) {
                return Ok(response);
            }
            if response.get("event").is_some() {
                self.events.push(response);
            } else {
                self.pending.push(response);
            }
        }
    }

    /// Returns the next pushed event frame (a subscription's `diff` or
    /// `lagged` notice), blocking until one arrives. Responses read while
    /// blocking are buffered for [`Self::wait_for`].
    pub fn next_event(&mut self) -> std::io::Result<Value> {
        if !self.events.is_empty() {
            return Ok(self.events.remove(0));
        }
        loop {
            let frame = self.read_response()?;
            if frame.get("event").is_some() {
                return Ok(frame);
            }
            self.pending.push(frame);
        }
    }

    /// Whether a response is an admission refusal worth retrying, and its
    /// `retry_after_ms` hint if the server sent one.
    fn refusal_hint(response: &Value) -> Option<Option<u64>> {
        let error = response.get("error")?;
        match get_str(error, "code") {
            Some("overloaded") | Some("queue_full") => Some(get_u64(error, "retry_after_ms")),
            _ => None,
        }
    }

    /// Sends a request and waits for its response. With a [`RetryPolicy`]
    /// installed (see [`Self::with_retry`]), `overloaded`/`queue_full`
    /// refusals are retried after a jittered sleep honoring the server's
    /// `retry_after_ms` hint; other errors return as-is.
    pub fn request(&mut self, fields: Vec<(&str, Value)>) -> std::io::Result<Value> {
        let Some(policy) = self.retry.clone() else {
            let id = self.send(fields)?;
            return self.wait_for(id);
        };
        let mut attempt: u32 = 0;
        loop {
            let id = self.send(fields.clone())?;
            let response = self.wait_for(id)?;
            let Some(hint) = Self::refusal_hint(&response) else {
                return Ok(response);
            };
            if attempt >= policy.max_retries {
                return Ok(response); // refusal stands; caller sees it
            }
            let backoff = match hint {
                Some(ms) => Duration::from_millis(ms),
                None => policy.base_delay.saturating_mul(1u32 << attempt.min(16)),
            };
            let capped = backoff.min(policy.max_delay).max(Duration::from_millis(1));
            std::thread::sleep(capped.mul_f64(self.jitter.factor()));
            attempt += 1;
        }
    }

    // ------------------------------------------------------- conveniences

    pub fn ping(&mut self) -> std::io::Result<Value> {
        self.request(vec![("op", s("ping"))])
    }

    /// Binds the session to the tenant owning `key` via the `auth` op.
    pub fn auth(&mut self, key: &str) -> std::io::Result<Value> {
        self.request(vec![("op", s("auth")), ("key", s(key))])
    }

    pub fn check(&mut self, statement: &str) -> std::io::Result<Value> {
        self.request(vec![("op", s("check")), ("statement", s(statement))])
    }

    pub fn explain(&mut self, statement: &str) -> std::io::Result<Value> {
        self.request(vec![("op", s("explain")), ("statement", s(statement))])
    }

    pub fn run(&mut self, statement: &str) -> std::io::Result<Value> {
        self.request(vec![("op", s("run")), ("statement", s(statement))])
    }

    /// Runs with the full result as CSV (the byte-comparison format).
    pub fn run_csv(&mut self, statement: &str) -> std::io::Result<Value> {
        self.request(vec![("op", s("run")), ("statement", s(statement)), ("format", s("csv"))])
    }

    /// Runs with `"trace": true`, asking for the execution trace tree.
    pub fn run_traced(&mut self, statement: &str) -> std::io::Result<Value> {
        self.request(vec![
            ("op", s("run")),
            ("statement", s(statement)),
            ("trace", Value::Bool(true)),
        ])
    }

    /// Executes a group of statements as one `batch` with shared-scan
    /// scheduling. `format` is `"cells"` or `"csv"`; `trace` asks for the
    /// batch-level `shared_scan` spans plus per-statement traces.
    pub fn batch(
        &mut self,
        statements: &[&str],
        format: &str,
        trace: bool,
    ) -> std::io::Result<Value> {
        let items: Vec<Value> = statements.iter().map(|t| Value::String(t.to_string())).collect();
        let mut fields =
            vec![("op", s("batch")), ("statements", Value::Array(items)), ("format", s(format))];
        if trace {
            fields.push(("trace", Value::Bool(true)));
        }
        self.request(fields)
    }

    /// Fetches the registry snapshots as a text exposition.
    pub fn metrics(&mut self) -> std::io::Result<Value> {
        self.request(vec![("op", s("metrics"))])
    }

    /// Starts a run without waiting; pair with [`Self::wait_for`] and
    /// [`Self::cancel`].
    pub fn start_run(&mut self, statement: &str) -> std::io::Result<u64> {
        self.send(vec![("op", s("run")), ("statement", s(statement))])
    }

    pub fn cancel(&mut self, target: u64) -> std::io::Result<Value> {
        self.request(vec![("op", s("cancel")), ("target", n(target))])
    }

    /// Registers a live assessment; the response carries the subscription
    /// id and the complete baseline cells. Diff frames then arrive via
    /// [`Self::next_event`] after every append.
    pub fn subscribe(&mut self, statement: &str) -> std::io::Result<Value> {
        self.request(vec![("op", s("subscribe")), ("statement", s(statement))])
    }

    /// Drops a subscription by the id `subscribe` returned.
    pub fn unsubscribe(&mut self, sub: u64) -> std::io::Result<Value> {
        self.request(vec![("op", s("unsubscribe")), ("target", n(sub))])
    }

    /// Appends a fact batch: `rows` maps column names to arrays of numbers.
    pub fn append(&mut self, cube: &str, rows: Value) -> std::io::Result<Value> {
        self.request(vec![("op", s("append")), ("cube", s(cube)), ("rows", rows)])
    }

    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.request(vec![("op", s("stats"))])
    }

    pub fn set_policy(
        &mut self,
        deadline_ms: Option<u64>,
        max_rows_scanned: Option<u64>,
        max_output_cells: Option<u64>,
    ) -> std::io::Result<Value> {
        let mut fields = vec![("op", s("set_policy"))];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", n(ms)));
        }
        if let Some(rows) = max_rows_scanned {
            fields.push(("max_rows_scanned", n(rows)));
        }
        if let Some(cells) = max_output_cells {
            fields.push(("max_output_cells", n(cells)));
        }
        self.request(fields)
    }
}
