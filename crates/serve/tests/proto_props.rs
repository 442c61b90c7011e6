//! Protocol robustness properties: random interleavings of valid
//! requests, malformed JSON, non-UTF-8 bytes, oversized frames, deeply
//! nested documents and cancels are thrown at one long-lived server. The
//! invariants under test: the server never panics, every id-bearing
//! request gets exactly one id-matched response, every garbage frame gets
//! a structured id-less refusal, and the connection stays usable
//! throughout.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use olap_engine::Engine;
use olap_storage::Catalog;
use proptest::prelude::*;
use serde::Value;
use ssb_data::SsbConfig;

use assess_serve::{serve, ServerConfig, ServerHandle};

const STATEMENT: &str = "with SSB by year assess revenue against 1300000 \
     using ratio(revenue, 1300000) \
     labels {[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}";

/// One tiny server shared by every generated case; cases are isolated by
/// session (each opens its own connection), which also exercises session
/// churn under fuzzing. Never shut down — it dies with the process.
fn shared_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dataset = ssb_data::generate::generate(SsbConfig::with_scale(0.002));
        ssb_data::views::register_default_views(&dataset.catalog, &dataset.schema)
            .expect("default views build");
        let catalog: Arc<Catalog> = dataset.catalog;
        serve(
            Engine::new(catalog),
            ServerConfig {
                workers: 2,
                max_frame_bytes: 1024,
                max_sessions: 16,
                ..ServerConfig::default()
            },
        )
        .expect("fuzz server boots")
    })
}

/// One frame of a generated session script, before ids are assigned.
#[derive(Debug, Clone)]
enum FrameKind {
    Ping,
    /// A well-formed run of the canonical statement.
    RunGood,
    /// A syntactically valid request whose statement fails to compile —
    /// still id-bearing, still owed exactly one response.
    RunBad,
    /// Cancels an earlier id-bearing frame (or a phantom id when the
    /// seed points past the script) — interleaved with live runs.
    Cancel(u64),
    /// A complete line that is not valid JSON (never starts like JSON,
    /// so it cannot accidentally parse).
    Garbage(Vec<u8>),
    /// A complete line with bytes that are not UTF-8 (leading 0xFF is
    /// invalid in any position).
    NotUtf8(Vec<u8>),
    /// A single line longer than the server's `max_frame_bytes`.
    Oversized(usize),
    /// A ping whose `x` field nests this many arrays deep. Within the
    /// parser's nesting cap it is answered by id; past it the frame is
    /// refused id-less (`bad_request`) and the session keeps serving.
    Nested(usize),
}

/// A frame ready to send: raw bytes plus the id a response must echo
/// (None for frames the server refuses without an id).
struct Frame {
    bytes: Vec<u8>,
    expect_id: Option<u64>,
}

fn frame_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Ping),
        Just(FrameKind::RunGood),
        Just(FrameKind::RunBad),
        (0u64..64).prop_map(FrameKind::Cancel),
        proptest::collection::vec(33u8..127, 1..40).prop_map(FrameKind::Garbage),
        proptest::collection::vec(0x80u8..0xFF, 1..20).prop_map(FrameKind::NotUtf8),
        (1100usize..3000).prop_map(FrameKind::Oversized),
        prop_oneof![100usize..=130, 130usize..480].prop_map(FrameKind::Nested),
    ]
}

fn script() -> impl Strategy<Value = Vec<FrameKind>> {
    proptest::collection::vec(frame_kind(), 1..12)
}

/// Assigns ids (1-based, in script order) to the id-bearing frames and
/// renders every frame to wire bytes, each newline-terminated — a
/// garbage frame without its newline would corrupt the frame after it,
/// which is a different bug than the one under test.
fn render(script: &[FrameKind]) -> Vec<Frame> {
    fn with_id(id_bearing: &mut Vec<u64>, body: String, id: u64) -> Frame {
        id_bearing.push(id);
        Frame { bytes: body.into_bytes(), expect_id: Some(id) }
    }
    let mut frames = Vec::with_capacity(script.len());
    let mut next_id: u64 = 0;
    let mut id_bearing: Vec<u64> = Vec::new();
    for kind in script {
        let frame = match kind {
            FrameKind::Ping => {
                next_id += 1;
                with_id(
                    &mut id_bearing,
                    format!("{{\"id\": {next_id}, \"op\": \"ping\"}}\n"),
                    next_id,
                )
            }
            FrameKind::RunGood => {
                next_id += 1;
                with_id(
                    &mut id_bearing,
                    format!(
                        "{{\"id\": {next_id}, \"op\": \"run\", \"statement\": {STATEMENT:?}}}\n"
                    ),
                    next_id,
                )
            }
            FrameKind::RunBad => {
                next_id += 1;
                with_id(
                    &mut id_bearing,
                    format!(
                        "{{\"id\": {next_id}, \"op\": \"run\", \"statement\": \"with NOPE by x assess y\"}}\n"
                    ),
                    next_id,
                )
            }
            FrameKind::Cancel(seed) => {
                // Aim at an earlier id when one exists so cancels really
                // do race in-flight runs; otherwise a phantom target.
                let target = if id_bearing.is_empty() {
                    seed + 1
                } else {
                    id_bearing[(*seed as usize) % id_bearing.len()]
                };
                next_id += 1;
                with_id(
                    &mut id_bearing,
                    format!("{{\"id\": {next_id}, \"op\": \"cancel\", \"target\": {target}}}\n"),
                    next_id,
                )
            }
            FrameKind::Garbage(body) => {
                let mut bytes = b"##".to_vec(); // cannot begin valid JSON
                bytes.extend_from_slice(body);
                bytes.push(b'\n');
                Frame { bytes, expect_id: None }
            }
            FrameKind::NotUtf8(body) => {
                let mut bytes = vec![0xFF];
                bytes.extend_from_slice(body);
                bytes.push(b'\n');
                Frame { bytes, expect_id: None }
            }
            FrameKind::Oversized(len) => {
                let mut bytes = vec![b'x'; *len];
                bytes.push(b'\n');
                Frame { bytes, expect_id: None }
            }
            FrameKind::Nested(depth) => {
                next_id += 1;
                let (open, close) = ("[".repeat(*depth), "]".repeat(*depth));
                let body =
                    format!("{{\"id\": {next_id}, \"op\": \"ping\", \"x\": {open}{close}}}\n");
                // The request object is one more level around the arrays.
                if *depth < serde_json::MAX_DEPTH {
                    with_id(&mut id_bearing, body, next_id)
                } else {
                    Frame { bytes: body.into_bytes(), expect_id: None }
                }
            }
        };
        frames.push(frame);
    }
    frames
}

/// Runs one generated script against the shared server and checks the
/// response-accounting invariants.
fn run_script(frames: &[Frame]) -> Result<(), TestCaseError> {
    let handle = shared_server();
    let stream = TcpStream::connect(handle.addr()).expect("fuzz client connects");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut writer = stream.try_clone().expect("stream clone");
    let mut reader = BufReader::new(stream);

    let read_json = |reader: &mut BufReader<TcpStream>| -> Result<Value, TestCaseError> {
        let mut line = String::new();
        let read = reader.read_line(&mut line).map_err(|e| {
            TestCaseError::fail(format!("read failed (timeout = hung server): {e}"))
        })?;
        if read == 0 {
            return Err(TestCaseError::fail("server closed the connection mid-script"));
        }
        serde_json::from_str(line.trim())
            .map_err(|e| TestCaseError::fail(format!("unparseable response {line:?}: {e}")))
    };

    let hello = read_json(&mut reader)?;
    prop_assert!(hello.get("hello").is_some(), "no hello: {hello:?}");

    for frame in frames {
        writer.write_all(&frame.bytes).expect("frame write");
    }
    writer.flush().expect("frame flush");

    // Collect until every id-bearing request has answered. Responses
    // arrive out of order (executor runs overtake nothing, quick ops
    // overtake runs), and id-less refusals interleave throughout.
    let mut awaiting: Vec<u64> = frames.iter().filter_map(|f| f.expect_id).collect();
    let expected_idless = frames.iter().filter(|f| f.expect_id.is_none()).count();
    let mut idless = 0usize;
    while !awaiting.is_empty() {
        let response = read_json(&mut reader)?;
        match response.get("id").and_then(Value::as_f64) {
            Some(id) => {
                let id = id as u64;
                let Some(pos) = awaiting.iter().position(|&want| want == id) else {
                    return Err(TestCaseError::fail(format!(
                        "duplicate or unknown response id {id}: {response:?}"
                    )));
                };
                awaiting.swap_remove(pos);
            }
            None => {
                // Structured refusal for a garbage frame: must carry an
                // error code, never a bare or ok-shaped line.
                let code = response.get("error").and_then(|e| e.get("code"));
                prop_assert!(code.is_some(), "id-less non-error response: {response:?}");
                idless += 1;
            }
        }
    }
    // The reader answers garbage synchronously in frame order, so by the
    // time the last id-bearing frame has its response every refusal for
    // an earlier frame has been written too... except when the script's
    // tail is pure garbage. Send one final ping as a barrier.
    writer.write_all(b"{\"id\": 999999, \"op\": \"ping\"}\n").expect("barrier write");
    loop {
        let response = read_json(&mut reader)?;
        match response.get("id").and_then(Value::as_f64) {
            Some(id) if id as u64 == 999_999 => break,
            Some(id) => {
                return Err(TestCaseError::fail(format!("late duplicate response id {id}")));
            }
            None => idless += 1,
        }
    }
    prop_assert_eq!(idless, expected_idless, "garbage frames and id-less refusals must match 1:1");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core robustness property from the issue: feed random
    /// malformed, truncated-looking, oversized and valid frames with
    /// interleaved cancels — the server never panics, never drops or
    /// duplicates a response, and the session survives to answer a
    /// clean ping at the end.
    #[test]
    fn every_request_is_answered_exactly_once(frames in script()) {
        let rendered = render(&frames);
        run_script(&rendered)?;
    }
}
