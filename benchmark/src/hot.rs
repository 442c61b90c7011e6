//! `serve_hot`: closed-loop `LineClient`s over a working set that fits the
//! result cache, so every `run` is a hit and the serve request path is all
//! of the latency.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::check::Body;
use crate::rig::Rig;
use crate::stmts::{HotPlan, HOT_CLIENTS};
use crate::window::{Generated, Sample, Window};

/// Requests per block of alternately traced and untraced ops.
const TRACE_BLOCK: u64 = 256;

/// What every client of a run shares.
#[derive(Clone, Copy)]
struct Shared<'a> {
    rig: &'a Rig,
    plan: &'a HotPlan,
    /// `expected[i]` is the body statement `i` must be answered with.
    expected: &'a [Body],
    seconds: f64,
    trace: bool,
    epoch: Instant,
}

fn client_loop(shared: &Shared, client_index: usize, barrier: &Barrier) -> Generated {
    let Shared { rig, plan, expected, seconds, trace, epoch } = *shared;
    let mut out = Generated::new(epoch);
    let connected = rig.connect();
    barrier.wait();
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(e);
            return out;
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut previous_end = Instant::now();
    for request in plan.requests(client_index) {
        if Instant::now() >= deadline {
            break;
        }
        let class = plan.statements[request.statement].class;
        // Op ids are unique across clients: the client index is the low bit.
        let op = out.attempted * HOT_CLIENTS as u64 + client_index as u64;
        let traced = trace && (out.attempted / TRACE_BLOCK) % 2 == 1;
        out.attempted += 1;

        let begin = Instant::now();
        let response = if traced {
            let op_span = out.tracer.begin("op", op, class, None);
            let response = out
                .tracer
                .within("serve.request", op, class, Some(op_span), || client.run(&request.text));
            out.tracer.end(op_span);
            response
        } else {
            client.run(&request.text)
        };
        let end = Instant::now();

        match response {
            Ok(response) => {
                out.samples.push(Sample {
                    class,
                    latency_ns: (end - begin).as_nanos() as u64,
                    late_ns: (begin - previous_end).as_nanos() as u64,
                    traced,
                });
                if Body::from_response(&response).as_ref() != Some(&expected[request.statement]) {
                    out.failures.push(format!("{class}: body differs from the in-process result"));
                }
            }
            Err(e) => {
                out.failures.push(format!("{class}: {e}"));
                break; // the connection is gone
            }
        }
        previous_end = Instant::now();
    }
    out
}

/// Runs [`HOT_CLIENTS`] clients for `seconds`; `expected[i]` is the body
/// statement `i` must be answered with.
pub fn run(
    rig: &Rig,
    plan: &HotPlan,
    expected: &[Body],
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Window {
    let barrier = Barrier::new(HOT_CLIENTS + 1);
    let shared = Shared { rig, plan, expected, seconds, trace, epoch };
    let mut window = Window::new(epoch);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || client_loop(shared, c, barrier))
            })
            .collect();
        barrier.wait();
        let outcomes = window.metered(rig, |_| {
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        for out in outcomes {
            window.absorb(out);
        }
    });
    window
}
