//! Load-generator smoke gate: a closed-loop multi-tenant run against a
//! **live** server (mixed request kinds, including `WHYNOT` and local
//! engine runs), reconciled exactly against the server's `STATS`
//! accounting and the exported query spans.
//!
//! Checks, in order:
//!
//! 1. a `STATS` snapshot parses as versioned JSON with the documented
//!    shape (schema version, pool gauges, per-kind request sections);
//! 2. after a closed-loop run, the **delta** between the post- and
//!    pre-load snapshots matches the client-side [`pebble_workloads::LoadReport`] count for
//!    every server-bound request kind *exactly* — the server completed
//!    precisely the requests the clients observed, none lost, none
//!    double-counted (`finish` happens before the terminal frame is
//!    written, so a client that saw `DONE` is guaranteed counted);
//! 3. local `RUN` operations (tenant engine runs, classified `other`
//!    client-side) never reach the server;
//! 4. with tracing enabled, the exported NDJSON trace carries one
//!    `kind:"query"` span per server-bound request, each stamped with a
//!    distinct query id in `task`.
//!
//! Non-zero exit on any violation — the CI gate for the service
//! observability stack. Usage: `load_smoke`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pebble_core::run_captured;
use pebble_dataflow::ExecConfig;
use pebble_nested::{json, DataItem, Value};
use pebble_obs::RequestKind;
use pebble_serve::{persist_file, query, query_with_id, ProvStore, ServeConfig, Server};
use pebble_workloads::{dblp_context, dblp_scenarios, run_closed_loop, ClosedLoopConfig};

const DBLP_RECORDS: usize = 1_200;
const TENANTS: usize = 8;
const REQUESTS_PER_TENANT: usize = 24;

/// Server-bound request kinds the mix exercises (everything but `stats`,
/// issued out-of-band, and `other`, which stays client-local).
const SERVER_KINDS: [RequestKind; 5] = [
    RequestKind::Backtrace,
    RequestKind::Pattern,
    RequestKind::Heatmap,
    RequestKind::Audit,
    RequestKind::WhyNot,
];

fn fail(msg: &str) -> ! {
    eprintln!("load_smoke FAILED: {msg}");
    std::process::exit(1);
}

fn get<'a>(item: &'a DataItem, key: &str) -> &'a Value {
    item.get(key)
        .unwrap_or_else(|| fail(&format!("STATS document is missing key \"{key}\"")))
}

fn get_int(item: &DataItem, key: &str) -> i64 {
    get(item, key)
        .as_int()
        .unwrap_or_else(|| fail(&format!("key \"{key}\" is not an integer")))
}

fn get_obj<'a>(item: &'a DataItem, key: &str) -> &'a DataItem {
    match get(item, key) {
        Value::Item(d) => d,
        other => fail(&format!("key \"{key}\" is not an object: {other:?}")),
    }
}

/// Parses the single `DATA` frame of a `STATS` response.
fn stats_doc(addr: std::net::SocketAddr) -> DataItem {
    let frames = query(addr, "STATS").unwrap_or_else(|e| fail(&format!("STATS failed: {e}")));
    let payload = frames
        .iter()
        .find_map(|f| f.strip_prefix("DATA "))
        .unwrap_or_else(|| fail(&format!("STATS returned no DATA frame: {frames:?}")));
    match json::parse(payload) {
        Ok(Value::Item(d)) => d,
        other => fail(&format!("STATS payload is not a JSON object: {other:?}")),
    }
}

fn kind_completed(doc: &DataItem, kind: RequestKind) -> i64 {
    get_int(get_obj(get_obj(doc, "requests"), kind.name()), "completed")
}

fn kind_errors(doc: &DataItem, kind: RequestKind) -> i64 {
    get_int(get_obj(get_obj(doc, "requests"), kind.name()), "errors")
}

fn main() {
    std::env::remove_var("PEBBLE_TRACE");
    std::env::remove_var("PEBBLE_METRICS");
    pebble_obs::force_metrics(false);

    // Live run: WHYNOT needs the captured run and its source context.
    let ctx = dblp_context(DBLP_RECORDS);
    let (scenario, run) = dblp_scenarios()
        .into_iter()
        .find_map(|s| {
            let run = run_captured(&s.program, &ctx, ExecConfig::with_partitions(2).workers(2))
                .unwrap_or_else(|e| fail(&format!("capture run failed: {e}")));
            (!run.output.rows.is_empty()).then_some((s.name, run))
        })
        .unwrap_or_else(|| fail("no DBLP scenario produced result rows"));

    let dir = std::env::temp_dir().join(format!("pebble-load-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("create temp dir: {e}")));
    let seg = dir.join("smoke.seg");
    let trace_path = dir.join("smoke.trace.ndjson");
    persist_file(&run, &seg).unwrap_or_else(|e| fail(&format!("persist failed: {e}")));
    let store =
        Arc::new(ProvStore::open(&seg).unwrap_or_else(|e| fail(&format!("cold open: {e}"))));

    let label = store
        .rows()
        .first()
        .and_then(|r| r.item.fields().next())
        .map(|(l, _)| l.to_string())
        .unwrap_or_else(|| fail("store has no rows"));
    let n = store.rows().len();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        debug_panic: false,
        trace_path: Some(trace_path.to_string_lossy().into_owned()),
    };
    let mut server = Server::start_live(Arc::clone(&store), run, ctx, &cfg)
        .unwrap_or_else(|e| fail(&format!("server start failed: {e}")));
    let addr = server.local_addr();

    // 1. Shape of a fresh snapshot.
    let s0 = stats_doc(addr);
    if get_int(&s0, "stats_version") != pebble_obs::STATS_SCHEMA_VERSION as i64 {
        fail("STATS stats_version mismatch");
    }
    if get_int(&s0, "uptime_ns") <= 0 {
        fail("STATS uptime_ns not positive");
    }
    if get_int(get_obj(&s0, "pool"), "workers") != 4 {
        fail("STATS pool.workers does not match the configured pool size");
    }
    // The snapshot is taken while the STATS request itself is in flight.
    if get_int(&s0, "in_flight") < 1 {
        fail("STATS in_flight should include the STATS request itself");
    }
    for kind in SERVER_KINDS {
        // Shape only; counts are reconciled as deltas below.
        let _ = kind_completed(&s0, kind);
    }

    // 2. Closed-loop mixed load. `RUN` executes a tenant-local engine
    // run; everything else goes to the server. Query ids must be present
    // and distinct across server-bound requests.
    let run_ctx = dblp_context(200);
    let run_prog = dblp_scenarios().remove(0).program;
    let qid_seen = AtomicU64::new(0);
    let transport = |req: &str| -> std::io::Result<Vec<String>> {
        if req == "RUN" {
            let local = run_captured(
                &run_prog,
                &run_ctx,
                ExecConfig::with_partitions(2).workers(2),
            )
            .unwrap_or_else(|e| fail(&format!("tenant engine run failed: {e}")));
            return Ok(vec![format!("DONE {}", local.output.rows.len())]);
        }
        let (qid, frames) = query_with_id(addr, req)?;
        match qid {
            Some(id) => {
                qid_seen.fetch_max(id, Ordering::Relaxed);
            }
            None => fail(&format!("response to {req:?} carried no QID frame")),
        }
        Ok(frames)
    };
    let mix: Vec<String> = vec![
        "BACKTRACE 0".into(),
        format!("BACKTRACE {}", n / 2),
        "HEATMAP 4".into(),
        "AUDIT".into(),
        format!("PATTERN //{label}"),
        format!("WHYNOT {label}=\"__load_smoke_missing__\""),
        "RUN".into(),
    ];
    let report = run_closed_loop(
        transport,
        &mix,
        &ClosedLoopConfig {
            tenants: TENANTS,
            requests_per_tenant: REQUESTS_PER_TENANT,
            think: Duration::from_micros(200),
        },
    );
    if report.transport_errors != 0 {
        fail(&format!("{} transport errors", report.transport_errors));
    }
    if report.errors != 0 {
        fail(&format!("{} ERROR frames under load", report.errors));
    }
    if report.completed != (TENANTS * REQUESTS_PER_TENANT) as u64 {
        fail(&format!(
            "closed loop completed {} of {} requests",
            report.completed,
            TENANTS * REQUESTS_PER_TENANT
        ));
    }

    // 3. Exact reconciliation: server-side deltas == client-side counts.
    let s1 = stats_doc(addr);
    let mut server_bound = 0u64;
    for kind in SERVER_KINDS {
        let delta = kind_completed(&s1, kind) - kind_completed(&s0, kind);
        let client = report.completed_for(kind);
        if delta != client as i64 {
            fail(&format!(
                "kind {}: server completed {delta}, clients observed {client}",
                kind.name()
            ));
        }
        if kind_errors(&s1, kind) - kind_errors(&s0, kind) != 0 {
            fail(&format!("kind {}: server recorded errors", kind.name()));
        }
        server_bound += client;
    }
    let other_delta =
        kind_completed(&s1, RequestKind::Other) - kind_completed(&s0, RequestKind::Other);
    if other_delta != 0 {
        fail("local RUN operations leaked to the server");
    }
    if report.completed_for(RequestKind::Other) == 0 {
        fail("mix produced no tenant-local RUN operations");
    }
    if get_int(&s1, "panics_contained") != 0 {
        fail("server contained worker panics during the smoke run");
    }

    // 4. Trace: one query span per server-bound request, distinct qids.
    server.shutdown();
    let trace =
        std::fs::read_to_string(&trace_path).unwrap_or_else(|e| fail(&format!("read trace: {e}")));
    let mut tasks: Vec<i64> = Vec::new();
    for line in trace.lines().filter(|l| !l.trim().is_empty()) {
        let item = match json::parse(line) {
            Ok(Value::Item(d)) => d,
            other => fail(&format!("trace line is not a JSON object: {other:?}")),
        };
        if get(&item, "kind").as_str() == Some("query") {
            tasks.push(get_int(&item, "task"));
        }
    }
    // Both STATS probes are server requests too, hence + 2.
    let expected_spans = server_bound + 2;
    if (tasks.len() as u64) < expected_spans {
        fail(&format!(
            "trace has {} query spans, expected at least {expected_spans}",
            tasks.len()
        ));
    }
    tasks.sort_unstable();
    let before = tasks.len();
    tasks.dedup();
    if tasks.len() != before {
        fail("query ids in the trace are not distinct");
    }
    if qid_seen.load(Ordering::Relaxed) == 0 {
        fail("clients never observed a query id");
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "load_smoke: ok — scenario {scenario}, {TENANTS} tenants x {REQUESTS_PER_TENANT} requests, \
         {server_bound} server-bound ({} run ops), {} query spans, per-kind STATS deltas exact",
        report.completed_for(RequestKind::Other),
        before,
    );
}
