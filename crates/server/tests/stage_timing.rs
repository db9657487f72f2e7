//! One clock per stage: every timed stage (`plan`, `cache_probe`,
//! `compute`, `materialize`, `dispatch`) opens a single guard whose two
//! clock reads feed both the stage histogram and the request's span, so a
//! traced request's span durations equal exactly what the matching
//! histograms gained — and untraced requests still feed the histograms.

use pfe_engine::Json;
use pfe_obs::HistogramSnapshot;
use pfe_server::proto::Dispatcher;

/// Span name → the histogram its guard records into.
const STAGES: [(&str, &str); 4] = [
    ("plan", "engine_stage_plan_ns"),
    ("cache_probe", "engine_stage_cache_probe_ns"),
    ("materialize", "engine_stage_materialize_ns"),
    ("dispatch", "server_op_latency_ns_f0"),
];

fn ok(d: &Dispatcher, line: &str) -> Json {
    let json = d.handle_line(line).json;
    assert_eq!(json.get("ok"), Some(&Json::Bool(true)), "{line} -> {json}");
    json
}

/// A started engine with rows ingested and a snapshot published.
fn primed() -> Dispatcher {
    let d = Dispatcher::new(None);
    ok(&d, r#"{"op":"start","d":8,"q":2,"shards":2}"#);
    let rows: Vec<String> = (0..200u64)
        .map(|i| {
            let bits: Vec<String> = (0..8)
                .map(|b| (((i * 7 + 3) >> b) & 1).to_string())
                .collect();
            format!("[{}]", bits.join(","))
        })
        .collect();
    ok(
        &d,
        &format!(r#"{{"op":"ingest","rows":[{}]}}"#, rows.join(",")),
    );
    ok(&d, r#"{"op":"snapshot"}"#);
    d
}

fn snapshots(d: &Dispatcher) -> Vec<HistogramSnapshot> {
    STAGES
        .iter()
        .map(|(_, hist)| d.recorder().histogram(hist).snapshot())
        .collect()
}

#[test]
fn traced_span_durations_equal_histogram_deltas() {
    let d = primed();
    let f0 = r#"{"op":"f0","cols":[0,1,2]}"#;
    ok(&d, f0); // fills the answer cache
    let before = snapshots(&d);
    let trace_id = "000000000000000000000000000c10c5";
    let reply = ok(
        &d,
        &format!(r#"{{"op":"f0","cols":[0,1,2],"trace":"{trace_id}"}}"#),
    );
    assert_eq!(reply.get("cached"), Some(&Json::Bool(true)), "{reply}");
    let after = snapshots(&d);
    let trace = d
        .recorder()
        .trace_store()
        .lookup(0xc10c5)
        .expect("client-traced request is retained");
    for (i, (span_name, hist)) in STAGES.iter().enumerate() {
        let spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == *span_name)
            .collect();
        assert_eq!(spans.len(), 1, "one {span_name} span");
        let span_ns = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(after[i].count - before[i].count, 1, "{hist} count");
        assert_eq!(
            after[i].sum - before[i].sum,
            span_ns,
            "{hist} gained exactly the {span_name} span's duration"
        );
    }
    // A cache hit runs no compute stage.
    assert!(trace.spans.iter().all(|s| s.name != "compute"));
}

#[test]
fn untraced_requests_still_feed_the_stage_histograms() {
    let d = primed();
    d.recorder().trace_store().set_sample(0);
    let traces_before = d.recorder().trace_store().len();
    let before = snapshots(&d);
    let compute_before = d.recorder().histogram("engine_stage_compute_ns").count();
    const N: u64 = 5;
    for i in 0..N {
        // The first query computes; the rest hit the cache. A client
        // trace id is ignored while sampling is 0.
        let trace = if i == 0 {
            r#","trace":"0000000000000000000000000000abcd""#
        } else {
            ""
        };
        ok(&d, &format!(r#"{{"op":"f0","cols":[0,1,3]{trace}}}"#));
    }
    let after = snapshots(&d);
    for (i, (_, hist)) in STAGES.iter().enumerate() {
        assert_eq!(
            after[i].count - before[i].count,
            N,
            "{hist} counts every request"
        );
    }
    assert_eq!(
        d.recorder().histogram("engine_stage_compute_ns").count() - compute_before,
        1
    );
    assert_eq!(
        d.recorder().trace_store().len(),
        traces_before,
        "no traces kept"
    );
}
