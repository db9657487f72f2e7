//! The traced run's layer ledger: each layer's public functions called
//! in-process, from outside, on the workload's own seeded inputs, every
//! call wrapped in one of the benchmark's spans.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use pfe_engine::wire::{answer_to_json, query_from_json};
use pfe_engine::{
    planner, CachedAnswer, Engine, Json, Query, QueryCache, Recorder, ShardSummary, Snapshot,
    Statistic,
};
use pfe_ingest::{FileIngester, IngestOptions, VecSink};
use pfe_row::ColumnSet;
use pfe_server::proto::{Backend, Dispatcher};
use pfe_server::LineFramer;

use crate::gen::{self, D};
use crate::stats::{median, per_item_ns};
use crate::trace::Tracer;
use crate::verify::engine_config;
use crate::workloads::{Inputs, Metric};

/// Wall-clock budget per sub-µs measurement, in seconds.
const BUDGET: f64 = 0.15;
/// Rows the in-process ingest layers replay (a prefix of the workload's).
const LAYER_ROWS: usize = 20_000;
const APPLY_ROWS: usize = 4_000;
const REPS: usize = 3;
/// Requests of the exploration stream the compute layer is timed on.
const COMPUTE_REQUESTS: usize = 600;

fn e(x: impl std::fmt::Display) -> String {
    x.to_string()
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The benchmark's own std TCP echo: the kernel loopback floor for one
/// request/reply round trip, in µs.
fn loopback_echo_us(line: &str, rounds: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(e)?;
    let addr = listener.local_addr().map_err(e)?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (sock, _) = listener.accept()?;
            sock.set_nodelay(true)?;
            let mut w = sock.try_clone()?;
            let mut r = BufReader::new(sock);
            let mut buf = String::new();
            while r.read_line(&mut buf)? > 0 {
                w.write_all(buf.as_bytes())?;
                buf.clear();
            }
            Ok(())
        });
        let mut conn = crate::client::Conn::connect(addr)?;
        let mut rtt = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            conn.call(line)?;
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(conn);
        echo.join().expect("echo thread").map_err(e)?;
        Ok(median(&rtt))
    })
}

fn compute_us(snap: &Snapshot, q: &Query) -> Result<f64, String> {
    let cols = ColumnSet::from_indices(D, &q.cols).map_err(|x| format!("{x:?}"))?;
    let t = Instant::now();
    match &q.statistic {
        Statistic::F0 => {
            black_box(snap.f0(&cols).map_err(e)?);
        }
        Statistic::Frequency { pattern } => {
            let key = snap.encode_pattern(&cols, pattern).map_err(e)?;
            black_box(snap.frequency(&cols, key).map_err(e)?);
        }
        Statistic::HeavyHitters { phi } => {
            black_box(snap.heavy_hitters(&cols, *phi, 1.0, 2.0).map_err(e)?);
        }
        Statistic::L1Sample { k, seed } => {
            black_box(snap.l1_sample(&cols, *k, *seed).map_err(e)?);
        }
        other => return Err(format!("unexpected statistic {other:?}")),
    }
    Ok(t.elapsed().as_secs_f64() * 1e6)
}

pub struct Suite {
    pub metrics: Vec<Metric>,
    /// Median compute time (µs) over the exploration stream's mix.
    pub compute_us: f64,
}

/// Run every layer once over `inputs`, each inside a span. `warm_cache`
/// says whether the workload's requests are answered from the cache; the
/// compute layer runs over a seeded exploration stream on every workload.
pub fn suite(
    inputs: &Inputs,
    warm_cache: bool,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Suite, String> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    let cfg = engine_config();

    // ingest: parse only.
    tracer.begin("layer:ingest.parse");
    let mut parse_s = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..REPS {
        let (r, s) = secs(|| {
            FileIngester::new(IngestOptions::default()).ingest_into(&inputs.csv, VecSink::default())
        });
        rows = r.map_err(e)?.0.packed;
        parse_s.push(s);
    }
    tracer.end();
    put(
        "ingest.parse_mb_s",
        inputs.csv_bytes as f64 / 1e6 / median(&parse_s),
        "MB/s",
    );
    let bytes_per_row = inputs.csv_bytes as f64 / rows.len().max(1) as f64;
    let rows = &rows[..rows.len().min(LAYER_ROWS)];

    // engine.ingest / engine.snapshot: enqueue, then refresh after the last push.
    tracer.begin("layer:engine.ingest+refresh");
    let (mut enqueue_s, mut refresh_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let engine = Engine::start(D, 2, cfg.clone()).map_err(e)?;
        let t0 = Instant::now();
        for chunk in rows.chunks(8192) {
            engine.push_packed_batch(chunk).map_err(e)?;
        }
        let t1 = Instant::now();
        engine.refresh().map_err(e)?;
        let t2 = Instant::now();
        tracer.record("engine.push_packed_batch", t0, t1);
        tracer.record("engine.refresh", t1, t2);
        enqueue_s.push((t1 - t0).as_secs_f64());
        refresh_ms.push((t2 - t1).as_secs_f64() * 1e3);
        engine.shutdown().map_err(e)?;
    }
    tracer.end();
    put(
        "engine.ingest.enqueue_mb_s",
        rows.len() as f64 * bytes_per_row / 1e6 / median(&enqueue_s),
        "MB/s",
    );

    // engine.shard: single-threaded apply per (row, net member).
    let members = pfe_core::AlphaNet::new(D, cfg.alpha)
        .map_err(e)?
        .member_count(pfe_core::NetMode::Full) as f64;
    tracer.begin("layer:engine.shard.apply");
    let apply = &rows[..rows.len().min(APPLY_ROWS)];
    let mut apply_ns = Vec::new();
    for _ in 0..REPS {
        let mut shard = ShardSummary::new(D, 2, 0, &cfg).map_err(e)?;
        let (_, s) = secs(|| apply.iter().for_each(|&r| shard.push_packed(r)));
        apply_ns.push(s * 1e9 / (apply.len() as f64 * members));
        black_box(shard.rows());
    }
    tracer.end();
    put("engine.shard.apply_ns_per_update", median(&apply_ns), "ns");
    put("engine.shard.net_members", members, "count");
    put("engine.snapshot.refresh_ms", median(&refresh_ms), "ms");

    // engine.snapshot merge and persist.
    let load = || Snapshot::load_from(&inputs.snap).map_err(e);
    tracer.begin("layer:persist+merge");
    let (mut merge_ms, mut save_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let copy = inputs.snap.with_extension("layer.pfes");
    for _ in 0..REPS {
        let (snap, s) = secs(load);
        load_ms.push(s * 1e3);
        let mut a = snap?;
        let b = load()?;
        let (r, s) = secs(|| a.merge(&b));
        r.map_err(e)?;
        merge_ms.push(s * 1e3);
        let (r, s) = secs(|| b.save_to(&copy));
        r.map_err(e)?;
        save_ms.push(s * 1e3);
    }
    tracer.end();
    put("engine.snapshot.merge_ms", median(&merge_ms), "ms");
    put("persist.save_ms", median(&save_ms), "ms");
    put("persist.load_ms", median(&load_ms), "ms");
    let size = std::fs::metadata(&inputs.snap).map_err(e)?.len();
    put("persist.snapshot_bytes", size as f64, "count");

    // Request path, layer by layer, over the workload's request stream.
    let snap = load()?;
    let lines: Vec<&String> = inputs.requests.iter().take(1024).collect();
    let queries: Vec<Query> = lines
        .iter()
        .map(|l| query_from_json(&Json::parse(l).map_err(e)?))
        .collect::<Result<_, String>>()?;
    let n = queries.len();

    tracer.begin("layer:engine.exec.compute");
    let explore = gen::explore_queries(&mut gen::Rng::new(seed ^ 0xc0ffee), COMPUTE_REQUESTS);
    let (mut by_op, mut all) = (vec![Vec::new(); gen::OPS.len()], Vec::new());
    for line in &explore {
        let q = query_from_json(&Json::parse(line).map_err(e)?)?;
        let us = compute_us(&snap, &q)?;
        by_op[op_index(&q.statistic).ok_or("unexpected statistic")?].push(us);
        all.push(us);
    }
    for (name, t) in COMPUTE_NAMES.iter().zip(&by_op) {
        put(name, median(t), "us");
    }
    tracer.end();

    tracer.begin("layer:engine.planner");
    let plan_ns = per_item_ns(n, BUDGET, || {
        for q in &queries {
            black_box(planner::plan(&snap, std::slice::from_ref(q)));
        }
    });
    tracer.end();
    put("engine.planner.plan_ns", plan_ns, "ns");

    tracer.begin("layer:engine.cache.probe");
    let cache = QueryCache::new(cfg.cache_capacity);
    let keys: Vec<_> = queries
        .iter()
        .filter_map(|q| {
            planner::plan(&snap, std::slice::from_ref(q))
                .groups
                .first()
                .map(|g| g.key)
        })
        .take(cfg.cache_capacity)
        .collect();
    for k in &keys {
        cache.put(*k, CachedAnswer::F0(1.0));
    }
    let probe_ns = per_item_ns(keys.len(), BUDGET, || {
        for k in &keys {
            black_box(cache.get(k));
        }
    });
    tracer.end();
    put("engine.cache.probe_ns", probe_ns, "ns");

    tracer.begin("layer:engine.exec.query");
    let (engine, _) =
        Engine::from_snapshot(Arc::new(load()?), cfg.clone(), Arc::new(Recorder::new()))
            .map_err(e)?;
    let (mut hit, mut miss, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    for q in &queries {
        let mut bypass = q.clone();
        bypass.options.bypass_cache = true;
        let (r, s) = secs(|| engine.query(&bypass));
        r.map_err(e)?;
        miss.push(s * 1e6);
        let (r, s) = secs(|| engine.query(q));
        answers.push(r.map_err(e)?);
        hit.push(s * 1e6);
    }
    tracer.end();
    put("engine.exec.query_us.hit", median(&hit), "us");
    put("engine.exec.query_us.miss", median(&miss), "us");

    tracer.begin("layer:engine.json+wire");
    let decode_ns = per_item_ns(n, BUDGET, || {
        for l in &lines {
            black_box(Json::parse(l).ok());
        }
    });
    let encode_ns = per_item_ns(n, BUDGET, || {
        for a in &answers {
            black_box(answer_to_json(a, 2).to_string());
        }
    });
    let per_line = inputs.ingest_rows as f64 / inputs.ingest_lines.len().max(1) as f64;
    let ingest_decode = per_item_ns(inputs.ingest_lines.len(), BUDGET, || {
        for l in &inputs.ingest_lines {
            black_box(Json::parse(l).ok());
        }
    });
    tracer.end();
    put("engine.json.decode_ns", decode_ns, "ns");
    put("engine.wire.encode_ns", encode_ns, "ns");
    put(
        "engine.json.decode_ns_per_row",
        ingest_decode / per_line,
        "ns",
    );

    tracer.begin("layer:server.framing");
    let stream: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.bytes().chain([b'\n']))
        .collect();
    let framing_ns = per_item_ns(n, BUDGET, || {
        let mut framer = LineFramer::new(1 << 20);
        for chunk in stream.chunks(4096) {
            framer.push(chunk);
            while let Some(ev) = framer.pop_event() {
                black_box(ev);
            }
        }
    });
    tracer.end();
    put("server.framing.ns_per_line", framing_ns, "ns");

    // Dispatcher in-process on the same snapshot with a fresh cache,
    // per-call timing. When the workload's traffic is cache-hot, a warm
    // pass first fills the cache as it is on the server.
    tracer.begin("layer:server.proto.dispatch");
    drop(engine);
    let (engine, _) =
        Engine::from_snapshot(Arc::new(load()?), cfg.clone(), Arc::new(Recorder::new()))
            .map_err(e)?;
    let dispatcher = Dispatcher::new(None);
    dispatcher.install(Backend::Plain(engine), 2);
    if warm_cache {
        for l in &lines {
            black_box(dispatcher.handle_line(l).json.to_string());
        }
    }
    let mut dispatch = Vec::with_capacity(n);
    for l in &lines {
        let t = Instant::now();
        black_box(dispatcher.handle_line(l).json.to_string());
        let t1 = Instant::now();
        tracer.record("dispatcher.handle_line", t, t1);
        dispatch.push((t1 - t).as_secs_f64() * 1e6);
    }
    tracer.end();
    put("server.proto.dispatch_us", median(&dispatch), "us");

    let echo = tracer.scope("layer:net.loopback_echo", |_| {
        loopback_echo_us(lines[0], 2000)
    })?;
    put("net.loopback_echo_us", echo, "us");
    Ok(Suite {
        metrics: out,
        compute_us: median(&all),
    })
}

const COMPUTE_NAMES: [&str; 4] = [
    "engine.exec.compute_us.f0",
    "engine.exec.compute_us.frequency",
    "engine.exec.compute_us.heavy_hitters",
    "engine.exec.compute_us.l1_sample",
];

fn op_index(s: &Statistic) -> Option<usize> {
    match s {
        Statistic::F0 => Some(0),
        Statistic::Frequency { .. } => Some(1),
        Statistic::HeavyHitters { .. } => Some(2),
        Statistic::L1Sample { .. } => Some(3),
        _ => None,
    }
}

fn get(v: &[Metric], name: &str) -> f64 {
    v.iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or(f64::NAN)
}

/// Print one ledger: named self-times against an end-to-end value, plus
/// the unattributed remainder.
fn table(
    title: &str,
    total_name: &str,
    total: f64,
    unit: &str,
    rows: &[(&str, f64)],
) -> Vec<String> {
    let mut out = vec![format!(
        "ledger {title}: {total_name} = {total:.3} {unit} (untraced)"
    )];
    let mut sum = 0.0;
    for (name, v) in rows {
        sum += v;
        out.push(format!(
            "  {name:<34} {v:>12.3} {unit}  {:>6.1}%",
            100.0 * v / total
        ));
    }
    let rest = total - sum;
    out.push(format!(
        "  {:<34} {rest:>12.3} {unit}  {:>6.1}%",
        "unattributed",
        100.0 * rest / total
    ));
    out
}

/// The per-workload ledgers. `e2e` holds the untraced end-to-end values;
/// `cached` says whether the workload's reads are answered from the
/// cache, so the request path is a hit (no compute) or a miss.
pub fn ledgers(
    workload: &str,
    e2e: &[Metric],
    suite: &Suite,
    cached: bool,
    inputs: &Inputs,
) -> Vec<String> {
    let layers = &suite.metrics;
    let l = |name| get(layers, name);
    let mut out = Vec::new();
    let exec = if cached {
        l("engine.exec.query_us.hit")
    } else {
        l("engine.exec.query_us.miss")
    };
    let compute = if cached { 0.0 } else { suite.compute_us };
    let decode = l("engine.json.decode_ns") / 1e3;
    let encode = l("engine.wire.encode_ns") / 1e3;
    let plan = l("engine.planner.plan_ns") / 1e3;
    let probe = l("engine.cache.probe_ns") / 1e3;
    out.extend(table(
        "request path",
        "query_p50_us",
        get(e2e, "query_p50_us"),
        "us",
        &[
            ("server.framing", l("server.framing.ns_per_line") / 1e3),
            ("engine.json.decode", decode),
            ("engine.planner", plan),
            ("engine.cache.probe", probe),
            ("engine.exec.compute (stream median)", compute),
            ("engine.exec (self)", exec - plan - probe - compute),
            ("engine.wire.encode", encode),
            (
                "server.proto.dispatch (self)",
                l("server.proto.dispatch_us") - decode - exec - encode,
            ),
            ("net.loopback_echo", l("net.loopback_echo_us")),
        ],
    ));
    let members = l("engine.shard.net_members");
    let apply_ms = |rows: f64| l("engine.shard.apply_ns_per_update") * rows * members / 2.0 / 1e6;
    if workload == "file_ingest" {
        let mb = get(e2e, "ingest_mb_s");
        // Every CSV data row is 2·d bytes: d digits, d−1 commas, a newline.
        let n = inputs.csv_bytes as f64 / (2.0 * D as f64);
        out.extend(table(
            "file ingest",
            "ingest wall",
            inputs.csv_bytes as f64 / 1e6 / mb * 1e3,
            "ms",
            &[
                (
                    "process + engine start (setup_s)",
                    get(e2e, "setup_s") * 1e3,
                ),
                (
                    "ingest.parse",
                    inputs.csv_bytes as f64 / 1e6 / l("ingest.parse_mb_s") * 1e3,
                ),
                ("engine.shard.apply (2 shards)", apply_ms(n)),
                ("engine.snapshot.merge", l("engine.snapshot.merge_ms")),
                ("persist.save", l("persist.save_ms")),
            ],
        ));
    } else {
        let rows = inputs.write_batch_rows as f64;
        out.extend(table(
            "write path (one ingest batch + snapshot)",
            "freshness_p50_ms",
            get(e2e, "freshness_p50_ms"),
            "ms",
            &[
                (
                    "engine.json.decode (rows)",
                    l("engine.json.decode_ns_per_row") * rows / 1e6,
                ),
                ("engine.shard.apply (2 shards)", apply_ms(rows)),
                ("engine.snapshot.merge", l("engine.snapshot.merge_ms")),
                (
                    "net.loopback_echo x2",
                    2.0 * l("net.loopback_echo_us") / 1e3,
                ),
            ],
        ));
    }
    out
}
