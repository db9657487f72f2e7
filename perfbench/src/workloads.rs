//! The three workloads, each driving the release `pfe` binary as a
//! separate process and reporting every end-to-end metric.
//!
//! | metric | file_ingest | query_hot / explore_mixed |
//! |---|---|---|
//! | `setup_s` | `pfe ingest` of a one-row file | spawn → `start` → preload → last `snapshot` reply |
//! | `ingest_mb_s` | CSV bytes / wall to checkpoint on disk | preload JSON bytes / preload wall |
//! | `resume_ms` | `pfe query SNAP` | `pfe query` on the server's `checkpoint` |
//! | `query_*` | 2 closed-loop connections to `pfe serve --resume SNAP` | the workload's traffic |
//! | `freshness_*` | `pfe resume SNAP --ingest PART` → first `pfe query` answer | preload batch sent, or writer batch due → `snapshot` reply |
//! | `rss_peak_mb` | `pfe ingest` peak RSS | server peak RSS |
//!
//! A run is `rounds` repetitions of the whole workload — set-up, traffic,
//! checkpoint and resumes — so every kind of sample is spread over the
//! run rather than bunched in one stretch of it (see
//! [`better_quartile`]).

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pfe_engine::Json;
use pfe_ingest::{FileIngester, IngestOptions};

use crate::client::Conn;
use crate::gen::{self, Rng};
use crate::proc::{Pfe, Server};
use crate::stats::{better_quartile, median, quantile, windowed, windowed_rate};
use crate::trace::Tracer;
use crate::verify::{self, canonical, epoch_of, Reference, Tally, START};

const FILE_ROWS: usize = 100_000;
const PRELOAD_BATCHES: usize = 40;
const PRELOAD_BATCH_ROWS: usize = 500;
const WRITER_TICK: Duration = Duration::from_millis(100);
const WRITER_ROWS: usize = 100;
const READER_RATE: f64 = 500.0;
/// `pfe query` resumes timed per round.
const RESUME_REPS: usize = 5;
const VERIFY_QUERIES: usize = 16;
/// Width of the windows traffic metrics are read over (see `windowed`):
/// wide enough that each window's p99 has at least 10 samples beyond it.
const WINDOW_S: f64 = 1.0;
const OPEN_WINDOW_S: f64 = 2.0;
/// Small files appended to the checkpoint per round (`file_ingest`
/// freshness).
const APPENDS: usize = 10;
const APPEND_ROWS: usize = 2_000;
/// The open-loop run is invalid when the generator itself fell behind:
/// its median send went out more than `LATE_LIMIT` after it was due.
/// Short stalls that delay the generator delay the server too (they share
/// two cores) and are charged to latency, which is timed from the due
/// time.
const LATE_LIMIT: Duration = Duration::from_millis(1);

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the layer suite needs to re-run this workload's inputs in-process.
pub struct Inputs {
    pub csv: PathBuf,
    pub csv_bytes: u64,
    pub snap: PathBuf,
    pub requests: Vec<String>,
    pub ingest_lines: Vec<String>,
    pub ingest_rows: usize,
    /// Rows per write batch whose freshness the run reports.
    pub write_batch_rows: usize,
}

pub struct Run {
    pub e2e: Vec<Metric>,
    pub props: Vec<(&'static str, String)>,
    pub notes: Vec<String>,
    pub hit_ratio: f64,
    pub rejected_ratio: f64,
    pub inputs: Inputs,
    pub tally: Tally,
    /// `Err` when the load generator, not the program, fell behind.
    pub valid: Result<(), String>,
}

pub struct Ctx {
    pub pfe: Pfe,
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
}

impl Ctx {
    /// Whole seconds of traffic per round.
    fn round_secs(&self) -> f64 {
        (self.seconds / self.rounds as f64).floor().max(1.0)
    }
}

/// Samples gathered over a run's rounds. Time keys of round `r` are
/// offset by `r * ROUND_KEY`, so no window spans two rounds.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    ingest_mb_s: Vec<f64>,
    resume_ms: Vec<f64>,
    /// `(send or due time s, latency µs)`.
    query: Vec<(f64, f64)>,
    /// Achieved request rate per round, for open loops; closed loops
    /// read their rate from `query` windows.
    open_qps: Vec<f64>,
    /// `(window key, ms)`.
    fresh: Vec<(f64, f64)>,
    rss_mb: Vec<f64>,
    hit_ratio: Vec<f64>,
    rejected_ratio: Vec<f64>,
}

const ROUND_KEY: f64 = 1e4;

impl Samples {
    /// The end-to-end metrics, traffic read in windows of `window` s
    /// (freshness keyed by round reads one window per round).
    fn metrics(&self, window: f64) -> Vec<Metric> {
        vec![
            m("setup_s", better_quartile(&self.setup_s, true), "s"),
            m(
                "ingest_mb_s",
                better_quartile(&self.ingest_mb_s, false),
                "MB/s",
            ),
            m("resume_ms", better_quartile(&self.resume_ms, true), "ms"),
            m(
                "query_qps",
                if self.open_qps.is_empty() {
                    windowed_rate(&self.query, window)
                } else {
                    better_quartile(&self.open_qps, false)
                },
                "req/s",
            ),
            m("query_p50_us", windowed(&self.query, window, 0.5), "us"),
            m("query_p99_us", windowed(&self.query, window, 0.99), "us"),
            m("freshness_p50_ms", windowed(&self.fresh, window, 0.5), "ms"),
            m("freshness_p90_ms", windowed(&self.fresh, window, 0.9), "ms"),
            m("rss_peak_mb", median(&self.rss_mb), "MB"),
        ]
    }

    fn add_query(&mut self, round: usize, samples: &[(f64, f64)]) {
        let off = round as f64 * ROUND_KEY;
        self.query
            .extend(samples.iter().map(|&(t, v)| (off + t, v)));
    }

    fn add_server_stats(&mut self, stats: &ServerStats) {
        self.hit_ratio.push(stats.hit_ratio);
        self.rejected_ratio.push(stats.rejected_ratio);
        self.rss_mb.push(stats.rss_mb);
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn op_name(line: &str) -> &str {
    line.split("\"op\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or("?")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Closed-loop traffic: 2 connections, one thread each, each sending its
/// next request as soon as the previous reply arrives, for `secs` after
/// a `warmup`. Returns `(send offset s, latency µs)` samples, time-ordered;
/// replies are checked against `expected` as they arrive.
fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    expected: &[(Vec<u8>, Vec<u8>)],
    warmup: f64,
    secs: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Vec<(f64, f64)>, String> {
    let start = Instant::now();
    let from = start + Duration::from_secs_f64(warmup);
    let end = from + Duration::from_secs_f64(secs);
    tracer.begin("closed_loop");
    type Out = Result<(Vec<(f64, f64)>, Tally, Tracer), String>;
    let results: Vec<Out> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|k| {
                let mut t = tracer.fork(k + 2);
                s.spawn(move || {
                    let mut conn = Conn::connect(addr)?;
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut i = k as usize * lines.len() / 2;
                    loop {
                        let t0 = Instant::now();
                        if t0 >= end {
                            break;
                        }
                        let idx = i % lines.len();
                        i += 1;
                        conn.send(&lines[idx])?;
                        let reply = conn.recv()?;
                        let t1 = Instant::now();
                        if t0 >= from {
                            samples
                                .push(((t0 - from).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e6));
                            tally.check(&reply, &expected[idx]);
                            t.record(op_name(&lines[idx]), t0, t1);
                        }
                    }
                    Ok((samples, tally, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::new();
    for r in results {
        let (s, t, tr) = r?;
        samples.extend(s);
        tally.merge(t);
        tracer.absorb(tr);
    }
    tracer.end();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(samples)
}

/// One server bring-up: spawn, `start`, then the preload as ingest
/// batches each made visible by a `snapshot`.
struct Setup {
    server: Server,
    conn: Conn,
    /// Where the server's `checkpoint` op writes.
    ckpt: PathBuf,
    setup_s: f64,
    ingest_mb_s: f64,
    fresh_ms: Vec<f64>,
    epoch: u64,
}

fn bring_up(
    pfe: &Pfe,
    preload: &[String],
    ckpt: &Path,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    tracer.begin("setup");
    let t0 = Instant::now();
    let server = tracer.scope("spawn", |_| pfe.serve(&["--checkpoint", path_str(ckpt)]))?;
    let mut conn = Conn::connect(server.addr)?;
    tracer.scope("start", |_| conn.call_ok(START))?;
    tracer.begin("preload");
    let p0 = Instant::now();
    let mut bytes = 0usize;
    let mut fresh_ms = Vec::with_capacity(preload.len());
    let mut epoch = 0;
    for line in preload {
        let b0 = Instant::now();
        conn.call_ok(line)?;
        let snap = conn.call_ok(r#"{"op":"snapshot"}"#)?;
        let b1 = Instant::now();
        tracer.record("ingest+snapshot", b0, b1);
        fresh_ms.push(ms(b1 - b0));
        epoch = num(&snap, "epoch") as u64;
        bytes += line.len() + 1;
    }
    let end = Instant::now();
    tracer.end();
    tracer.end();
    Ok(Setup {
        server,
        conn,
        ckpt: ckpt.to_path_buf(),
        setup_s: (end - t0).as_secs_f64(),
        ingest_mb_s: bytes as f64 / 1e6 / (end - p0).as_secs_f64(),
        fresh_ms,
        epoch,
    })
}

/// The preload rows and their `ingest` requests.
fn preload(rng: &mut Rng) -> (Vec<u64>, Vec<String>) {
    let rows = gen::zipf_rows(rng, PRELOAD_BATCHES * PRELOAD_BATCH_ROWS);
    let lines = rows
        .chunks(PRELOAD_BATCH_ROWS)
        .map(gen::ingest_line)
        .collect();
    (rows, lines)
}

/// A reference engine in the state the server reaches after the preload,
/// and that state's epoch.
fn preloaded_reference(rows: &[u64]) -> Result<(Reference, u64), String> {
    let reference = Reference::new()?;
    let mut epoch = 0;
    for chunk in rows.chunks(PRELOAD_BATCH_ROWS) {
        reference.push(chunk)?;
        epoch = reference.refresh()?;
    }
    Ok((reference, epoch))
}

struct ServerStats {
    hit_ratio: f64,
    rejected_ratio: f64,
    rss_mb: f64,
}

fn server_stats(conn: &mut Conn, server: &Server) -> Result<ServerStats, String> {
    let stats = conn.call_ok(r#"{"op":"stats"}"#)?;
    let sstats = conn.call_ok(r#"{"op":"server_stats"}"#)?;
    Ok(ServerStats {
        hit_ratio: num(&stats, "cache_hit_ratio"),
        rejected_ratio: num(&sstats, "rejected_saturated")
            / num(&sstats, "requests_handled").max(1.0),
        rss_mb: server.rss_peak_mb(),
    })
}

/// After a round's traffic: read the counters, checkpoint, check the
/// server's answers against the reference engine and `pfe query CKPT`'s
/// answers against the server's, time resumes, and stop the server.
fn finish(
    pfe: &Pfe,
    setup: Setup,
    reference: &Reference,
    verify_lines: &[String],
    s: &mut Samples,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let Setup {
        server,
        mut conn,
        ckpt,
        ..
    } = setup;
    let ckpt = ckpt.as_path();
    s.add_server_stats(&server_stats(&mut conn, &server)?);
    tracer.scope("checkpoint", |_| conn.call_ok(r#"{"op":"checkpoint"}"#))?;
    reference.refresh()?;
    let mut wire = Vec::new();
    for line in verify_lines {
        let reply = conn.call(line)?;
        tally.compare(
            "wire vs in-process",
            reply.as_bytes(),
            &reference.expected(line)?,
        );
        wire.push(canonical(reply.as_bytes()).unwrap_or_default());
    }
    check_cli_query(pfe, ckpt, verify_lines, &wire, tally)?;
    s.resume_ms
        .extend(time_resumes(pfe, ckpt, verify_lines, &wire, tally, tracer)?);
    server.stop();
    Ok(())
}

/// `pfe query SNAP --batch` must answer `lines` exactly as `want`
/// (canonical replies).
fn check_cli_query(
    pfe: &Pfe,
    snap: &Path,
    lines: &[String],
    want: &[String],
    tally: &mut Tally,
) -> Result<(), String> {
    let batch = pfe.path("verify.jsonl");
    std::fs::write(&batch, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
    let out = pfe.run(&[
        "query",
        path_str(snap),
        "--shards",
        "2",
        "--batch",
        path_str(&batch),
    ])?;
    let got: Vec<&str> = out.stdout.lines().collect();
    if got.len() != want.len() {
        tally.wrong(format!(
            "pfe query answered {} of {} requests",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        tally.compare("pfe query vs pre-checkpoint engine", g.as_bytes(), w);
    }
    Ok(())
}

/// Wall times (ms) of single-query `pfe query SNAP` runs: load + answer.
fn time_resumes(
    pfe: &Pfe,
    snap: &Path,
    lines: &[String],
    want: &[String],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let mut walls = Vec::new();
    for i in 0..RESUME_REPS {
        // Spaced out, so one slow stretch of the box cannot take every
        // sample.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let run = pfe.run(&[
            "query",
            path_str(snap),
            "--shards",
            "2",
            "--json",
            &lines[i],
        ])?;
        tracer.record("cli:query", t0, Instant::now());
        tally.compare("pfe query resume", run.stdout.trim().as_bytes(), &want[i]);
        walls.push(ms(run.wall));
    }
    Ok(walls)
}

fn common_props(rows: &[u64], requests: &[String]) -> Result<Vec<(&'static str, String)>, String> {
    let cfg = verify::engine_config();
    let net = pfe_core::AlphaNet::new(gen::D, cfg.alpha).map_err(|e| e.to_string())?;
    let members: Vec<u64> = net.members(pfe_core::NetMode::Full).collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok(vec![
        ("net_members", members.len().to_string()),
        (
            "distinct_share_per_batch_member",
            format!(
                "{:.4} (batch {} rows)",
                gen::distinct_share(rows, &members, cfg.batch_rows),
                cfg.batch_rows
            ),
        ),
        (
            "mask_working_set",
            format!(
                "{} of {} masks vs cache_capacity {}",
                gen::mask_working_set(requests),
                gen::MASKS,
                cfg.cache_capacity
            ),
        ),
        ("cores", cores.to_string()),
    ])
}

/// `pfe ingest FILE --out SNAP --shards 2` on a seeded d = 12 CSV, timed
/// from launch to exit (checkpoint on disk); then `pfe query SNAP`
/// resumes, small files appended with `pfe resume` (freshness), and a
/// short served phase on the checkpoint.
pub fn file_ingest(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let pfe = &ctx.pfe;
    let mut rng = Rng::new(ctx.seed);
    let rows = gen::zipf_rows(&mut rng, FILE_ROWS);
    let requests = gen::explore_queries(&mut rng, 2048);
    let verify_lines = &requests[..VERIFY_QUERIES];
    let csv = pfe.path("rows.csv");
    let csv_bytes = gen::write_csv(&csv, &rows).map_err(|e| e.to_string())?;
    let tiny = pfe.path("tiny.csv");
    gen::write_csv(&tiny, &rows[..1]).map_err(|e| e.to_string())?;
    let parts: Vec<PathBuf> = (0..APPENDS)
        .map(|k| pfe.path(&format!("part{k}.csv")))
        .collect();
    for part in &parts {
        gen::write_csv(part, &gen::zipf_rows(&mut rng, APPEND_ROWS)).map_err(|e| e.to_string())?;
    }
    let (snap, tiny_snap, append) = (
        pfe.path("rows.pfes"),
        pfe.path("tiny.pfes"),
        pfe.path("append.pfes"),
    );

    let reference = tracer.scope("reference", |_| -> Result<Reference, String> {
        let reference = Reference::new()?;
        FileIngester::new(IngestOptions::default())
            .ingest_into(&csv, &reference.engine)
            .map_err(|e| e.to_string())?;
        reference.refresh()?;
        Ok(reference)
    })?;
    let want: Vec<String> = verify_lines
        .iter()
        .map(|l| reference.expected(l))
        .collect::<Result<_, _>>()?;
    let expected: Vec<_> = requests
        .iter()
        .map(|l| reference.expected_pair(l))
        .collect::<Result<_, _>>()?;
    reference.engine.shutdown().map_err(|e| e.to_string())?;

    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut cli_mb_s = Vec::new();
    let ingest = |file: &Path, out: &Path| {
        pfe.run(&[
            "ingest",
            path_str(file),
            "--out",
            path_str(out),
            "--shards",
            "2",
            "--quiet",
        ])
    };
    let per = ctx.round_secs();
    for round in 0..ctx.rounds {
        let t_round = Instant::now();
        let r = tracer.scope("setup:tiny_ingest", |_| ingest(&tiny, &tiny_snap))?;
        s.setup_s.push(r.wall.as_secs_f64());

        // File → checkpoint ingests fill the first half of the round.
        loop {
            tally.attempted += 1;
            let t0 = Instant::now();
            let r = ingest(&csv, &snap)?;
            tracer.record("cli:ingest", t0, Instant::now());
            let report = Json::parse(r.stdout.trim()).map_err(|e| e.to_string())?;
            if num(&report, "rows") as usize != FILE_ROWS {
                tally.wrong(format!("ingest reported {}", r.stdout.trim()));
            }
            s.ingest_mb_s
                .push(csv_bytes as f64 / 1e6 / r.wall.as_secs_f64());
            s.rss_mb.push(r.rss_mb);
            cli_mb_s.push(num(&report, "mb_per_sec"));
            if t_round.elapsed().as_secs_f64() >= per * 0.5 {
                break;
            }
        }
        check_cli_query(pfe, &snap, verify_lines, &want, &mut tally)?;
        s.resume_ms.extend(time_resumes(
            pfe,
            &snap,
            verify_lines,
            &want,
            &mut tally,
            tracer,
        )?);

        // Freshness: a small file lands, is appended to a copy of the
        // checkpoint, and is answerable once `pfe query` replies.
        std::fs::copy(&snap, &append).map_err(|e| e.to_string())?;
        for part in &parts {
            let t0 = Instant::now();
            let args = [
                "resume",
                path_str(&append),
                "--ingest",
                path_str(part),
                "--shards",
                "2",
                "--quiet",
            ];
            tracer.scope("cli:resume", |_| pfe.run(&args))?;
            let q = tracer.scope("cli:query", |_| {
                pfe.run(&[
                    "query",
                    path_str(&append),
                    "--shards",
                    "2",
                    "--json",
                    &verify_lines[0],
                ])
            })?;
            tally.attempted += 1;
            if !verify::is_ok(q.stdout.as_bytes()) {
                tally.fail(q.stdout);
            }
            s.fresh.push((round as f64, ms(t0.elapsed())));
        }

        // The rest of the round: queries served from the checkpoint.
        let served = (per - t_round.elapsed().as_secs_f64()).floor().max(1.0);
        let server = pfe.serve(&["--resume", path_str(&snap), "--shards", "2"])?;
        let samples = closed_loop(
            server.addr,
            &requests,
            &expected,
            0.2,
            served,
            &mut tally,
            tracer,
        )?;
        s.add_query(round, &samples);
        let mut conn = Conn::connect(server.addr)?;
        let stats = server_stats(&mut conn, &server)?;
        s.hit_ratio.push(stats.hit_ratio);
        s.rejected_ratio.push(stats.rejected_ratio);
        server.stop();
    }

    let mut props = common_props(&rows, &requests)?;
    props.push(("ingest_runs", s.ingest_mb_s.len().to_string()));
    Ok(Run {
        e2e: s.metrics(WINDOW_S),
        props,
        notes: vec![format!(
            "engine.ingest.enqueue_mb_s (pfe ingest's own mb_per_sec) {:.3} MB/s beside ingest_mb_s {:.3} MB/s to the checkpoint on disk",
            better_quartile(&cli_mb_s, false),
            better_quartile(&s.ingest_mb_s, false)
        )],
        hit_ratio: mean(&s.hit_ratio),
        rejected_ratio: mean(&s.rejected_ratio),
        inputs: Inputs {
            csv,
            csv_bytes,
            snap,
            ingest_lines: rows.chunks(PRELOAD_BATCH_ROWS).take(PRELOAD_BATCHES).map(gen::ingest_line).collect(),
            ingest_rows: PRELOAD_BATCHES * PRELOAD_BATCH_ROWS,
            write_batch_rows: PRELOAD_BATCH_ROWS,
            requests,
        },
        tally,
        valid: Ok(()),
    })
}

fn preload_inputs(
    pfe: &Pfe,
    rows: &[u64],
    ingest_lines: Vec<String>,
    snap: PathBuf,
    requests: Vec<String>,
    write_batch_rows: usize,
) -> Result<Inputs, String> {
    let csv = pfe.path("preload.csv");
    let csv_bytes = gen::write_csv(&csv, rows).map_err(|e| e.to_string())?;
    Ok(Inputs {
        csv,
        csv_bytes,
        snap,
        ingest_lines,
        ingest_rows: rows.len(),
        requests,
        write_batch_rows,
    })
}

fn check_epoch(tally: &mut Tally, what: &str, got: u64, want: u64) {
    tally.attempted += 1;
    if got != want {
        tally.wrong(format!("{what} epoch {got} != reference epoch {want}"));
    }
}

/// A preloaded server under 2 closed-loop connections cycling a fixed
/// set of 16 cached queries.
pub fn query_hot(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let pfe = &ctx.pfe;
    let mut rng = Rng::new(ctx.seed);
    let (rows, preload_lines) = preload(&mut rng);
    let requests = gen::hot_queries(&mut rng);
    let ckpt = pfe.path("ckpt.pfes");
    let mut tally = Tally::default();
    let mut s = Samples::default();
    for round in 0..ctx.rounds {
        let (reference, ref_epoch) =
            tracer.scope("reference:preload", |_| preloaded_reference(&rows))?;
        let expected: Vec<_> = requests
            .iter()
            .map(|l| reference.expected_pair(l))
            .collect::<Result<_, _>>()?;
        let setup = bring_up(pfe, &preload_lines, &ckpt, tracer)?;
        check_epoch(&mut tally, "server", setup.epoch, ref_epoch);
        s.setup_s.push(setup.setup_s);
        s.ingest_mb_s.push(setup.ingest_mb_s);
        s.fresh
            .extend(setup.fresh_ms.iter().map(|&f| (round as f64, f)));
        let samples = closed_loop(
            setup.server.addr,
            &requests,
            &expected,
            0.5,
            ctx.round_secs(),
            &mut tally,
            tracer,
        )?;
        s.add_query(round, &samples);
        finish(
            pfe, setup, &reference, &requests, &mut s, &mut tally, tracer,
        )?;
    }
    Ok(Run {
        e2e: s.metrics(WINDOW_S),
        props: common_props(&rows, &requests)?,
        notes: vec![],
        hit_ratio: mean(&s.hit_ratio),
        rejected_ratio: mean(&s.rejected_ratio),
        inputs: preload_inputs(
            pfe,
            &rows,
            preload_lines,
            ckpt,
            requests,
            PRELOAD_BATCH_ROWS,
        )?,
        tally,
        valid: Ok(()),
    })
}

/// [`Reference::expected`] for each line, split over two threads.
fn expected_parallel(reference: &Reference, lines: &[&String]) -> Result<Vec<String>, String> {
    let (a, b) = lines.split_at(lines.len() / 2);
    let answer = |part: &[&String]| {
        part.iter()
            .map(|l| reference.expected(l))
            .collect::<Result<Vec<_>, _>>()
    };
    let (ra, rb) = std::thread::scope(|sc| {
        let h = sc.spawn(|| answer(b));
        (answer(a), h.join().expect("verify thread"))
    });
    let mut out = ra?;
    out.extend(rb?);
    Ok(out)
}

struct ReaderOut {
    /// `(due offset s, latency µs from due)`.
    lat: Vec<(f64, f64)>,
    /// From the first due time to the last reply.
    secs: f64,
    late_us: Vec<f64>,
    replies: Vec<(usize, Vec<u8>)>,
}

/// Open loop on one connection: request `i` is due at `i / rate` and is
/// timed from when it was due, so a stall also charges the requests it
/// delayed.
fn open_loop_reader(
    conn: &mut Conn,
    lines: &[String],
    tracer: &mut Tracer,
) -> Result<ReaderOut, String> {
    crate::proc::fine_timer_slack();
    let period = Duration::from_secs_f64(1.0 / READER_RATE);
    let n = lines.len();
    let start = Instant::now();
    let mut out = ReaderOut {
        lat: Vec::with_capacity(n),
        secs: 0.0,
        late_us: Vec::with_capacity(n),
        replies: Vec::with_capacity(n),
    };
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let drain_deadline = start + period * n as u32 + Duration::from_secs(10);
    while next < n || !in_flight.is_empty() {
        let now = Instant::now();
        while next < n && start + period * next as u32 <= now {
            let due = start + period * next as u32;
            out.late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
            conn.send(&lines[next])?;
            in_flight.push_back((next, due));
            next += 1;
        }
        if now > drain_deadline {
            return Err(format!("{} replies still outstanding", in_flight.len()));
        }
        let wait = if next < n {
            (start + period * next as u32).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        if wait < Duration::from_micros(20) {
            continue;
        }
        for reply in conn.recv_within(wait)? {
            let t = Instant::now();
            let (idx, due) = in_flight
                .pop_front()
                .ok_or("reply with nothing in flight")?;
            out.lat
                .push(((due - start).as_secs_f64(), (t - due).as_secs_f64() * 1e6));
            tracer.record(op_name(&lines[idx]), due, t);
            out.replies.push((idx, reply));
        }
    }
    out.secs = start.elapsed().as_secs_f64();
    Ok(out)
}

struct WriterOut {
    /// `(due offset s, ms from due to the snapshot reply)`.
    fresh: Vec<(f64, f64)>,
    /// The epoch each tick's `snapshot` published, in order.
    epochs: Vec<u64>,
    tally: Tally,
}

/// Every tick: one `ingest` batch then `snapshot`; freshness is from the
/// tick's due time to the `snapshot` reply.
fn writer(addr: SocketAddr, batches: &[String], tracer: &mut Tracer) -> Result<WriterOut, String> {
    crate::proc::fine_timer_slack();
    let mut conn = Conn::connect(addr)?;
    let start = Instant::now();
    let mut out = WriterOut {
        fresh: Vec::new(),
        epochs: Vec::new(),
        tally: Tally::default(),
    };
    for (k, line) in batches.iter().enumerate() {
        let due = start + WRITER_TICK * k as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        out.tally.attempted += 2;
        let ing = conn.call(line)?;
        if !verify::is_ok(ing.as_bytes()) {
            out.tally.fail(ing.clone());
        }
        let snap = conn.call(r#"{"op":"snapshot"}"#)?;
        let t = Instant::now();
        tracer.record("writer:ingest+snapshot", due, t);
        let Ok(json) = Json::parse(&snap) else {
            out.tally.fail(snap);
            continue;
        };
        out.fresh.push(((due - start).as_secs_f64(), ms(t - due)));
        out.epochs.push(num(&json, "epoch") as u64);
    }
    Ok(out)
}

/// Replay the writer's batches on the reference engine, epoch by epoch,
/// and check every read against the state it was answered from.
fn verify_reads(
    reference: &Reference,
    ref_epoch: u64,
    reader: &ReaderOut,
    requests: &[String],
    writer_rows: &[u64],
    epochs: &[u64],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut by_epoch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, (_, reply)) in reader.replies.iter().enumerate() {
        by_epoch
            .entry(epoch_of(reply).unwrap_or(0))
            .or_default()
            .push(i);
    }
    let mut check = |epoch: u64, tally: &mut Tally| -> Result<(), String> {
        let batch = by_epoch.remove(&epoch).unwrap_or_default();
        let lines: Vec<&String> = batch
            .iter()
            .map(|&i| &requests[reader.replies[i].0])
            .collect();
        for (&i, want) in batch.iter().zip(expected_parallel(reference, &lines)?) {
            tally.compare("wire vs in-process", &reader.replies[i].1, &want);
        }
        Ok(())
    };
    check(ref_epoch, tally)?;
    for (chunk, &epoch) in writer_rows.chunks(WRITER_ROWS).zip(epochs) {
        reference.push(chunk)?;
        let e = reference.refresh()?;
        check_epoch(tally, "writer", epoch, e);
        check(e, tally)?;
    }
    for (epoch, rest) in by_epoch {
        for i in rest {
            tally.attempted += 1;
            tally.wrong(format!(
                "reply at unpublished epoch {epoch}: {}",
                String::from_utf8_lossy(&reader.replies[i].1)
            ));
        }
    }
    Ok(())
}

/// The paper's use case: an open-loop reader over uniformly random column
/// subsets beside a writer adding a batch and a snapshot every tick.
pub fn explore_mixed(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let pfe = &ctx.pfe;
    let mut rng = Rng::new(ctx.seed);
    let (rows, preload_lines) = preload(&mut rng);
    let per = ctx.round_secs();
    let ticks = (per / WRITER_TICK.as_secs_f64()) as usize;
    let ckpt = pfe.path("ckpt.pfes");
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut late_us = Vec::new();
    let mut all_requests = Vec::new();
    for round in 0..ctx.rounds {
        let requests = gen::explore_queries(&mut rng, (per * READER_RATE) as usize);
        let writer_rows = gen::zipf_rows(&mut rng, ticks * WRITER_ROWS);
        let batches: Vec<String> = writer_rows
            .chunks(WRITER_ROWS)
            .map(gen::ingest_line)
            .collect();
        let (reference, ref_epoch) =
            tracer.scope("reference:preload", |_| preloaded_reference(&rows))?;
        let mut setup = bring_up(pfe, &preload_lines, &ckpt, tracer)?;
        check_epoch(&mut tally, "server", setup.epoch, ref_epoch);
        s.setup_s.push(setup.setup_s);
        s.ingest_mb_s.push(setup.ingest_mb_s);

        tracer.begin("open_loop");
        let addr = setup.server.addr;
        let mut wt = tracer.fork(3);
        let (reader, wout) = std::thread::scope(|sc| {
            let w = sc.spawn(|| writer(addr, &batches, &mut wt));
            let r = open_loop_reader(&mut setup.conn, &requests, tracer);
            (r, w.join().expect("writer thread"))
        });
        tracer.absorb(wt);
        tracer.end();
        let (reader, wout) = (reader?, wout?);
        tally.merge(wout.tally);
        let off = round as f64 * ROUND_KEY;
        s.fresh
            .extend(wout.fresh.iter().map(|&(t, v)| (off + t, v)));
        s.add_query(round, &reader.lat);
        s.open_qps.push(reader.lat.len() as f64 / reader.secs);
        late_us.extend_from_slice(&reader.late_us);

        tracer.scope("verify_replay", |_| {
            verify_reads(
                &reference,
                ref_epoch,
                &reader,
                &requests,
                &writer_rows,
                &wout.epochs,
                &mut tally,
            )
        })?;
        finish(
            pfe,
            setup,
            &reference,
            &requests[..VERIFY_QUERIES],
            &mut s,
            &mut tally,
            tracer,
        )?;
        all_requests.extend(requests);
    }

    let late_p50 = median(&late_us);
    let valid = if late_p50 > LATE_LIMIT.as_secs_f64() * 1e6 {
        Err(format!(
            "generator fell behind: median send {late_p50:.0} us late"
        ))
    } else {
        Ok(())
    };
    let mut props = common_props(&rows, &all_requests)?;
    props.push(("reader_rate", format!("{READER_RATE} req/s open loop")));
    props.push((
        "writer",
        format!(
            "{WRITER_ROWS} rows + snapshot every {} ms",
            WRITER_TICK.as_millis()
        ),
    ));
    Ok(Run {
        e2e: s.metrics(OPEN_WINDOW_S),
        props,
        notes: vec![format!(
            "generator lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us over {} sends",
            late_p50,
            quantile(&late_us, 0.99),
            quantile(&late_us, 1.0),
            late_us.len()
        )],
        hit_ratio: mean(&s.hit_ratio),
        rejected_ratio: mean(&s.rejected_ratio),
        inputs: preload_inputs(pfe, &rows, preload_lines, ckpt, all_requests, WRITER_ROWS)?,
        tally,
        valid,
    })
}
