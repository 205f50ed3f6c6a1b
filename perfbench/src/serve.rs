//! `serve_mix`: one closed-loop TCP client against `h2o-server`, rotating
//! evenly through a prepared point lookup, a 2–5% projection, an 8-group
//! rollup and a join with a small dimension relation. Layouts are settled
//! before timing and nothing is written afterwards.

use crate::common::*;
use crate::layers::{self, Layers, QueryTrace};
use h2o_core::{H2oEngine, Request};
use h2o_expr::wire::result_to_json;
use h2o_expr::{Aggregate, CmpOp, Conjunction, Expr, JoinQuery, Json, Predicate, Query};
use h2o_server::{protocol, Server, ServerConfig, ServerHandle};
use h2o_storage::{LogicalType, Relation, Schema, Value};
use h2o_workload::synth::{gen_columns, gen_key_column, VALUE_MAX, VALUE_MIN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 200_000;
const ATTRS: usize = 16;
const GROUP_ATTR: usize = ATTRS - 1;
const GROUPS: u64 = 8;
const DIM_ROWS: usize = 256;
/// Set-ups per run; `setup_s` is their median and the last one is timed.
const SETUPS: usize = 5;
/// Request rounds (one of each class) before and after settling layouts.
const WARM_ROUNDS: usize = 12;
const REWARM_ROUNDS: usize = 2;
/// Rounds timed back to back before their answers are checked; each such
/// window of 200 requests yields one value of every end-to-end figure.
const CHUNK_ROUNDS: usize = 50;

struct Data {
    cols: Vec<Vec<Value>>,
    dim: Vec<Vec<Value>>,
    schema: Arc<Schema>,
    dim_schema: Arc<Schema>,
    rollup: Vec<Vec<Value>>,
    join: Vec<Vec<Value>>,
}

fn generate(seed: u64) -> Data {
    let mut cols = gen_columns(ATTRS, ROWS, seed);
    cols[0] = (0..ROWS as Value).collect();
    cols[GROUP_ATTR] = gen_key_column(ROWS, GROUPS, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6469_6d00);
    let dim: Vec<Vec<Value>> = vec![
        (0..DIM_ROWS).map(|i| (i * 3) as Value).collect(),
        (0..DIM_ROWS).map(|_| rng.gen_range(0..100)).collect(),
    ];
    // Expected answers of the two constant requests, by plain loops.
    let mut sums = [0 as Value; GROUPS as usize];
    let mut counts = [0 as Value; GROUPS as usize];
    for (&g, &v) in cols[GROUP_ATTR].iter().zip(&cols[1]) {
        sums[g as usize] = sums[g as usize].wrapping_add(v);
        counts[g as usize] += 1;
    }
    let rollup = (0..GROUPS as usize)
        .filter(|&g| counts[g] > 0)
        .map(|g| vec![g as Value, sums[g], counts[g]])
        .collect();
    let mut join: Vec<Vec<Value>> = (0..DIM_ROWS)
        .filter(|&j| dim[1][j] < 60 && (dim[0][j] as usize) < ROWS)
        .map(|j| vec![cols[1][dim[0][j] as usize], dim[1][j]])
        .collect();
    join.sort();
    Data {
        cols,
        dim,
        schema: Schema::with_width(ATTRS).into_shared(),
        dim_schema: Schema::typed([("key", LogicalType::I64), ("weight", LogicalType::I64)])
            .into_shared(),
        rollup,
        join,
    }
}

/// One request of the mix, with the parameters its answer depends on.
#[derive(Clone, Copy)]
enum Req {
    Point(Value),
    Project(Value, Value),
    Rollup,
    Join,
}

impl Req {
    fn class(self) -> &'static str {
        match self {
            Req::Point(_) => "point",
            Req::Project(..) => "project",
            Req::Rollup => "rollup",
            Req::Join => "join",
        }
    }

    fn line(self, id: u64) -> String {
        match self {
            Req::Point(k) => {
                format!(r#"{{"id":{id},"kind":"exec","name":"pt","params":[{k}]}}"#)
            }
            Req::Project(lo, hi) => format!(
                r#"{{"id":{id},"kind":"query","q":{{"select":[{{"col":"a1"}},{{"col":"a2"}}],"where":[{{"col":"a3","op":">=","value":{lo}}},{{"col":"a3","op":"<","value":{hi}}}]}}}}"#
            ),
            Req::Rollup => format!(
                r#"{{"id":{id},"kind":"query","q":{{"group_by":[{{"col":"a{GROUP_ATTR}"}}],"aggs":[{{"fn":"sum","expr":{{"col":"a1"}}}},{{"fn":"count"}}]}}}}"#
            ),
            Req::Join => format!(
                r#"{{"id":{id},"kind":"join","q":{{"left":"R","right":"dim","on":[["a0","key"]],"where_right":[{{"col":"weight","op":"<","value":60}}],"select":[{{"lcol":"a1"}},{{"rcol":"weight"}}]}}}}"#
            ),
        }
    }

    /// The same request as an in-process query (for the traced run).
    fn query(self) -> Query {
        match self {
            Req::Point(k) => Query::project(
                [1u32, 2, 3].map(Expr::col),
                Conjunction::of([Predicate::eq(0u32, k)]),
            )
            .expect("well-formed query"),
            Req::Project(lo, hi) => Query::project(
                [1u32, 2].map(Expr::col),
                Conjunction::of([Predicate::new(3u32, CmpOp::Ge, lo), Predicate::lt(3u32, hi)]),
            )
            .expect("well-formed query"),
            // A join replays the join query decoded from its request line.
            Req::Rollup | Req::Join => Query::grouped(
                [Expr::col(GROUP_ATTR as u32)],
                [Aggregate::sum(Expr::col(1u32)), Aggregate::count()],
                Conjunction::always(),
            )
            .expect("well-formed query"),
        }
    }

    fn expected(self, d: &Data) -> Vec<Vec<Value>> {
        let c = &d.cols;
        match self {
            Req::Point(k) => vec![vec![c[1][k as usize], c[2][k as usize], c[3][k as usize]]],
            Req::Project(lo, hi) => (0..ROWS)
                .filter(|&i| c[3][i] >= lo && c[3][i] < hi)
                .map(|i| vec![c[1][i], c[2][i]])
                .collect(),
            Req::Rollup => d.rollup.clone(),
            Req::Join => d.join.clone(),
        }
    }
}

/// The deterministic request stream: rounds of point, project, rollup,
/// join with seeded parameters.
struct Stream {
    rng: SmallRng,
    next: usize,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed),
            next: 0,
        }
    }

    fn next(&mut self) -> Req {
        let i = self.next;
        self.next += 1;
        match i % 4 {
            0 => Req::Point(self.rng.gen_range(0..ROWS as Value)),
            1 => {
                // A window of 2–5% of the value domain on a3.
                let span = (VALUE_MAX - VALUE_MIN) as f64;
                let width = (span * self.rng.gen_range(0.02..0.05)) as Value;
                let lo = self.rng.gen_range(VALUE_MIN..VALUE_MAX - width);
                Req::Project(lo, lo + width)
            }
            2 => Req::Rollup,
            _ => Req::Join,
        }
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(server: &ServerHandle) -> Conn {
        let writer = TcpStream::connect(server.addr()).expect("connect to h2o-server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Conn { writer, reader }
    }

    /// Sends one line and waits for its response; returns the response
    /// and the round-trip seconds.
    fn call(&mut self, line: &str) -> (String, f64) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut resp = String::new();
        let t0 = Instant::now();
        self.writer.write_all(buf.as_bytes()).expect("send request");
        self.reader.read_line(&mut resp).expect("read response");
        let secs = t0.elapsed().as_secs_f64();
        (resp, secs)
    }
}

struct Setup {
    engine: Arc<H2oEngine>,
    server: ServerHandle,
    conn: Conn,
    secs: f64,
    load_rate: f64,
}

/// Loads both relations into a fresh engine; returns it, the instant the
/// load started and the rows loaded per second. The benchmark's own copy
/// of the columns, which the load consumes, is made before the clock
/// starts.
fn load(d: &Data) -> (H2oEngine, Instant, f64) {
    let (cols, dim) = (d.cols.clone(), d.dim.clone());
    let t0 = Instant::now();
    let rel = Relation::columnar(d.schema.clone(), cols).expect("generated columns fit the schema");
    let engine = H2oEngine::new(rel, engine_config(true));
    let dim =
        Relation::columnar(d.dim_schema.clone(), dim).expect("generated columns fit the schema");
    engine
        .add_relation("dim", dim)
        .expect("dim is a fresh relation name");
    let rate = (ROWS + DIM_ROWS) as f64 / t0.elapsed().as_secs_f64();
    (engine, t0, rate)
}

fn set_up(d: &Data, seed: u64) -> Setup {
    let (engine, t0, load_rate) = load(d);
    let engine = Arc::new(engine);
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            max_inflight: 2,
            max_queued: 16,
            reorg_poll: None,
            ..ServerConfig::default()
        },
    )
    .expect("start h2o-server");
    let mut conn = Conn::connect(&server);
    let statement = r#"{"id":0,"kind":"prepare","name":"pt","q":{"select":[{"col":"a1"},{"col":"a2"},{"col":"a3"}],"where":[{"col":"a0","op":"=","value":0}]}}"#;
    let (resp, _) = conn.call(statement);
    assert!(resp.contains("\"ok\""), "prepare failed: {resp}");
    let mut warm = Stream::new(seed ^ 0x7761_726d);
    for _ in 0..WARM_ROUNDS * 4 {
        conn.call(&warm.next().line(0));
    }
    // Settle: run the due adaptation and build what it advises, until
    // nothing is pending, so no layout changes while timing.
    for _ in 0..16 {
        let r = engine.maintain();
        if !r.adapted && r.layouts_built == 0 && engine.pending().is_empty() {
            break;
        }
    }
    for _ in 0..REWARM_ROUNDS * 4 {
        conn.call(&warm.next().line(0));
    }
    Setup {
        engine,
        server,
        conn,
        secs: t0.elapsed().as_secs_f64(),
        load_rate,
    }
}

/// Parses a response line into its result rows, or `None` for an error
/// response.
fn parse_rows(line: &str) -> Option<Vec<Vec<Value>>> {
    let doc = Json::parse(line.trim()).ok()?;
    let data = doc.get("ok").get("data").arr("data").ok()?;
    data.iter()
        .map(|row| {
            row.arr("row")
                .ok()?
                .iter()
                .map(|v| v.int("value").ok())
                .collect()
        })
        .collect()
}

/// Checks one response against the benchmark's own answer. Grouped rows
/// must come back in ascending key order with counts summing to the
/// relation's rows; joins are compared as multisets.
fn check(req: Req, got: &mut Vec<Vec<Value>>, expected: &[Vec<Value>]) -> bool {
    match req {
        Req::Rollup => {
            let ascending = got.windows(2).all(|w| w[0][0] < w[1][0]);
            let counted: Value = got.iter().map(|r| r[2]).sum();
            ascending && counted == ROWS as Value && got.as_slice() == expected
        }
        Req::Join => {
            got.sort();
            got.as_slice() == expected
        }
        _ => got.as_slice() == expected,
    }
}

/// Alters a row set (self-test).
fn corrupt(rows: &mut Vec<Vec<Value>>) {
    match rows.first_mut().and_then(|r| r.first_mut()) {
        Some(v) => *v ^= 1,
        None => rows.push(vec![0]),
    }
}

pub fn run(args: &Args) -> RunResult {
    let prepare = Instant::now();
    let d = generate(args.seed);
    let prepare_s = prepare.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut load_rates = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUPS {
        // The previous set-up is shut down before the next starts.
        drop(s.take());
        let next = set_up(&d, args.seed);
        setups.push(next.secs);
        load_rates.push(next.load_rate);
        s = Some(next);
    }
    let Setup {
        engine,
        mut server,
        mut conn,
        ..
    } = s.expect("at least one set-up");
    let cfg = engine_config(true);

    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut stream = Stream::new(args.seed);
    let mut correct = true;
    let mut wall = 0.0;
    let mut op = 0u64;
    while wall < args.seconds {
        let mut chunk = Vec::with_capacity(CHUNK_ROUNDS * 4);
        let t0 = Instant::now();
        let mut trips = 0.0;
        for _ in 0..CHUNK_ROUNDS * 4 {
            op += 1;
            let req = stream.next();
            let line = req.line(op);
            let start = Instant::now();
            let (resp, rtt) = conn.call(&line);
            if args.trace {
                let root = tracer.id();
                let trip = tracer.id();
                let end = start + Duration::from_secs_f64(rtt);
                tracer.record(trip, root, op, "client.round_trip", start, end);
                trace_in_process(
                    req,
                    &line,
                    &resp,
                    rtt,
                    &engine,
                    &cfg,
                    op,
                    root,
                    &mut tracer,
                    &mut layers,
                );
                tracer.record(root, 0, op, req.class(), start, Instant::now());
            }
            trips += rtt;
            chunk.push((req, resp, rtt));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        wall += elapsed;
        // Answers are checked outside the timed interval.
        let base = tally.attempted() as usize;
        for (i, (req, resp, rtt)) in chunk.into_iter().enumerate() {
            let n = base + i;
            let mut expected = req.expected(&d);
            let ok = match parse_rows(&resp) {
                Some(mut got) => {
                    if args.self_test && n == 1 {
                        corrupt(&mut expected);
                    }
                    if args.self_test && n == 2 {
                        corrupt(&mut got);
                    }
                    let right = check(req, &mut got, &expected);
                    correct &= right;
                    right
                }
                None => false,
            };
            tally.record(req.class(), rtt, ok);
        }
        // A traced window counts only its round trips, not the in-process
        // replays between them.
        tally.close_window(if args.trace { trips } else { elapsed });
        // One more bulk load after every window, so the bulk-load rate is
        // a median over the whole run like the other figures: within a
        // process the loads agree to a few percent, but the machine's
        // speed at page faults moves by 20% from one minute to the next.
        load_rates.push(load(&d).2);
    }
    let total_bytes = layers::total_bytes(&engine);
    let user_bytes = ((ROWS * ATTRS + DIM_ROWS * 2) * 8) as f64;
    let st = engine.stats();
    let server_stats = server.stats();
    layers.engine_counters(&st);
    layers.opcache(&engine);
    layers.s.push("storage.total_bytes", total_bytes as f64);
    layers.s.push("trace.throughput_qps", tally.qps());
    drop(conn);
    server.shutdown();

    let mut m = Metrics::default();
    let spans = if args.trace {
        m = layers.metrics();
        tracer.write("serve_mix").unwrap_or_default()
    } else {
        m.put("setup_s", median(&setups), "s");
        latency_metrics(&mut m, &tally);
        m.put("ingest_rows_per_s", median(&load_rates), "rows/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("space_amp", total_bytes as f64 / user_bytes, "ratio");
        String::new()
    };
    let accounting = format!(
        "{{\"workload\":\"serve_mix\",\"seed\":{},\"trace\":{},\"rows\":{ROWS},\"attrs\":{ATTRS},\"dim_rows\":{DIM_ROWS},\"clients\":1,\"settings\":{},\"classes\":{},\"setups_s\":{:?},\"prepare_s\":{prepare_s},\"timed_s\":{wall},\"server\":{{\"requests\":{},\"errors\":{},\"shed\":{}}},\"layouts\":{},\"spans\":\"{spans}\"}}",
        args.seed,
        args.trace,
        settings_json(&cfg, "background, settled before timing"),
        tally.accounting_json(),
        setups,
        server_stats.requests,
        server_stats.errors,
        server_stats.shed,
        engine.snapshot().group_count(),
    );
    RunResult {
        correct,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: m,
        accounting,
    }
}

/// Replays one request in process, on the same engine and snapshot, to
/// split its round trip into decode, run, encode and the rest (socket,
/// session loop, admission).
#[allow(clippy::too_many_arguments)]
fn trace_in_process(
    req: Req,
    line: &str,
    resp: &str,
    rtt: f64,
    engine: &Arc<H2oEngine>,
    cfg: &h2o_core::EngineConfig,
    op: u64,
    root: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let class = req.class();
    let db = engine.db_snapshot();
    let schema = db.primary().schema().clone();
    let resolve = |name: &str| db.relation(name).ok().map(|c| c.schema().clone());
    let (decoded, decode_s) = tr.time(root, op, "server.decode", || {
        Json::parse(line).map(|j| protocol::request_from_json(&j, &schema, &resolve))
    });
    let decoded = match decoded {
        Ok(Ok(w)) => w,
        _ => return,
    };
    let join_q: Option<JoinQuery> = match decoded {
        h2o_server::WireRequest::Join { q, .. } => Some(*q),
        _ => None,
    };
    let q = req.query();
    let before = engine.opcache_stats().misses;
    let (out, run_s) = tr.time(root, op, "core.run", || match &join_q {
        Some(jq) => engine.run(Request::join(jq)),
        None => engine.run(Request::query(&q)),
    });
    let Ok(out) = out else { return };
    let compiled = engine.opcache_stats().misses > before;
    let (_, encode_s) = tr.time(root, op, "server.encode", || {
        protocol::ok_line(&Json::Int(op as i64), result_to_json(&out.result), None)
    });
    let s = &mut layers.s;
    s.push("server.decode_us", decode_s * 1e6);
    s.push("server.encode_us", encode_s * 1e6);
    s.push(format!("server.response_bytes.{class}"), resp.len() as f64);
    s.push(
        "server.session_us",
        (rtt - decode_s - run_s - encode_s) * 1e6,
    );
    match &join_q {
        Some(jq) => {
            let (Ok(l), Ok(r)) = (
                out.snapshot.relation(jq.left().name()),
                out.snapshot.relation(jq.right().name()),
            ) else {
                return;
            };
            layers::trace_join(
                engine,
                &cfg.exec_policy(),
                jq,
                l,
                r,
                op,
                root,
                run_s,
                tr,
                layers,
            );
        }
        None => {
            let sel = if q.filter().is_always_true() {
                1.0
            } else {
                engine
                    .observed_selectivity(&q)
                    .unwrap_or(cfg.default_selectivity)
            };
            QueryTrace {
                engine,
                policy: cfg.exec_policy(),
                class,
                op,
                parent: root,
                run_secs: run_s,
                compiled,
                selectivity: sel,
            }
            .record(&q, out.snapshot.primary(), tr, layers);
        }
    }
}
