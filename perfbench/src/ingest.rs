//! `ingest_read`: embedded, one thread, lazy adaptation. A relation with a
//! monotonically increasing timestamp grows by several 64K-row segments
//! per round: each step inserts a batch, looks up one fresh row by
//! timestamp (zone maps skip every sealed segment but the newest), and
//! every few batches runs an 8-group rollup over all rows. Each round
//! starts from a freshly loaded engine.

use crate::common::*;
use crate::layers::{self, Layers, QueryTrace};
use h2o_core::{EngineConfig, H2oEngine, Request};
use h2o_expr::{Aggregate, Conjunction, Expr, Predicate, Query};
use h2o_storage::{Relation, Schema, Value};
use h2o_workload::synth::{gen_columns, gen_key_column};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ATTRS: usize = 8;
const TS: usize = 0;
const GROUP_ATTR: usize = 1;
const GROUPS: u64 = 8;
const INITIAL_ROWS: usize = 131_072;
const BATCH: usize = 2048;
/// Batches per round: 3 segments of 64K rows.
const BATCHES: usize = 96;
const ROLLUP_EVERY: usize = 3;

struct Data {
    /// Every row the run will hold, column-major: the initial relation
    /// followed by the batches of one round.
    cols: Vec<Vec<Value>>,
    batches: Vec<Vec<Vec<Value>>>,
    schema: std::sync::Arc<Schema>,
}

fn generate(seed: u64) -> Data {
    let total = INITIAL_ROWS + BATCHES * BATCH;
    let mut cols = gen_columns(ATTRS, total, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7473);
    // Strictly increasing timestamps with jitter.
    cols[TS] = (0..total as Value)
        .map(|i| i * 16 + rng.gen_range(0..16))
        .collect();
    cols[GROUP_ATTR] = gen_key_column(total, GROUPS, seed);
    let batches = (0..BATCHES)
        .map(|b| {
            let start = INITIAL_ROWS + b * BATCH;
            (start..start + BATCH)
                .map(|i| cols.iter().map(|c| c[i]).collect())
                .collect()
        })
        .collect();
    Data {
        cols,
        batches,
        schema: Schema::with_width(ATTRS).into_shared(),
    }
}

fn point_query(ts: Value) -> Query {
    Query::project(
        [2u32, 3].map(Expr::col),
        Conjunction::of([Predicate::eq(TS as u32, ts)]),
    )
    .expect("well-formed query")
}

fn rollup_query() -> Query {
    Query::grouped(
        [Expr::col(GROUP_ATTR as u32)],
        [Aggregate::sum(Expr::col(2u32)), Aggregate::count()],
        Conjunction::always(),
    )
    .expect("well-formed query")
}

/// Running per-group sums and counts over every row inserted so far.
#[derive(Clone)]
struct Running {
    sums: [Value; GROUPS as usize],
    counts: [Value; GROUPS as usize],
    rows: usize,
}

impl Running {
    fn add(&mut self, cols: &[Vec<Value>], rows: std::ops::Range<usize>) {
        for i in rows {
            let g = cols[GROUP_ATTR][i] as usize;
            self.sums[g] = self.sums[g].wrapping_add(cols[2][i]);
            self.counts[g] += 1;
            self.rows += 1;
        }
    }

    fn expected(&self) -> Vec<Vec<Value>> {
        (0..GROUPS as usize)
            .filter(|&g| self.counts[g] > 0)
            .map(|g| vec![g as Value, self.sums[g], self.counts[g]])
            .collect()
    }
}

#[derive(PartialEq, Debug)]
struct RoundCounts {
    layouts_created: u64,
    adaptations: u64,
    segments_sealed: u64,
    snapshots_published: u64,
    total_bytes: usize,
}

/// The state a run threads through its operations.
struct Run<'a> {
    args: &'a Args,
    cfg: EngineConfig,
    op: u64,
    /// Timed seconds so far.
    wall: f64,
    correct: bool,
    tally: Tally,
    tracer: Tracer,
    layers: Layers,
}

impl Run<'_> {
    /// Inserts one batch and times it; returns the seconds spent.
    fn insert(&mut self, e: &H2oEngine, batch: &[Vec<Value>]) -> f64 {
        self.op += 1;
        let start = Instant::now();
        let res = e.insert(batch);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.wall += secs;
        self.tally.record("insert", secs, res.is_ok());
        if self.args.trace {
            let id = self.tracer.id();
            self.tracer
                .record(id, 0, self.op, "core.insert", start, end);
            self.layers.s.push("core.insert_us", secs * 1e6);
        }
        secs
    }

    /// Runs, times and checks one read. The read must see exactly the
    /// `rows` inserted before it; grouped rows must come back in ascending
    /// key order with counts summing to those rows.
    fn read(
        &mut self,
        e: &H2oEngine,
        q: &Query,
        class: &'static str,
        mut want: Vec<Vec<Value>>,
        rows: usize,
    ) {
        self.op += 1;
        let misses = e.opcache_stats().misses;
        let start = Instant::now();
        let out = e.run(Request::query(q));
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.wall += secs;
        let Ok(o) = out else {
            self.tally.record(class, secs, false);
            return;
        };
        let mut got: Vec<Vec<Value>> = o.result.iter_rows().map(|r| r.to_vec()).collect();
        if self.args.self_test && self.op == 2 {
            got[0][0] ^= 1;
        }
        if self.args.self_test && self.op == 4 {
            want[0][0] ^= 1;
        }
        let mut right = o.snapshot.primary().rows() == rows && got == want;
        if class == "rollup" {
            let ascending = got.windows(2).all(|w| w[0][0] < w[1][0]);
            let counted: Value = got.iter().map(|r| r[2]).sum();
            right &= ascending && counted == rows as Value;
        }
        self.correct &= right;
        self.tally.record(class, secs, right);
        if self.args.trace {
            let root = self.tracer.id();
            let run_span = self.tracer.id();
            self.tracer
                .record(run_span, root, self.op, "core.run", start, end);
            let selectivity = if q.filter().is_always_true() {
                1.0
            } else {
                e.observed_selectivity(q)
                    .unwrap_or(self.cfg.default_selectivity)
            };
            QueryTrace {
                engine: e,
                policy: self.cfg.exec_policy(),
                class,
                op: self.op,
                parent: root,
                run_secs: secs,
                compiled: e.opcache_stats().misses > misses,
                selectivity,
            }
            .record(q, o.snapshot.primary(), &mut self.tracer, &mut self.layers);
            self.tracer
                .record(root, 0, self.op, class, start, Instant::now());
        }
    }
}

pub fn run(args: &Args) -> RunResult {
    let prepare = Instant::now();
    let d = generate(args.seed);
    let initial: Vec<Vec<Value>> = d.cols.iter().map(|c| c[..INITIAL_ROWS].to_vec()).collect();
    let mut base = Running {
        sums: [0; GROUPS as usize],
        counts: [0; GROUPS as usize],
        rows: 0,
    };
    base.add(&d.cols, 0..INITIAL_ROWS);
    let end_rows = INITIAL_ROWS + BATCHES * BATCH;
    let user_bytes = (end_rows * ATTRS * 8) as f64;
    let prepare_s = prepare.elapsed().as_secs_f64();

    let mut r = Run {
        args,
        cfg: engine_config(false),
        op: 0,
        wall: 0.0,
        correct: true,
        tally: Tally::default(),
        tracer: Tracer::new(),
        layers: Layers::default(),
    };
    let mut setups = Vec::new();
    let mut rounds: Vec<RoundCounts> = Vec::new();
    let mut ingest_rates = Vec::new();
    let mut engine: Option<H2oEngine> = None;
    let started = Instant::now();
    // A traced run spends extra time per operation; it stops on real time.
    let spent = |wall: f64| {
        if args.trace {
            started.elapsed().as_secs_f64()
        } else {
            wall
        }
    };
    while spent(r.wall) < args.seconds || rounds.is_empty() {
        drop(engine.take());
        // The benchmark's own copy of the columns is made before the clock
        // starts.
        let owned = initial.clone();
        let t0 = Instant::now();
        let rel =
            Relation::columnar(d.schema.clone(), owned).expect("generated columns fit the schema");
        let e = engine.insert(H2oEngine::new(rel, r.cfg));
        setups.push(t0.elapsed().as_secs_f64());
        let mut running = base.clone();
        let round_start = r.wall;
        let mut insert_secs = 0.0;
        let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x7074);
        for (b, batch) in d.batches.iter().enumerate() {
            insert_secs += r.insert(e, batch);
            let first = INITIAL_ROWS + b * BATCH;
            running.add(&d.cols, first..first + BATCH);

            // Look up one fresh row by its timestamp.
            let row = first + rng.gen_range(0..BATCH);
            let want = vec![vec![d.cols[2][row], d.cols[3][row]]];
            r.read(
                e,
                &point_query(d.cols[TS][row]),
                "point",
                want,
                running.rows,
            );

            // Every few batches, an 8-group rollup over all rows.
            if (b + 1) % ROLLUP_EVERY == 0 {
                let want = running.expected();
                r.read(e, &rollup_query(), "rollup", want, running.rows);
            }
        }
        r.tally.close_window(r.wall - round_start);
        ingest_rates.push((BATCHES * BATCH) as f64 / insert_secs);
        let st = e.stats();
        if rounds.is_empty() {
            r.layers.engine_counters(&st);
            r.layers.opcache(e);
            r.layers
                .s
                .push("storage.total_bytes", layers::total_bytes(e) as f64);
        }
        rounds.push(RoundCounts {
            layouts_created: st.layouts_created,
            adaptations: st.adaptations,
            segments_sealed: st.segments_sealed,
            snapshots_published: st.snapshots_published,
            total_bytes: layers::total_bytes(e),
        });
    }
    let identical = rounds.windows(2).all(|w| w[0] == w[1]);
    let first = &rounds[0];
    r.layers.s.push("trace.throughput_qps", r.tally.qps());

    let mut m = Metrics::default();
    let spans = if args.trace {
        m = r.layers.metrics();
        r.tracer.write("ingest_read").unwrap_or_default()
    } else {
        m.put("setup_s", median(&setups), "s");
        latency_metrics(&mut m, &r.tally);
        m.put("ingest_rows_per_s", median(&ingest_rates), "rows/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("space_amp", first.total_bytes as f64 / user_bytes, "ratio");
        String::new()
    };
    let accounting = format!(
        "{{\"workload\":\"ingest_read\",\"seed\":{},\"trace\":{},\"initial_rows\":{INITIAL_ROWS},\"attrs\":{ATTRS},\"batch_rows\":{BATCH},\"batches_per_round\":{BATCHES},\"rollup_every\":{ROLLUP_EVERY},\"rounds\":{},\"rounds_identical\":{identical},\"per_round\":{{\"layouts_created\":{},\"adaptations\":{},\"segments_sealed\":{},\"snapshots_published\":{},\"total_bytes\":{}}},\"settings\":{},\"classes\":{},\"setups_s\":{:?},\"prepare_s\":{prepare_s},\"timed_s\":{},\"spans\":\"{spans}\"}}",
        args.seed,
        args.trace,
        rounds.len(),
        first.layouts_created,
        first.adaptations,
        first.segments_sealed,
        first.snapshots_published,
        first.total_bytes,
        settings_json(&r.cfg, "lazy"),
        r.tally.accounting_json(),
        setups,
        r.wall,
    );
    RunResult {
        correct: r.correct,
        attempted: r.tally.attempted(),
        failed: r.tally.failed(),
        metrics: m,
        accounting,
    }
}
