//! `adapt_shift`: the paper's adaptive query sequence, embedded and
//! single-client, with lazy adaptation. A wide column-major relation far
//! beyond the caches; select-project-aggregate queries over recurring
//! attribute classes whose focus switches midway to a disjoint attribute
//! set. Each round runs the whole sequence on a freshly loaded engine, so
//! every round creates the same layouts at the same queries.

use crate::common::*;
use crate::layers::{self, Layers, QueryTrace};
use h2o_core::{H2oEngine, Request};
use h2o_expr::{Datum, Query};
use h2o_storage::{Relation, Schema, Value};
use h2o_workload::micro::{QueryGen, Template};
use h2o_workload::synth::gen_columns;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

const ROWS: usize = 100_000;
const ATTRS: usize = 150;
const QUERIES: usize = 240;
const SHIFT_AT: usize = 120;
/// Sizes of the recurring attribute classes of each focus set. Sizes,
/// templates, selectivities and which class shares attributes with which
/// follow a fixed schedule; the seed decides the data and renames the
/// attributes. Every seed thus asks the engine for the same amount of
/// work and leads the adviser to the same layouts.
const CLASS_SIZES: [usize; 4] = [12, 16, 20, 24];
/// Every `NOISE_EVERY`-th query is a one-off over a fresh random subset of
/// the focus set (the Fig. 7 walkthrough's noise).
const NOISE_EVERY: usize = 10;
const NOISE_SIZE: usize = 18;
/// Template of query `i % 10`: mostly arithmetic expressions, with
/// aggregations and projections mixed in (the Fig. 7 mix).
const TEMPLATES: [Template; 10] = [
    Template::Expression,
    Template::Expression,
    Template::Aggregation,
    Template::Expression,
    Template::Expression,
    Template::Projection,
    Template::Expression,
    Template::Aggregation,
    Template::Expression,
    Template::Expression,
];
/// Selectivity of query `i % 3`: half the queries of each template scan
/// without a filter.
const SELECTIVITIES: [f64; 3] = [0.5, 1.0, 1.0];

/// One query of the sequence, with what its answer is computed from.
struct Step {
    query: Query,
    selectivity: f64,
    template: Template,
    /// Attributes of the select clause, in order.
    select: Vec<usize>,
    /// `attr < value` filters.
    filter: Vec<(usize, Value)>,
    expected: RowHash,
}

impl Step {
    fn class(&self) -> &'static str {
        match self.template {
            Template::Aggregation => "rollup",
            _ => "project",
        }
    }
}

fn draw(rng: &mut SmallRng, focus: &[u32], size: usize) -> Vec<u32> {
    let mut attrs = focus.to_vec();
    attrs.shuffle(rng);
    attrs.truncate(size);
    attrs.sort_unstable();
    attrs
}

/// Seed of the sequence's shape: the focus sets, the classes and the
/// one-off queries over attribute slots. The run's seed maps slots to
/// attributes.
const SHAPE_SEED: u64 = 0x0073_6869_6674;

/// The query sequence: classes over focus set A, then over a disjoint
/// focus set B from query `SHIFT_AT` on. Within a focus, query `i` uses
/// class `i % 4`, except the one-off every `NOISE_EVERY` queries.
fn sequence(seed: u64, cols: &[Vec<Value>]) -> Vec<Step> {
    let mut rename: Vec<u32> = (0..ATTRS as u32).collect();
    rename.shuffle(&mut SmallRng::seed_from_u64(seed ^ SHAPE_SEED));
    let mut rng = SmallRng::seed_from_u64(SHAPE_SEED);
    let all: Vec<u32> = (0..ATTRS as u32).collect();
    let focus = [&all[..ATTRS / 2], &all[ATTRS / 2..]];
    let pools: Vec<Vec<Vec<u32>>> = focus
        .iter()
        .map(|f| CLASS_SIZES.iter().map(|&z| draw(&mut rng, f, z)).collect())
        .collect();
    (0..QUERIES)
        .map(|i| {
            let phase = usize::from(i >= SHIFT_AT);
            let attrs = if i % NOISE_EVERY == NOISE_EVERY - 1 {
                draw(&mut rng, focus[phase], NOISE_SIZE)
            } else {
                pools[phase][i % CLASS_SIZES.len()].clone()
            };
            let attrs: Vec<u32> = attrs.iter().map(|&a| rename[a as usize]).collect();
            let template = TEMPLATES[i % TEMPLATES.len()];
            let ids: Vec<h2o_storage::AttrId> =
                attrs.iter().map(|&a| h2o_storage::AttrId(a)).collect();
            let sel = SELECTIVITIES[i % SELECTIVITIES.len()];
            let (query, selectivity) = if sel >= 1.0 {
                QueryGen::build(template, &ids[1..], &[], 1.0)
            } else {
                QueryGen::build(template, &ids[1..], &ids[..1], sel)
            };
            let filter = query
                .filter()
                .predicates()
                .iter()
                .map(|p| match p.value {
                    Datum::I64(v) => (p.attr.index(), v),
                    _ => unreachable!("integer thresholds"),
                })
                .collect();
            let select = attrs[1..].iter().map(|&a| a as usize).collect();
            let mut step = Step {
                query,
                selectivity,
                template,
                select,
                filter,
                expected: RowHash(0, 0),
            };
            step.expected = expected(&step, cols);
            step
        })
        .collect()
}

/// The answer of one step, by plain loops over the generated columns.
fn expected(s: &Step, c: &[Vec<Value>]) -> RowHash {
    let mut h = RowHasher::new();
    let qualifies = |i: usize| s.filter.iter().all(|&(a, v)| c[a][i] < v);
    match s.template {
        Template::Projection => {
            let mut row = Vec::with_capacity(s.select.len());
            for i in (0..ROWS).filter(|&i| qualifies(i)) {
                row.clear();
                row.extend(s.select.iter().map(|&a| c[a][i]));
                h.row(&row);
            }
        }
        Template::Expression => {
            for i in (0..ROWS).filter(|&i| qualifies(i)) {
                let sum = s
                    .select
                    .iter()
                    .fold(0 as Value, |acc, &a| acc.wrapping_add(c[a][i]));
                h.row(&[sum]);
            }
        }
        Template::Aggregation => {
            let mut max: Vec<Option<Value>> = vec![None; s.select.len()];
            for i in (0..ROWS).filter(|&i| qualifies(i)) {
                for (m, &a) in max.iter_mut().zip(&s.select) {
                    *m = Some(m.map_or(c[a][i], |x| x.max(c[a][i])));
                }
            }
            let row: Vec<Value> = max.iter().map(|m| m.unwrap_or(0)).collect();
            h.row(&row);
        }
    }
    h.finish()
}

/// What one round left behind, compared across rounds.
#[derive(PartialEq, Debug)]
struct RoundCounts {
    layouts_created: u64,
    adaptations: u64,
    total_bytes: usize,
    first_create_after_shift: usize,
}

pub fn run(args: &Args) -> RunResult {
    let prepare = Instant::now();
    let cols = gen_columns(ATTRS, ROWS, args.seed);
    let steps = sequence(args.seed, &cols);
    let schema = Schema::with_width(ATTRS).into_shared();
    let cfg = engine_config(false);
    let user_bytes = (ROWS * ATTRS * 8) as f64;
    let prepare_s = prepare.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut setups = Vec::new();
    let mut load_rates = Vec::new();
    let mut rounds: Vec<RoundCounts> = Vec::new();
    let mut correct = true;
    let mut wall = 0.0;
    let mut op = 0u64;
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
    while spent(wall) < args.seconds || rounds.is_empty() {
        drop(engine.take());
        // The engine copies the columns it is handed, so the benchmark's
        // own copy of them is made before the clock starts.
        let owned = cols.clone();
        let t0 = Instant::now();
        let rel =
            Relation::columnar(schema.clone(), owned).expect("generated columns fit the schema");
        let e = engine.insert(H2oEngine::new(rel, cfg));
        let setup = t0.elapsed().as_secs_f64();
        setups.push(setup);
        load_rates.push(ROWS as f64 / setup);
        let mut first_create = QUERIES - SHIFT_AT;
        let round_start = wall;
        for (i, step) in steps.iter().enumerate() {
            op += 1;
            let misses = e.opcache_stats().misses;
            let start = Instant::now();
            let out = e.run(Request::query(&step.query).hint(step.selectivity));
            let end = Instant::now();
            let secs = (end - start).as_secs_f64();
            wall += secs;
            let ok = match &out {
                Ok(o) => {
                    let mut got = hash_result(&o.result);
                    if args.self_test && op == 2 {
                        got.0 ^= 1;
                    }
                    let mut want = step.expected;
                    if args.self_test && op == 3 {
                        want.0 ^= 1;
                    }
                    let right = got == want;
                    correct &= right;
                    right
                }
                Err(_) => false,
            };
            tally.record(step.class(), secs, ok);
            let created = e.last_report().is_some_and(|r| r.created_layout.is_some());
            if created && i >= SHIFT_AT && first_create == QUERIES - SHIFT_AT {
                first_create = i - SHIFT_AT;
            }
            if let (true, Ok(o)) = (args.trace, &out) {
                let root = tracer.id();
                let run_span = tracer.id();
                tracer.record(run_span, root, op, "core.run", start, end);
                QueryTrace {
                    engine: e,
                    policy: cfg.exec_policy(),
                    class: step.class(),
                    op,
                    parent: root,
                    run_secs: secs,
                    compiled: e.opcache_stats().misses > misses,
                    selectivity: step.selectivity,
                }
                .record(
                    &step.query,
                    o.snapshot.primary(),
                    &mut tracer,
                    &mut layers,
                );
                tracer.record(root, 0, op, step.class(), start, Instant::now());
            }
        }
        tally.close_window(wall - round_start);
        let st = e.stats();
        if rounds.is_empty() {
            layers.engine_counters(&st);
            layers.opcache(e);
            layers
                .s
                .push("adapt.first_create_after_shift", first_create as f64);
            layers
                .s
                .push("storage.total_bytes", layers::total_bytes(e) as f64);
        }
        rounds.push(RoundCounts {
            layouts_created: st.layouts_created,
            adaptations: st.adaptations,
            total_bytes: layers::total_bytes(e),
            first_create_after_shift: first_create,
        });
    }
    let identical = rounds.windows(2).all(|w| w[0] == w[1]);
    let first = &rounds[0];
    layers.s.push("trace.throughput_qps", tally.qps());

    let mut m = Metrics::default();
    let spans = if args.trace {
        m = layers.metrics();
        tracer.write("adapt_shift").unwrap_or_default()
    } else {
        m.put("setup_s", median(&setups), "s");
        latency_metrics(&mut m, &tally);
        m.put("ingest_rows_per_s", median(&load_rates), "rows/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("space_amp", first.total_bytes as f64 / user_bytes, "ratio");
        String::new()
    };
    let accounting = format!(
        "{{\"workload\":\"adapt_shift\",\"seed\":{},\"trace\":{},\"rows\":{ROWS},\"attrs\":{ATTRS},\"queries_per_round\":{QUERIES},\"shift_at\":{SHIFT_AT},\"rounds\":{},\"rounds_identical\":{identical},\"per_round\":{{\"layouts_created\":{},\"adaptations\":{},\"total_bytes\":{},\"first_create_after_shift\":{}}},\"settings\":{},\"classes\":{},\"setups_s\":{:?},\"prepare_s\":{prepare_s},\"timed_s\":{wall},\"spans\":\"{spans}\"}}",
        args.seed,
        args.trace,
        rounds.len(),
        first.layouts_created,
        first.adaptations,
        first.total_bytes,
        first.first_create_after_shift,
        settings_json(&cfg, "lazy"),
        tally.accounting_json(),
        setups,
    );
    RunResult {
        correct,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: m,
        accounting,
    }
}
