//! Per-layer metrics: the traced run times each layer's public calls from
//! outside, on the snapshot an operation ran against, and reads the
//! layers' own counters.

use crate::common::{Metrics, Samples, Tracer};
use h2o_core::{EngineStats, H2oEngine};
use h2o_cost::AccessPattern;
use h2o_exec::{AccessPlan, ExecPolicy, JoinOptions};
use h2o_expr::{JoinQuery, Query};
use h2o_storage::{CatalogSnapshot, DEFAULT_SEG_SHIFT};

/// Every per-layer metric with its unit, in print order. A metric whose
/// layer is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.decode_us", "us"),
    ("server.encode_us", "us"),
    ("server.response_bytes.point", "bytes"),
    ("server.response_bytes.project", "bytes"),
    ("server.response_bytes.rollup", "bytes"),
    ("server.response_bytes.join", "bytes"),
    ("server.session_us", "us"),
    ("expr.typecheck_us", "us"),
    ("cost.plan_us", "us"),
    ("cost.est_over_measured.point", "ratio"),
    ("cost.est_over_measured.project", "ratio"),
    ("cost.est_over_measured.rollup", "ratio"),
    ("cost.est_over_measured.join", "ratio"),
    ("exec.compile_us", "us"),
    ("exec.opcache_hit_rate", "ratio"),
    ("exec.kernel_ns_per_row.point", "ns"),
    ("exec.kernel_ns_per_row.project", "ns"),
    ("exec.kernel_ns_per_row.rollup", "ns"),
    ("exec.segments_skipped_ratio", "ratio"),
    ("exec.join_ns_per_probe_row", "ns"),
    ("exec.bloom_reject_ratio", "ratio"),
    ("exec.reorg_s", "s"),
    ("adapt.advise_s", "s"),
    ("adapt.adaptations", "count"),
    ("adapt.shifts_detected", "count"),
    ("adapt.layouts_created", "count"),
    ("adapt.layouts_evicted", "count"),
    ("adapt.first_create_after_shift", "count"),
    ("core.run_us.point", "us"),
    ("core.run_us.project", "us"),
    ("core.run_us.rollup", "us"),
    ("core.run_us.join", "us"),
    ("core.other_us", "us"),
    ("core.insert_us", "us"),
    ("storage.bytes_cloned_per_row", "bytes"),
    ("storage.segments_sealed", "count"),
    ("storage.snapshots_published", "count"),
    ("storage.total_bytes", "bytes"),
    ("trace.throughput_qps", "1/s"),
];

/// Metrics reported as the mean of their samples rather than the median:
/// codec costs differ by orders of magnitude between request classes, and
/// the mean keeps the heavy (projection) requests visible.
const MEANS: &[&str] = &["server.decode_us", "server.encode_us"];

/// Samples of the traced run; each metric is the median of its samples
/// (the mean for [`MEANS`]).
#[derive(Default)]
pub struct Layers {
    pub s: Samples,
}

impl Layers {
    /// Records the engine's counters (one sample each): adaptation,
    /// reorganization and write-path work.
    pub fn engine_counters(&mut self, st: &EngineStats) {
        self.s.push("exec.reorg_s", st.reorg_time.as_secs_f64());
        self.s.push("adapt.advise_s", st.advise_time.as_secs_f64());
        self.s.push("adapt.adaptations", st.adaptations as f64);
        self.s
            .push("adapt.shifts_detected", st.shifts_detected as f64);
        self.s
            .push("adapt.layouts_created", st.layouts_created as f64);
        self.s
            .push("adapt.layouts_evicted", st.layouts_evicted as f64);
        let per_row = if st.rows_appended > 0 {
            st.bytes_cloned_on_write as f64 / st.rows_appended as f64
        } else {
            0.0
        };
        self.s.push("storage.bytes_cloned_per_row", per_row);
        self.s
            .push("storage.segments_sealed", st.segments_sealed as f64);
        self.s
            .push("storage.snapshots_published", st.snapshots_published as f64);
    }

    pub fn opcache(&mut self, engine: &H2oEngine) {
        let c = engine.opcache_stats();
        let total = c.hits + c.misses;
        if total > 0 {
            self.s
                .push("exec.opcache_hit_rate", c.hits as f64 / total as f64);
        }
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            let v = if MEANS.contains(&name) {
                self.s.mean(name)
            } else {
                self.s.median(name)
            };
            m.put(name, v, unit);
        }
        m
    }
}

/// The single-relation trace context of one operation.
pub struct QueryTrace<'a> {
    pub engine: &'a H2oEngine,
    pub policy: ExecPolicy,
    pub class: &'static str,
    pub op: u64,
    pub parent: u64,
    /// Seconds the operation's `run` took.
    pub run_secs: f64,
    /// Whether that `run` missed the operator cache.
    pub compiled: bool,
    /// The selectivity the engine planned with.
    pub selectivity: f64,
}

impl QueryTrace<'_> {
    /// Times type-check, planning, compilation and the kernel of `q` on
    /// `snap` (none of which changes engine state) and records the
    /// derived per-layer samples.
    pub fn record(&self, q: &Query, snap: &CatalogSnapshot, tr: &mut Tracer, layers: &mut Layers) {
        let (op, parent, class) = (self.op, self.parent, self.class);
        let (_, tc) = tr.time(parent, op, "expr.typecheck", || {
            h2o_expr::typecheck::check(q, snap.schema())
        });
        let pattern = AccessPattern::of(q, self.selectivity);
        let (planned, plan_s) = tr.time(parent, op, "cost.plan", || self.engine.plan(&pattern));
        let Ok((plan, est)) = planned else { return };
        let (compiled, compile_s) = tr.time(parent, op, "exec.compile", || {
            h2o_exec::compile(snap, &plan, q)
        });
        let Ok(cop) = compiled else { return };
        let (executed, kernel_s) = tr.time(parent, op, "exec.execute", || {
            h2o_exec::execute_with_policy_stats(snap, &cop, &self.policy)
        });
        let Ok((_, stats)) = executed else { return };
        let rows = snap.rows().max(1) as f64;
        // The estimate the engine reported for the plan it ran.
        let est = self.engine.last_report().map_or(est, |r| r.estimated_cost);
        let s = &mut layers.s;
        s.push("expr.typecheck_us", tc * 1e6);
        s.push("cost.plan_us", plan_s * 1e6);
        s.push("exec.compile_us", compile_s * 1e6);
        s.push(
            format!("exec.kernel_ns_per_row.{class}"),
            kernel_s * 1e9 / rows,
        );
        s.push(
            format!("cost.est_over_measured.{class}"),
            est / kernel_s.max(1e-9),
        );
        s.push(format!("core.run_us.{class}"), self.run_secs * 1e6);
        let compile_part = if self.compiled { compile_s } else { 0.0 };
        s.push(
            "core.other_us",
            (self.run_secs - plan_s - compile_part - kernel_s) * 1e6,
        );
        if class == "point" {
            let seg_runs = snap.rows().div_ceil(1 << DEFAULT_SEG_SHIFT).max(1);
            s.push(
                "exec.segments_skipped_ratio",
                stats.segments_skipped as f64 / seg_runs as f64,
            );
        }
    }
}

/// Times the join layer calls of `q` on the relations it ran against,
/// using the plan the engine reported for it.
#[allow(clippy::too_many_arguments)]
pub fn trace_join(
    engine: &H2oEngine,
    policy: &ExecPolicy,
    q: &JoinQuery,
    left: &CatalogSnapshot,
    right: &CatalogSnapshot,
    op: u64,
    parent: u64,
    run_secs: f64,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let (checked, tc) = tr.time(parent, op, "expr.typecheck", || h2o_expr::check_join(q));
    let (Ok(checked), Some(report)) = (checked, engine.last_join_report()) else {
        return;
    };
    let lplan = AccessPlan::new(report.left_layouts.clone(), report.left_strategy);
    let rplan = AccessPlan::new(report.right_layouts.clone(), report.right_strategy);
    let (compiled, compile_s) = tr.time(parent, op, "exec.compile", || {
        h2o_exec::compile_join(
            left,
            right,
            &lplan,
            &rplan,
            q,
            &checked,
            report.build_is_left,
        )
    });
    let Ok(cop) = compiled else { return };
    let (executed, secs) = tr.time(parent, op, "exec.execute", || {
        h2o_exec::execute_join_with_policy_opts(left, right, &cop, policy, JoinOptions::default())
    });
    let Ok((_, st)) = executed else { return };
    let s = &mut layers.s;
    s.push("expr.typecheck_us", tc * 1e6);
    s.push("exec.compile_us", compile_s * 1e6);
    s.push(
        "exec.join_ns_per_probe_row",
        secs * 1e9 / st.probe_input_rows.max(1) as f64,
    );
    s.push(
        "exec.bloom_reject_ratio",
        st.probe_bloom_rejects as f64 / st.probe_rows.max(1) as f64,
    );
    s.push(
        "cost.est_over_measured.join",
        report.estimated_cost / secs.max(1e-9),
    );
    s.push("core.run_us.join", run_secs * 1e6);
}

/// Bytes of all layouts of every relation the engine serves.
pub fn total_bytes(engine: &H2oEngine) -> usize {
    let db = engine.db_snapshot();
    db.relation_names()
        .iter()
        .filter_map(|n| db.relation(n).ok())
        .map(|c| c.total_bytes())
        .sum()
}
