//! Shared pieces of the benchmark: argument parsing, engine settings,
//! per-class tallies, percentiles, the span recorder and the result line.

use h2o_core::EngineConfig;
use h2o_exec::CompileCostModel;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Intra-query worker threads. Fixed so that two machines (or two runs)
/// measure the same program. One worker: on a shared virtual machine a
/// query split across two workers waits for whichever core the host
/// preempted, which more than doubled the run-to-run spread.
pub const PARALLELISM: usize = 1;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupts one expected answer and one response, so the run must
    /// report two failed operations and exit non-zero.
    pub self_test: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            self_test: false,
        };
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            if flag == "--self-test" {
                args.self_test = true;
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                other => return Err(format!("unknown argument {other}")),
            }
            i += 2;
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(args)
    }
}

/// The cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine settings every workload uses: no simulated compile latency
/// (it spins instead of working), a fixed worker count, and the given
/// adaptation mode.
pub fn engine_config(background_reorg: bool) -> EngineConfig {
    EngineConfig {
        compile_cost: CompileCostModel::ZERO,
        parallelism: Some(PARALLELISM.min(cores())),
        background_reorg,
        ..EngineConfig::default()
    }
}

/// The settings block of the accounting line.
pub fn settings_json(cfg: &EngineConfig, adaptation: &str) -> String {
    format!(
        "{{\"parallelism\":{},\"cores\":{},\"compile_cost\":\"zero\",\"adaptation\":\"{adaptation}\",\"window_initial\":{}}}",
        cfg.parallelism.unwrap_or(0),
        cores(),
        cfg.window.initial
    )
}

/// Attempts, failures and latency samples of one operation class.
#[derive(Default)]
pub struct Class {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds, one per operation that did not fail.
    pub lat: Vec<f64>,
}

/// One measurement window: a round of an embedded workload, or a fixed
/// number of requests on the server.
#[derive(Default)]
pub struct Window {
    pub classes: BTreeMap<&'static str, Class>,
    /// Timed seconds of the window.
    pub wall: f64,
}

impl Window {
    fn latencies(&self) -> Vec<f64> {
        self.classes
            .values()
            .flat_map(|c| c.lat.iter().copied())
            .collect()
    }

    fn completed(&self) -> u64 {
        self.classes.values().map(|c| c.attempted - c.failed).sum()
    }
}

/// Per-class tallies of one run, split into measurement windows. Each
/// end-to-end figure is computed per window and the run reports the
/// median over its windows, so a slow stretch of a shared machine that
/// covers less than half of a run does not move the figure.
#[derive(Default)]
pub struct Tally {
    pub windows: Vec<Window>,
    open: Window,
}

impl Tally {
    pub fn record(&mut self, class: &'static str, secs: f64, ok: bool) {
        let c = self.open.classes.entry(class).or_default();
        c.attempted += 1;
        if ok {
            c.lat.push(secs);
        } else {
            c.failed += 1;
        }
    }

    /// Closes the current window after `wall` timed seconds.
    pub fn close_window(&mut self, wall: f64) {
        let mut w = std::mem::take(&mut self.open);
        w.wall = wall;
        self.windows.push(w);
    }

    fn all(&self) -> impl Iterator<Item = (&&'static str, &Class)> {
        self.windows
            .iter()
            .chain([&self.open])
            .flat_map(|w| w.classes.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.all().map(|(_, c)| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.all().map(|(_, c)| c.failed).sum()
    }

    /// Median over windows of a per-window figure (windows where it is
    /// undefined are skipped).
    pub fn per_window(&self, f: impl Fn(&Window) -> Option<f64>) -> Option<f64> {
        let v: Vec<f64> = self.windows.iter().filter_map(f).collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Operations completed per timed second, median over windows.
    pub fn qps(&self) -> f64 {
        self.per_window(|w| Some(w.completed() as f64 / w.wall))
            .unwrap_or(0.0)
    }

    /// The `classes` block of the accounting line: attempts, failures and
    /// the samples behind each percentile (per window, and in total).
    pub fn accounting_json(&self) -> String {
        let mut per: BTreeMap<&str, (u64, u64, usize)> = BTreeMap::new();
        for (name, c) in self.all() {
            let e = per.entry(name).or_default();
            e.0 += c.attempted;
            e.1 += c.failed;
            e.2 += c.lat.len();
        }
        let windows = self.windows.len().max(1);
        let mut out = String::from("{");
        for (name, (attempted, failed, samples)) in &per {
            let _ = write!(
                out,
                "\"{name}\":{{\"attempted\":{attempted},\"failed\":{failed},\"samples\":{samples},\"p50_samples_per_window\":{}}},",
                samples / windows
            );
        }
        let all: usize = per.values().map(|e| e.2).sum();
        let per_window = all / windows;
        let _ = write!(
            out,
            "\"all\":{{\"attempted\":{},\"failed\":{},\"samples\":{all},\"windows\":{},\"p90_samples_per_window\":{per_window},\"beyond_p90_per_window\":{}}}}}",
            self.attempted(),
            self.failed(),
            self.windows.len(),
            per_window - (per_window as f64 * 0.9).ceil() as usize
        );
        out
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in `[0, 1]`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Order-sensitive hash of a row sequence: the benchmark compares
/// its own expected rows with the engine's rows through this, so the row
/// order is checked along with every value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowHash(pub u64, pub usize);

pub struct RowHasher {
    h: u64,
    rows: usize,
}

impl RowHasher {
    pub fn new() -> RowHasher {
        RowHasher {
            h: 0xcbf2_9ce4_8422_2325,
            rows: 0,
        }
    }

    pub fn row(&mut self, row: &[i64]) {
        for &v in row {
            self.h = (self.h ^ v as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29);
        }
        self.h = (self.h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
        self.rows += 1;
    }

    pub fn finish(&self) -> RowHash {
        RowHash(self.h, self.rows)
    }
}

pub fn hash_result(r: &h2o_expr::QueryResult) -> RowHash {
    let mut h = RowHasher::new();
    for row in r.iter_rows() {
        h.row(row);
    }
    h.finish()
}

/// One recorded span: what the benchmark called, when, on behalf of which
/// operation, and inside which enclosing span.
struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out once when the run ends. Span id
/// 0 means "no parent".
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    next: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            next: 1,
        }
    }

    pub fn id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Records a finished span under a pre-allocated `id`.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as a span and returns its result and seconds.
    pub fn time<T>(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, op, name, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Writes the spans as JSON lines to `spans/<workload>.jsonl` in the
    /// benchmark's directory and returns the path.
    pub fn write(&self, workload: &str) -> std::io::Result<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{workload}.jsonl");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// Metrics of one run, in the order they are printed.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// What one workload run hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// One JSON object of per-class accounting, settings and notes,
    /// printed on the line before the result.
    pub accounting: String,
}

/// Throughput and the latency metrics shared by every workload, each the
/// median over windows. A class the workload does not issue reports the
/// workload's all-operation median, so every end-to-end metric exists
/// (and is non-zero) on every workload.
pub fn latency_metrics(m: &mut Metrics, tally: &Tally) {
    m.put("throughput_qps", tally.qps(), "1/s");
    let p50 = tally
        .per_window(|w| Some(median(&w.latencies()) * 1e3))
        .unwrap_or(0.0);
    m.put("latency_p50_ms", p50, "ms");
    let p90 = tally.per_window(|w| Some(percentile(&w.latencies(), 0.9) * 1e3));
    m.put("latency_p90_ms", p90.unwrap_or(0.0), "ms");
    for class in ["point", "project", "rollup", "join"] {
        let v = tally.per_window(|w| {
            let c = w.classes.get(class).filter(|c| !c.lat.is_empty())?;
            Some(median(&c.lat) * 1e3)
        });
        m.put(format!("{class}_p50_ms"), v.unwrap_or(p50), "ms");
    }
}

/// Traced samples, keyed by metric name.
#[derive(Default)]
pub struct Samples {
    map: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, key: impl Into<String>, v: f64) {
        self.map.entry(key.into()).or_default().push(v);
    }

    pub fn median(&self, key: &str) -> f64 {
        self.map.get(key).map_or(0.0, |v| median(v))
    }

    pub fn mean(&self, key: &str) -> f64 {
        self.map
            .get(key)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}
