//! The repository benchmark: one command, three workloads, two modes.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dag-rmat|flood-1m|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the layers under test only ever
//! see the generated specs. Every output is checked, and the last stdout
//! line is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end set ([`EndToEnd`]);
//! with `--trace 1` they are the per-layer set ([`Layers`]), measured from
//! outside each layer by timing and counting at its public functions, and
//! the spans are written to `<CARGO_TARGET_DIR>/perfbench-spans/`.
//!
//! Workloads, metric definitions and the prediction rows (which layer
//! metric should move which end-to-end metric, on which workload) are in
//! `perfbench/README.md`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub mod dag;
pub mod flood;
pub mod serve;
pub mod stats;
pub mod trace;

/// Counts every allocator call that can hand out memory. Left on in every
/// run, so `allocs_per_msg` is measured the same way on both sides of a
/// comparison; its own cost is measured once and reported in the README.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `l` are passed on unchanged.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `p` was allocated by this allocator, i.e. by `System`.
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` was allocated by this allocator, i.e. by `System`.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the whole process so far (all threads).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 3] = ["dag-rmat", "flood-1m", "serve-mix"];

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <w> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => args.workload = value.to_string(),
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    args.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// Problem sizes. [`Sizes::FULL`] is the benchmark; the self-check test
/// runs the same code paths on [`Sizes::SMOKE`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes of each `dag-rmat` R-MAT graph.
    pub dag_n: usize,
    /// R-MAT graphs per plain `dag-rmat` run.
    pub dag_cells: usize,
    /// Of those, graphs replayed layer by layer in a traced run.
    pub dag_traced_cells: usize,
    /// Nodes of the `flood-1m` graph.
    pub flood_n: usize,
    /// Nodes of every `serve-mix` scenario.
    pub serve_n: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dag_n: 700,
        dag_cells: 7,
        dag_traced_cells: 2,
        flood_n: 1_000_000,
        serve_n: 64,
    };
    pub const SMOKE: Sizes = Sizes {
        dag_n: 96,
        dag_cells: 2,
        dag_traced_cells: 1,
        flood_n: 20_000,
        serve_n: 24,
    };
}

/// Derives an independent 64-bit stream value from the workload seed
/// (splitmix64 finaliser), so every generated input is a function of
/// `--seed` alone.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics a user of the system sees. Every workload
/// reports every one; "request" means one verified result: one graph's
/// registry records (`dag-rmat`), a broadcast replay (`flood-1m`),
/// a served response (`serve-mix`).
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time (scenario builds, or daemon start plus warm-up).
    pub setup_s: f64,
    /// Time of one pass over the workload's verified work: the mean over
    /// the run's graphs (`dag-rmat`), the median replay (`flood-1m`), the
    /// wall time per mix cycle (`serve-mix`).
    pub run_s: f64,
    /// Delivered simulated messages per second of run time.
    pub msgs_per_s: f64,
    /// Model rounds per pass (per served request on `serve-mix`).
    pub rounds: f64,
    /// Messages sent per pass (per served request on `serve-mix`).
    pub msgs: f64,
    /// Heap allocations in the run phase per delivered message.
    pub allocs_per_msg: f64,
    /// Peak resident memory of the process.
    pub peak_rss_mb: f64,
    /// Verified requests per second.
    pub req_per_s: f64,
    pub req_p50_ms: f64,
    pub req_p95_ms: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("setup_s", "s", self.setup_s),
            m("run_s", "s", self.run_s),
            m("msgs_per_s", "msg/s", self.msgs_per_s),
            m("rounds", "rounds", self.rounds),
            m("msgs", "msgs", self.msgs),
            m("allocs_per_msg", "allocs/msg", self.allocs_per_msg),
            m("peak_rss_mb", "MiB", self.peak_rss_mb),
            m("req_per_s", "req/s", self.req_per_s),
            m("req_p50_ms", "ms", self.req_p50_ms),
            m("req_p95_ms", "ms", self.req_p95_ms),
        ]
    }
}

/// The per-layer metrics of a traced run, each measured at a public
/// function of its layer. A layer a workload does not reach reads 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub graph_gen_s: f64,
    pub graph_gen_edges_per_s: f64,
    pub graph_gen_speedup: f64,
    pub graph_weights_s: f64,
    pub graph_check_s: f64,
    pub runner_engine_s: f64,
    pub model_resident_bytes_per_node: f64,
    pub model_round_us_p50: f64,
    pub model_round_us_p95: f64,
    pub model_ns_per_msg: f64,
    pub model_allocs_per_node_round: f64,
    pub model_active_frac: f64,
    pub model_cap_util: f64,
    pub model_lost: f64,
    pub butterfly_dag_stages: f64,
    pub butterfly_lane_stages: f64,
    pub butterfly_splits: f64,
    pub butterfly_lane_fill: f64,
    pub core_seed_rounds: f64,
    pub core_prep_rounds: f64,
    pub core_main_rounds: f64,
    pub core_seed_s: f64,
    pub core_prep_s: f64,
    pub core_main_s: f64,
    pub serve_service_ms_p50: f64,
    pub serve_service_ms_p95: f64,
    pub serve_wait_ms_p95: f64,
    pub serve_build_ms_p50: f64,
    pub serve_cache_hit_frac: f64,
    pub serve_engine_reuse_frac: f64,
    pub serve_codec_us: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("graph.gen_s", "s", self.graph_gen_s),
            m(
                "graph.gen_edges_per_s",
                "edges/s",
                self.graph_gen_edges_per_s,
            ),
            m("graph.gen_speedup", "ratio", self.graph_gen_speedup),
            m("graph.weights_s", "s", self.graph_weights_s),
            m("graph.check_s", "s", self.graph_check_s),
            m("runner.engine_s", "s", self.runner_engine_s),
            m(
                "model.resident_bytes_per_node",
                "B",
                self.model_resident_bytes_per_node,
            ),
            m("model.round_us_p50", "us", self.model_round_us_p50),
            m("model.round_us_p95", "us", self.model_round_us_p95),
            m("model.ns_per_msg", "ns", self.model_ns_per_msg),
            m(
                "model.allocs_per_node_round",
                "allocs",
                self.model_allocs_per_node_round,
            ),
            m("model.active_frac", "ratio", self.model_active_frac),
            m("model.cap_util", "ratio", self.model_cap_util),
            m("model.lost", "msgs", self.model_lost),
            m("butterfly.dag_stages", "count", self.butterfly_dag_stages),
            m("butterfly.lane_stages", "count", self.butterfly_lane_stages),
            m("butterfly.splits", "count", self.butterfly_splits),
            m("butterfly.lane_fill", "ratio", self.butterfly_lane_fill),
            m("core.seed_rounds", "rounds", self.core_seed_rounds),
            m("core.prep_rounds", "rounds", self.core_prep_rounds),
            m("core.main_rounds", "rounds", self.core_main_rounds),
            m("core.seed_s", "s", self.core_seed_s),
            m("core.prep_s", "s", self.core_prep_s),
            m("core.main_s", "s", self.core_main_s),
            m("serve.service_ms_p50", "ms", self.serve_service_ms_p50),
            m("serve.service_ms_p95", "ms", self.serve_service_ms_p95),
            m("serve.wait_ms_p95", "ms", self.serve_wait_ms_p95),
            m("serve.build_ms_p50", "ms", self.serve_build_ms_p50),
            m("serve.cache_hit_frac", "ratio", self.serve_cache_hit_frac),
            m(
                "serve.engine_reuse_frac",
                "ratio",
                self.serve_engine_reuse_frac,
            ),
            m("serve.codec_us", "us", self.serve_codec_us),
            m("trace.overhead_frac", "ratio", self.trace_overhead_frac),
        ]
    }
}

/// Operations checked, how many of them failed a check, and which.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one checked operation, naming it if it failed.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Adds another tally's counts and failures to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// What one run measured: the tally, the metrics of the requested mode,
/// and human-readable notes printed before the result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object, every value written out in full.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|mt| {
                let v = if mt.value.is_finite() { mt.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    mt.name, v, mt.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload in the requested mode.
pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "dag-rmat" => dag::run(args, sizes),
        "flood-1m" => flood::run(args, sizes),
        "serve-mix" => serve::run(args, sizes),
        other => Err(format!("unknown workload {other}")),
    }
}
