//! `dag-rmat`: `mst` and `bfs` through the registry on R-MAT graphs
//! (edge factor 8) at n = 700, two graphs at a time, one engine thread
//! each. `apsp` is left out: on R-MAT graphs at n = 1000 it fails its own
//! check on about one graph in ten (see the README's "Known failures"),
//! and every operation a workload runs must succeed.
//!
//! Every §3–§5 algorithm runs through `Dag` → `Mux` → `Engine`, in
//! thousands of narrow rounds, while generating the graph takes
//! milliseconds. MST's Boruvka phase count alone swings its rounds by a
//! third from one graph to the next, so a run covers several graphs (cells)
//! and reports per-graph means.
//!
//! The traced run does not call `Algorithm::run` for its replay: it calls
//! the registry pipeline's public functions in order — seed agreement,
//! §5 preparation, the algorithm, the centralised check — with a span
//! around each, and requires the replay to reproduce the registry
//! record's `rounds` and `sent` exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ncc_butterfly::{broadcast_seed, SchedReport};
use ncc_graph::check;
use ncc_hashing::SharedRandomness;
use ncc_model::{ilog2_ceil, Engine, ExecStats, ModelError};
use ncc_runner::{find_algorithm, FamilySpec, RunRecord, Scenario, ScenarioSpec, Verdict};

use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::trace::{ClockSink, RoundClock, Tracer};
use crate::{allocs, derive, Args, EndToEnd, Layers, Outcome, Sizes, Tally};

/// The registry algorithms this workload runs, in run order.
pub const ALGOS: [&str; 2] = ["mst", "bfs"];

/// Threads that take the graphs of a pass in turn, each running one
/// graph's records at a time on its own engine (one thread each): as many
/// as the machine's cores. With one thread a run measured the speed of
/// whichever core it landed on, and `run_s` moved by up to a quarter of
/// its median from one run to the next.
const LOAD_THREADS: usize = 2;

/// Timed set-ups of all the cells in each of two bursts, one before the
/// run and one after it; `setup_s` is the median of both bursts, so one
/// slow spell of the host does not set it.
const SETUP_BURST: usize = 15;

/// The R-MAT scenario of cell `cell`, derived from the workload seed.
pub fn cell_spec(seed: u64, cell: usize, n: usize) -> ScenarioSpec {
    ScenarioSpec::new(
        FamilySpec::Rmat { edge_factor: 8 },
        n,
        derive(seed, 0xda6 + cell as u64),
    )
}

/// The set-up a cell pays before its timed phase: graph, weights, and one
/// fresh engine per algorithm (what `run_record` would build). The timed
/// engines are dropped; each record gets a fresh one when it runs.
fn setup(spec: &ScenarioSpec) -> Result<Scenario, String> {
    let scn = spec.build().map_err(|e| e.to_string())?;
    scn.weighted();
    let engines: Vec<Engine> = ALGOS.iter().map(|_| scn.engine()).collect();
    drop(engines);
    Ok(scn)
}

/// One registry record and what it cost.
struct Record {
    rec: Option<RunRecord>,
    secs: f64,
    totals: ExecStats,
    /// `rounds × n × send cap`: the message slots the run had.
    slots: f64,
}

/// Runs one registry algorithm on a fresh engine of its own.
fn run_one(name: &str, scn: &Scenario, tally: &mut Tally) -> Record {
    let algo = find_algorithm(name).expect("registered algorithm");
    let mut eng = scn.engine();
    let t = Instant::now();
    let res = algo.run(&mut eng, scn);
    let secs = t.elapsed().as_secs_f64();
    let what = match &res {
        Ok(r) => format!("{name} on {}: verdict {:?}", scn.spec.label(), r.verdict),
        Err(e) => format!("{name} on {}: {e}", scn.spec.label()),
    };
    let rec = res.ok();
    tally.check(
        rec.as_ref().is_some_and(|r| r.verdict == Verdict::Verified),
        what,
    );
    Record {
        rec,
        secs,
        totals: eng.total,
        slots: (eng.total.rounds * eng.n() as u64) as f64 * eng.config().capacity.send as f64,
    }
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    if args.trace {
        traced(args, sizes)
    } else {
        plain(args, sizes)
    }
}

/// Sets up every cell of a run; returns the scenarios and the time taken.
fn setup_all(seed: u64, sizes: &Sizes) -> Result<(Vec<Scenario>, f64), String> {
    let t = Instant::now();
    let scenarios = (0..sizes.dag_cells)
        .map(|cell| setup(&cell_spec(seed, cell, sizes.dag_n)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((scenarios, t.elapsed().as_secs_f64()))
}

/// Times `SETUP_BURST` set-ups of every cell.
fn setup_burst(seed: u64, sizes: &Sizes, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_BURST {
        setups.push(setup_all(seed, sizes)?.1);
    }
    Ok(())
}

/// Runs every graph's records once, the graphs taken in turn by
/// `LOAD_THREADS` threads; returns them in graph order.
fn run_pass(scenarios: &[Scenario]) -> Vec<(Tally, Vec<Record>)> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Tally, Vec<Record>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(scn) = scenarios.get(i) else { break };
                        let mut tally = Tally::default();
                        let recs = ALGOS.iter().map(|a| run_one(a, scn, &mut tally)).collect();
                        out.push((i, tally, recs));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, t, r)| (t, r)).collect()
}

fn plain(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let cells = sizes.dag_cells;
    let (scenarios, first_setup) = setup_all(args.seed, sizes)?;
    let mut setups = vec![first_setup];
    setup_burst(args.seed, sizes, &mut setups)?;

    // Whole passes over the graphs until `--seconds` have passed; every
    // pass runs the same records, and counts come from the first one, so
    // they do not depend on the machine's speed. A request is one pass:
    // with one request per graph, p95 over a few graphs would be the
    // slowest graph, which swings with the seed by nearly the metric's
    // whole bound.
    let mut tally = Tally::default();
    let (mut all, mut first) = (ExecStats::default(), ExecStats::default());
    let mut pass_ms = Vec::new();
    let a0 = allocs();
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let pass = run_pass(&scenarios);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (t, recs) in &pass {
            for r in recs {
                if pass_ms.len() == 1 {
                    first.merge(&r.totals);
                }
                all.merge(&r.totals);
            }
            if pass_ms.len() == 1 {
                tally.merge(t);
            }
        }
    }
    let allocs_run = allocs() - a0;
    setup_burst(args.seed, sizes, &mut setups)?;
    let (busy, passes) = (pass_ms.iter().sum::<f64>() / 1e3, pass_ms.len());
    let e2e = EndToEnd {
        setup_s: median(&setups),
        run_s: busy / (passes * cells) as f64,
        msgs_per_s: ratio(all.delivered as f64, busy),
        rounds: first.rounds as f64 / cells as f64,
        msgs: first.sent as f64 / cells as f64,
        allocs_per_msg: ratio(allocs_run as f64, all.delivered as f64),
        peak_rss_mb: peak_rss_mb(),
        req_per_s: ratio(passes as f64, busy),
        req_p50_ms: median(&pass_ms),
        req_p95_ms: percentile(&pass_ms, 95.0),
    };
    Ok(Outcome {
        tally,
        metrics: e2e.metrics(),
        notes: vec![format!(
            "dag-rmat: {passes} pass(es) over {cells} R-MAT graphs (n={}, edge factor 8) x {:?}, \
             {LOAD_THREADS} load threads, 1 engine thread each",
            sizes.dag_n, ALGOS
        )],
    })
}

/// What a replayed pipeline cost, stage by stage.
struct Replay {
    seed: ExecStats,
    prep: ExecStats,
    main: ExecStats,
    plan: SchedReport,
    checked: bool,
}

impl Replay {
    fn rounds(&self) -> u64 {
        self.seed.rounds + self.prep.rounds + self.main.rounds
    }
    fn sent(&self) -> u64 {
        self.seed.sent + self.prep.sent + self.main.sent
    }
}

/// Seed agreement exactly as the registry pipelines do it (§2.2 budget).
fn agree(eng: &mut Engine, seed: u64) -> Result<(SharedRandomness, ExecStats), ModelError> {
    let n = eng.n();
    let k = SharedRandomness::k_for(n);
    let bits = SharedRandomness::bits_required(n, 2 * ilog2_ceil(n).max(1) as usize, k);
    broadcast_seed(eng, seed ^ 0x5eed, bits)
}

/// Replays the registry pipeline of `name` through its public functions.
fn replay(
    name: &str,
    eng: &mut Engine,
    scn: &Scenario,
    tr: &mut Tracer,
    id: u64,
) -> Result<Replay, ModelError> {
    let h = tr.begin("butterfly.broadcast_seed", id);
    let (shared, seed) = agree(eng, scn.spec.seed)?;
    tr.end(h);
    let bt = if name == "mst" {
        None
    } else {
        let h = tr.begin("core.build_broadcast_trees", id);
        let (bt, rep) = ncc_core::build_broadcast_trees(eng, &shared, &scn.graph)?;
        tr.end(h);
        Some((bt, rep.total))
    };
    let prep = bt.as_ref().map_or(ExecStats::default(), |(_, s)| *s);
    let (main, plan, checked) = match (name, bt) {
        ("mst", _) => {
            let h = tr.begin("core.mst", id);
            let r = ncc_core::mst(eng, &shared, scn.weighted())?;
            tr.end(h);
            let h = tr.begin("graph.check_mst", id);
            let ok = check::check_mst(scn.weighted(), &r.edges).is_ok();
            tr.end(h);
            (r.report.total, r.plan, ok)
        }
        ("bfs", Some((bt, _))) => {
            let src = scn.source();
            let h = tr.begin("core.bfs", id);
            let r = ncc_core::bfs(eng, &shared, &bt, &scn.graph, src)?;
            tr.end(h);
            let h = tr.begin("graph.check_bfs", id);
            let ok = check::check_bfs(&scn.graph, src, &r.dist, &r.parent).is_ok();
            tr.end(h);
            (r.report.total, r.plan, ok)
        }
        _ => unreachable!("dag-rmat runs only {ALGOS:?}"),
    };
    Ok(Replay {
        seed,
        prep,
        main,
        plan,
        checked,
    })
}

fn traced(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut tr = Tracer::default();
    let clock = RoundClock::shared();
    let (mut gen1, mut gen2, mut edges) = (Vec::new(), Vec::new(), 0usize);
    let (mut plain_secs, mut replay_secs, mut plain_allocs) = (0.0, 0.0, 0u64);
    let (mut plain_totals, mut slots) = (ExecStats::default(), 0.0);
    let (mut seed_rounds, mut prep_rounds, mut main_rounds) = (0u64, 0u64, 0u64);
    let (mut stages, mut lane_stages, mut splits, mut lane_slots) =
        (0usize, 0usize, 0usize, 0usize);
    let mut resident = Vec::new();
    let cells = sizes.dag_traced_cells.min(sizes.dag_cells).max(1);
    for cell in 0..cells {
        let id = cell as u64;
        let spec = cell_spec(args.seed, cell, sizes.dag_n);
        let root = tr.begin("dag.cell", id);
        let h = tr.begin("graph.build_graph", id);
        let graph = spec.build_graph().map_err(|e| e.to_string())?;
        gen1.push(tr.end(h));
        edges += graph.m();
        let h = tr.begin("graph.build_graph.2t", id);
        let graph2 = spec
            .clone()
            .with_threads(2)
            .build_graph()
            .map_err(|e| e.to_string())?;
        gen2.push(tr.end(h));
        drop(graph2);
        let scn = Scenario::from_graph(spec, graph);
        let h = tr.begin("graph.weighted", id);
        scn.weighted();
        tr.end(h);

        // The registry records to reproduce, and the untraced run time.
        // Even cells run the registry before the replay, odd cells after
        // it, so the order does not bias the tracing overhead.
        let (mut plain, mut replays) = (Vec::new(), Vec::new());
        for registry_turn in [cell % 2 == 0, cell % 2 == 1] {
            if registry_turn {
                let a0 = allocs();
                for name in ALGOS {
                    let h = tr.begin("runner.algorithm_run", id);
                    plain.push(run_one(name, &scn, &mut tally));
                    tr.end(h);
                }
                plain_allocs += allocs() - a0;
                continue;
            }
            for name in ALGOS {
                let h = tr.begin("runner.engine", id);
                let mut eng = scn.engine();
                tr.end(h);
                eng.set_sink(Box::new(ClockSink(clock.clone())));
                let h = tr.begin(pipeline_span(name), id);
                clock.borrow_mut().mark();
                let rep = replay(name, &mut eng, &scn, &mut tr, id);
                clock.borrow_mut().stop();
                replay_secs += tr.end(h);
                resident.push(eng.resident_bytes().per_node(eng.n()));
                replays.push(rep);
            }
        }
        for r in &plain {
            plain_secs += r.secs;
            plain_totals.merge(&r.totals);
            slots += r.slots;
        }

        for (i, (name, rep)) in ALGOS.iter().zip(replays).enumerate() {
            let rep = match rep {
                Ok(rep) => rep,
                Err(e) => {
                    tally.check(
                        false,
                        format!("replay of {name} on {}: {e}", scn.spec.label()),
                    );
                    continue;
                }
            };
            let same = plain[i]
                .rec
                .as_ref()
                .is_some_and(|r| r.rounds == rep.rounds() && r.sent == rep.sent());
            tally.check(
                same && rep.checked,
                format!(
                    "replay of {name} on {}: {} rounds / {} sent, check {}",
                    scn.spec.label(),
                    rep.rounds(),
                    rep.sent(),
                    rep.checked
                ),
            );
            seed_rounds += rep.seed.rounds;
            prep_rounds += rep.prep.rounds;
            main_rounds += rep.main.rounds;
            stages += rep.plan.stages.len();
            lane_stages += rep.plan.lane_stages();
            splits += rep.plan.splits();
            lane_slots += rep.plan.stages.len() * rep.plan.budget;
        }
        tr.end(root);
    }
    let per_cell = |x: f64| x / cells as f64;
    let gaps = &clock.borrow().gaps_us;
    let layers = Layers {
        graph_gen_s: median(&gen1),
        graph_gen_edges_per_s: ratio(edges as f64, gen1.iter().sum()),
        graph_gen_speedup: ratio(median(&gen1), median(&gen2)),
        graph_weights_s: per_cell(tr.total_secs("graph.weighted")),
        graph_check_s: per_cell(
            tr.total_secs("graph.check_mst") + tr.total_secs("graph.check_bfs"),
        ),
        runner_engine_s: median(&tr.durations("runner.engine")),
        model_resident_bytes_per_node: median(&resident),
        model_round_us_p50: percentile(gaps, 50.0),
        model_round_us_p95: percentile(gaps, 95.0),
        model_ns_per_msg: ratio(plain_secs * 1e9, plain_totals.delivered as f64),
        model_allocs_per_node_round: ratio(plain_allocs as f64, plain_totals.node_rounds as f64),
        model_active_frac: ratio(
            plain_totals.node_rounds as f64,
            (plain_totals.rounds * sizes.dag_n as u64) as f64,
        ),
        model_cap_util: ratio(plain_totals.sent as f64, slots),
        model_lost: plain_totals.lost() as f64,
        butterfly_dag_stages: per_cell(stages as f64),
        butterfly_lane_stages: per_cell(lane_stages as f64),
        butterfly_splits: per_cell(splits as f64),
        butterfly_lane_fill: ratio(lane_stages as f64, lane_slots as f64),
        core_seed_rounds: per_cell(seed_rounds as f64),
        core_prep_rounds: per_cell(prep_rounds as f64),
        core_main_rounds: per_cell(main_rounds as f64),
        core_seed_s: per_cell(tr.total_secs("butterfly.broadcast_seed")),
        core_prep_s: per_cell(tr.total_secs("core.build_broadcast_trees")),
        core_main_s: per_cell(tr.total_secs("core.mst") + tr.total_secs("core.bfs")),
        trace_overhead_frac: ratio(replay_secs, plain_secs) - 1.0,
        ..Layers::default()
    };
    let mut notes = vec![format!(
        "dag-rmat traced: {cells} cells replayed through the public functions; \
         rounds and sent must equal the registry records"
    )];
    notes.extend(tr.self_time_notes());
    match tr.write(&args.workload, args.seed) {
        Ok(path) => notes.push(format!("spans: {path}")),
        Err(e) => return Err(format!("cannot write spans: {e}")),
    }
    Ok(Outcome {
        tally,
        metrics: layers.metrics(),
        notes,
    })
}

/// The span name of one replayed registry pipeline.
fn pipeline_span(name: &str) -> &'static str {
    match name {
        "mst" => "pipeline.mst",
        _ => "pipeline.bfs",
    }
}
