//! `flood-1m`: R-MAT at n = 10⁶ built with 2 generation and engine
//! threads, then repeated `broadcast` replays on the resident engine with
//! `Engine::reset` between them.
//!
//! Set-up generates and CSR-builds about 7.7 M edges; each replay is a few
//! wide rounds of up to 10⁶ messages through the raw engine and router,
//! with no mux. Every replay must deliver n−1 messages, lose none, and
//! report the same `ExecStats` as every other replay.

use std::time::Instant;

use ncc_baselines::broadcast_all;
use ncc_model::{Engine, ExecStats};
use ncc_runner::{FamilySpec, Scenario, ScenarioSpec};

use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::trace::{ClockSink, RoundClock, Tracer};
use crate::{allocs, derive, Args, EndToEnd, Layers, Outcome, Sizes, Tally};

/// Generation and engine threads (the machine's core count).
const THREADS: usize = 2;

/// Scenario builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub fn spec(seed: u64, n: usize) -> ScenarioSpec {
    ScenarioSpec::new(FamilySpec::Rmat { edge_factor: 8 }, n, derive(seed, 0xf1d))
        .with_threads(THREADS)
}

/// Timed replays of the broadcast on one resident engine.
#[derive(Default)]
struct Replays {
    secs: Vec<f64>,
    allocs: u64,
    totals: ExecStats,
}

/// Replays until `seconds` have passed (at least once), checking each
/// replay against `expect`.
fn replay_for(
    eng: &mut Engine,
    value: u64,
    expect: &ExecStats,
    seconds: f64,
    tally: &mut Tally,
) -> Replays {
    let mut out = Replays::default();
    let start = Instant::now();
    while out.secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        eng.reset();
        let a0 = allocs();
        let t = Instant::now();
        let res = broadcast_all(eng, value);
        out.secs.push(t.elapsed().as_secs_f64());
        out.allocs += allocs() - a0;
        match res {
            Ok(stats) => {
                tally.check(stats == *expect, format!("replay stats {stats:?}"));
                out.totals.merge(&stats);
            }
            Err(e) => tally.check(false, format!("replay: {e}")),
        }
    }
    out
}

/// The first replay: fills the engine's recycled buffers, and fixes the
/// statistics every later replay must repeat.
fn first_replay(eng: &mut Engine, value: u64, n: usize, tally: &mut Tally) -> ExecStats {
    let stats = broadcast_all(eng, value).unwrap_or_default();
    let ok = stats.delivered == n as u64 - 1 && stats.lost() == 0 && stats.rounds > 0;
    tally.check(ok, format!("first replay stats {stats:?}"));
    stats
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let n = sizes.flood_n;
    let spec = spec(args.seed, n);
    let value = spec.seed ^ 42;
    let mut tr = Tracer::default();

    // Traced runs first time the same generation on one thread.
    let gen1 = if args.trace {
        let h = tr.begin("graph.build_graph.1t", 0);
        let g = spec
            .clone()
            .with_threads(1)
            .build_graph()
            .map_err(|e| e.to_string())?;
        let secs = tr.end(h);
        drop(g);
        secs
    } else {
        0.0
    };

    let (mut setups, mut gens, mut engs) = (Vec::new(), Vec::new(), Vec::new());
    let mut built: Option<(Scenario, Engine)> = None;
    for i in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let h = tr.begin("graph.build_graph", i as u64);
        let graph = spec.build_graph().map_err(|e| e.to_string())?;
        gens.push(tr.end(h));
        let scn = Scenario::from_graph(spec.clone(), graph);
        let h = tr.begin("runner.engine", i as u64);
        let eng = scn.engine_with_threads(THREADS);
        engs.push(tr.end(h));
        setups.push(t.elapsed().as_secs_f64());
        built = Some((scn, eng));
    }
    let (scn, mut eng) = built.expect("at least one set-up");
    let expect = first_replay(&mut eng, value, n, &mut tally);

    if !args.trace {
        let r = replay_for(&mut eng, value, &expect, args.seconds, &mut tally);
        let run_total: f64 = r.secs.iter().sum();
        let ms: Vec<f64> = r.secs.iter().map(|s| s * 1e3).collect();
        let e2e = EndToEnd {
            setup_s: median(&setups),
            run_s: median(&r.secs),
            msgs_per_s: ratio(r.totals.delivered as f64, run_total),
            rounds: expect.rounds as f64,
            msgs: expect.sent as f64,
            allocs_per_msg: ratio(r.allocs as f64, r.totals.delivered as f64),
            peak_rss_mb: peak_rss_mb(),
            req_per_s: ratio(r.secs.len() as f64, run_total),
            req_p50_ms: median(&ms),
            req_p95_ms: percentile(&ms, 95.0),
        };
        return Ok(Outcome {
            tally,
            metrics: e2e.metrics(),
            notes: vec![format!(
                "flood-1m: R-MAT n={n}, m={}, {} replays of broadcast on {THREADS} engine threads",
                scn.graph.m(),
                r.secs.len()
            )],
        });
    }

    // Traced: half the time untraced (the cost reference), half with a
    // round clock installed.
    let half = args.seconds / 2.0;
    let plain = replay_for(&mut eng, value, &expect, half, &mut tally);
    let clock = RoundClock::shared();
    eng.set_sink(Box::new(ClockSink(clock.clone())));
    let mut traced = Replays::default();
    let start = Instant::now();
    while traced.secs.is_empty() || start.elapsed().as_secs_f64() < half {
        eng.reset();
        let h = tr.begin("baselines.broadcast_all", traced.secs.len() as u64);
        clock.borrow_mut().mark();
        let res = broadcast_all(&mut eng, value);
        clock.borrow_mut().stop();
        traced.secs.push(tr.end(h));
        tally.check(res.is_ok_and(|s| s == expect), "traced replay stats");
    }
    drop(eng.take_sink());
    let gaps = &clock.borrow().gaps_us;
    let t = &plain.totals;
    let cap = scn.spec.capacity.send as f64;
    let layers = Layers {
        graph_gen_s: median(&gens),
        graph_gen_edges_per_s: ratio(scn.graph.m() as f64, median(&gens)),
        graph_gen_speedup: ratio(gen1, median(&gens)),
        runner_engine_s: median(&engs),
        model_resident_bytes_per_node: eng.resident_bytes().per_node(n),
        model_round_us_p50: percentile(gaps, 50.0),
        model_round_us_p95: percentile(gaps, 95.0),
        model_ns_per_msg: ratio(plain.secs.iter().sum::<f64>() * 1e9, t.delivered as f64),
        model_allocs_per_node_round: ratio(plain.allocs as f64, t.node_rounds as f64),
        model_active_frac: ratio(t.node_rounds as f64, (t.rounds * n as u64) as f64),
        model_cap_util: ratio(t.sent as f64, (t.rounds * n as u64) as f64 * cap),
        model_lost: t.lost() as f64,
        trace_overhead_frac: ratio(median(&traced.secs), median(&plain.secs)) - 1.0,
        ..Layers::default()
    };
    let mut notes = vec![format!(
        "flood-1m traced: generation {gen1:.3} s on 1 thread vs {:.3} s on {THREADS}; \
         {} untraced and {} traced replays",
        median(&gens),
        plain.secs.len(),
        traced.secs.len()
    )];
    notes.extend(tr.self_time_notes());
    let path = tr
        .write(&args.workload, args.seed)
        .map_err(|e| format!("cannot write spans: {e}"))?;
    notes.push(format!("spans: {path}"));
    Ok(Outcome {
        tally,
        metrics: layers.metrics(),
        notes,
    })
}
