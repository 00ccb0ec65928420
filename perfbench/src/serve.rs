//! `serve-mix`: an in-process `ncc_serve::Server` on loopback TCP with 2
//! workers, driven by a closed loop of 2 clients — each sends its next
//! request only after reading the reply to the previous one.
//!
//! The mix is the six verified algorithms at n = 64: six hot MST specs and
//! two hot specs of each other algorithm.
//! Every fourth round of the mix carries fresh seeds (cache miss, cold
//! build); the rest repeat hot specs (cache hit, resident engine replay).
//! MST costs about ten times the other five, so p95 is set by MST and p50
//! by the light requests. Every response must be byte-identical to the
//! response line built from a cold in-process run of the same spec.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ncc_model::ExecStats;
use ncc_runner::{
    find_algorithm, spec_hash, FamilySpec, RunRecord, Scenario, ScenarioSpec, Verdict,
};
use ncc_serve::{
    parse_request, BuildCache, Coordinator, EngineSlots, Request, Response, ServeConfig, Server,
};

use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::trace::{ClockSink, RoundClock, Tracer};
use crate::{allocs, derive, Args, EndToEnd, Layers, Outcome, Sizes, Tally};

/// Closed-loop clients; also the number of workers (the core count).
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

/// The six verified algorithms, in mix order.
const MIX: [&str; 6] = ["mst", "bfs", "mis", "coloring", "matching", "orientation"];

/// Hot specs per algorithm, in mix order. MST sets the latency tail and
/// its rounds vary by a third from graph to graph, so it has more hot
/// specs: the tail then reflects many graphs rather than one or two.
const HOT: [usize; 6] = [6, 2, 2, 2, 2, 2];

/// One round of the mix in this many carries fresh seeds.
const MISS_EVERY: usize = 4;

/// Requests after which the (miss, hot variant) pattern repeats: 8 rounds
/// hold 6 hot rounds, a multiple of every `HOT` entry. `run_s` is the wall
/// time of one such cycle.
const CYCLE: usize = MIX.len() * 8;

/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Request ids of the warm-up phase start here.
const WARM_ID: u64 = 1 << 40;

fn family(slot: usize, n: usize) -> FamilySpec {
    match slot {
        0 => FamilySpec::Gnp { p: 16.0 / n as f64 },
        1 => FamilySpec::Forests { k: 3 },
        2 => FamilySpec::Tree,
        3 => FamilySpec::Ba { m: 3 },
        4 => FamilySpec::Gnp { p: 12.0 / n as f64 },
        _ => FamilySpec::Forests { k: 2 },
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub algo: &'static str,
    pub spec: ScenarioSpec,
    /// Index into the hot set, `None` for a fresh-seed (miss) request.
    pub hot: Option<usize>,
}

impl Req {
    fn line(&self, id: u64) -> String {
        let mut line = serde_json::to_string(&Request::Run {
            id,
            algorithm: self.algo.into(),
            spec: self.spec.clone(),
        })
        .expect("request serializes");
        line.push('\n');
        line
    }
}

/// Index of the first hot spec of mix slot `slot`.
fn hot_base(slot: usize) -> usize {
    HOT[..slot].iter().sum()
}

fn hot_req(seed: u64, n: usize, slot: usize, h: usize) -> Req {
    Req {
        algo: MIX[slot],
        spec: ScenarioSpec::new(family(slot, n), n, derive(seed, 0x5e0 + h as u64)),
        hot: Some(h),
    }
}

/// The hot set: `HOT[slot]` specs per algorithm, slot-major.
pub fn hot_set(seed: u64, n: usize) -> Vec<Req> {
    (0..MIX.len())
        .flat_map(|slot| (0..HOT[slot]).map(move |v| (slot, hot_base(slot) + v)))
        .map(|(slot, h)| hot_req(seed, n, slot, h))
        .collect()
}

/// Request `i` of the measured phase.
pub fn request(seed: u64, n: usize, i: usize) -> Req {
    let (slot, round) = (i % MIX.len(), i / MIX.len());
    if round % MISS_EVERY == MISS_EVERY - 1 {
        return Req {
            algo: MIX[slot],
            spec: ScenarioSpec::new(family(slot, n), n, derive(seed, (1 << 32) + i as u64)),
            hot: None,
        };
    }
    let variant = (round - round / MISS_EVERY) % HOT[slot];
    hot_req(seed, n, slot, hot_base(slot) + variant)
}

/// One request a client saw through.
struct Obs {
    idx: usize,
    request: String,
    start: Instant,
    end: Instant,
    response: String,
}

impl Obs {
    fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Closed-loop load: `CLIENTS` connections, each taking the next request
/// index when its previous reply has arrived, until `make` runs out or
/// the deadline passes. Joins every client before returning.
fn load(
    addr: SocketAddr,
    make: &(dyn Fn(usize) -> Option<String> + Sync),
    deadline: Option<Instant>,
) -> Result<Vec<Obs>, String> {
    let next = AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<Obs>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(addr, make, &next, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut all = Vec::new();
    for obs in per_client {
        all.extend(obs?);
    }
    all.sort_by_key(|o| o.idx);
    Ok(all)
}

fn client(
    addr: SocketAddr,
    make: &(dyn Fn(usize) -> Option<String> + Sync),
    next: &AtomicUsize,
    deadline: Option<Instant>,
) -> Result<Vec<Obs>, String> {
    let io = |e: std::io::Error| format!("client io: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut out = Vec::new();
    while deadline.is_none_or(|d| Instant::now() < d) {
        let idx = next.fetch_add(1, Ordering::SeqCst);
        let Some(request) = make(idx) else { break };
        let start = Instant::now();
        stream.write_all(request.as_bytes()).map_err(io)?;
        let mut response = String::new();
        if reader.read_line(&mut response).map_err(io)? == 0 {
            return Err("server closed the connection".into());
        }
        let end = Instant::now();
        out.push(Obs {
            idx,
            request,
            start,
            end,
            response,
        });
    }
    Ok(out)
}

/// Costs of the cold in-process runs that the responses are checked
/// against, measured at the same layer boundaries as `dag-rmat`.
#[derive(Default)]
struct Cold {
    gen: Vec<f64>,
    edges: usize,
    weights: Vec<f64>,
    engine: Vec<f64>,
    run_secs: f64,
    allocs: u64,
    totals: ExecStats,
    slots: f64,
    resident: Vec<f64>,
}

/// A cold build and run of `req`, as `ncc_runner::run_record` does it.
fn cold(
    req: &Req,
    cold: &mut Cold,
    tr: &mut Tracer,
    id: u64,
    clock: Option<&Rc<RefCell<RoundClock>>>,
) -> Result<RunRecord, String> {
    let algo = find_algorithm(req.algo).ok_or_else(|| format!("no algorithm {}", req.algo))?;
    let h = tr.begin("graph.build_graph", id);
    let graph = req.spec.build_graph().map_err(|e| e.to_string())?;
    cold.gen.push(tr.end(h));
    cold.edges += graph.m();
    let scn = Scenario::from_graph(req.spec.clone(), graph);
    if req.algo == "mst" {
        let h = tr.begin("graph.weighted", id);
        scn.weighted();
        cold.weights.push(tr.end(h));
    }
    let h = tr.begin("runner.engine", id);
    let mut eng = scn.engine_with_threads(req.spec.threads);
    cold.engine.push(tr.end(h));
    if let Some(c) = clock {
        eng.set_sink(Box::new(ClockSink(c.clone())));
        c.borrow_mut().mark();
    }
    let a0 = allocs();
    let h = tr.begin("runner.algorithm_run", id);
    let rec = algo.run(&mut eng, &scn);
    cold.run_secs += tr.end(h);
    cold.allocs += allocs() - a0;
    if let Some(c) = clock {
        c.borrow_mut().stop();
    }
    cold.totals.merge(&eng.total);
    cold.slots += (eng.total.rounds * eng.n() as u64) as f64 * eng.config().capacity.send as f64;
    cold.resident.push(eng.resident_bytes().per_node(eng.n()));
    rec.map_err(|e| e.to_string())
}

/// Checks one response line against the reference record; returns the
/// served record when the line is byte-identical to the expected one.
fn check(obs: &Obs, id: u64, req: &Req, reference: &RunRecord) -> Option<(RunRecord, bool)> {
    let line = obs.response.trim_end();
    let Ok(Response::Record {
        cache_hit, record, ..
    }) = Response::from_line(line)
    else {
        return None;
    };
    let expected = Response::Record {
        id,
        cache_hit,
        spec_hash: spec_hash(&req.spec).to_string(),
        record: reference.clone(),
    }
    .to_line();
    (expected == line && record.verdict == Verdict::Verified).then_some((record, cache_hit))
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let n = sizes.serve_n;
    let seed = args.seed;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0);
    let cfg = ServeConfig::with_thread_budget(WORKERS);
    let hot = hot_set(seed, n);

    let mut hot_cold = Cold::default();
    let hot_refs = hot
        .iter()
        .enumerate()
        .map(|(h, r)| cold(r, &mut hot_cold, &mut tr, WARM_ID + h as u64, None))
        .collect::<Result<Vec<_>, _>>()?;

    // Set-up: start the daemon and warm every hot spec through it.
    let warm = |i: usize| hot.get(i).map(|r| r.line(WARM_ID + i as u64));
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            s.shutdown_and_join();
        }
        let t = Instant::now();
        let s = Server::spawn(cfg, "127.0.0.1:0")
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let obs = load(s.addr(), &warm, None)?;
        setups.push(t.elapsed().as_secs_f64());
        for o in &obs {
            let ok = check(o, WARM_ID + o.idx as u64, &hot[o.idx], &hot_refs[o.idx]).is_some();
            tally.check(ok, format!("warm-up response {}", o.response.trim_end()));
        }
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    // Measured phase: the closed loop for `--seconds`.
    let before = server.coordinator().stats();
    let a0 = allocs();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let make = |i: usize| Some(request(seed, n, i).line(i as u64));
    let obs = load(server.addr(), &make, Some(deadline))?;
    let load_allocs = allocs() - a0;
    let after = server.coordinator().stats();
    server.shutdown_and_join();
    let elapsed = obs
        .iter()
        .map(|o| o.end.duration_since(start).as_secs_f64())
        .fold(0.0, f64::max);

    // References for the fresh-seed requests, built after the clock stops.
    let clock = args.trace.then(RoundClock::shared);
    let mut miss_cold = Cold::default();
    let (mut served, mut delivered, mut rounds, mut sent) = (0usize, 0u64, 0u64, 0u64);
    let mut misses = Vec::new();
    let mut checked: Vec<Option<String>> = Vec::with_capacity(obs.len());
    for o in &obs {
        let req = request(seed, n, o.idx);
        let reference = match req.hot {
            Some(h) => Ok(hot_refs[h].clone()),
            None => {
                misses.push(req.spec.clone());
                cold(&req, &mut miss_cold, &mut tr, o.idx as u64, clock.as_ref())
            }
        };
        let ok = reference
            .ok()
            .and_then(|r| check(o, o.idx as u64, &req, &r));
        tally.check(ok.is_some(), format!("response {}", o.response.trim_end()));
        checked.push(ok.as_ref().map(|(rec, _)| rec.to_json()));
        if let Some((rec, _)) = ok {
            served += 1;
            delivered += rec.sent - rec.dropped;
            rounds += rec.rounds;
            sent += rec.sent;
        }
    }
    let lat_ms: Vec<f64> = obs.iter().map(Obs::ms).collect();
    let mut notes = vec![format!(
        "serve-mix: closed loop, {CLIENTS} clients (one request in flight each), {WORKERS} workers, \
         n={n}; {} requests in {elapsed:.2} s, {} with fresh seeds, {} beyond p95",
        obs.len(),
        misses.len(),
        obs.len() / 20
    )];

    if !args.trace {
        let e2e = EndToEnd {
            setup_s: median(&setups),
            run_s: ratio(elapsed * CYCLE as f64, obs.len() as f64),
            msgs_per_s: ratio(delivered as f64, elapsed),
            rounds: ratio(rounds as f64, served as f64),
            msgs: ratio(sent as f64, served as f64),
            allocs_per_msg: ratio(load_allocs as f64, delivered as f64),
            peak_rss_mb: peak_rss_mb(),
            req_per_s: ratio(obs.len() as f64, elapsed),
            req_p50_ms: median(&lat_ms),
            req_p95_ms: percentile(&lat_ms, 95.0),
        };
        return Ok(Outcome {
            tally,
            metrics: e2e.metrics(),
            notes,
        });
    }

    // Traced: the same request lines through `Coordinator::handle_line` in
    // process, after warming the same hot specs.
    let coord = Coordinator::new(cfg);
    let mut slots = EngineSlots::new(cfg.cache_capacity.clamp(1, 16));
    for (i, r) in hot.iter().enumerate() {
        coord.handle_line(&r.line(WARM_ID + i as u64), &mut slots);
    }
    let mut service_ms = Vec::new();
    let mut wait_ms = Vec::new();
    for (o, want) in obs.iter().zip(&checked) {
        // The in-process call is recorded as the request's child although
        // it ran later, so the request span's self time is its wait.
        let client = tr.record("client.request", o.idx as u64, None, o.start, o.end);
        let s = Instant::now();
        let resp = coord.handle_line(&o.request, &mut slots);
        let e = Instant::now();
        tr.record("serve.handle_line", o.idx as u64, Some(client), s, e);
        let ms = e.duration_since(s).as_secs_f64() * 1e3;
        let same = match resp {
            Some(Response::Record { record, .. }) => want.as_ref() == Some(&record.to_json()),
            _ => false,
        };
        tally.check(same, format!("in-process replay of request {}", o.idx));
        service_ms.push(ms);
        wait_ms.push(o.ms() - ms);
    }
    let cache = BuildCache::new(cfg.cache_capacity);
    let mut build_ms = Vec::new();
    for (i, spec) in misses.iter().enumerate() {
        let h = tr.begin("serve.get_or_build", i as u64);
        let built = cache.get_or_build(spec);
        build_ms.push(tr.end(h) * 1e3);
        tally.check(
            built.is_ok_and(|(_, hit)| !hit),
            format!("cold build of {}", spec.label()),
        );
    }
    let codec_start = Instant::now();
    for o in &obs {
        let req = parse_request(o.request.trim_end());
        let resp = Response::from_line(o.response.trim_end()).map(|r| r.to_line());
        let ok = req.is_ok() && resp.is_ok_and(|l| l == o.response.trim_end());
        tally.check(ok, format!("codec round trip of request {}", o.idx));
    }
    let codec_us = ratio(codec_start.elapsed().as_secs_f64() * 1e6, obs.len() as f64);

    // The tracing overhead: the hot references again, with a round clock.
    let clock = clock.expect("traced run has a clock");
    let mut hot_traced = Cold::default();
    for (h, r) in hot.iter().enumerate() {
        let rec = cold(
            r,
            &mut hot_traced,
            &mut tr,
            WARM_ID + h as u64,
            Some(&clock),
        );
        let ok = rec.is_ok_and(|rec| rec.to_json() == hot_refs[h].to_json());
        tally.check(ok, format!("traced reference of {}", r.spec.label()));
    }
    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;
    let gaps = &clock.borrow().gaps_us;
    let t = &miss_cold.totals;
    let layers = Layers {
        graph_gen_s: median(&miss_cold.gen),
        graph_gen_edges_per_s: ratio(miss_cold.edges as f64, miss_cold.gen.iter().sum()),
        graph_weights_s: median(&miss_cold.weights),
        runner_engine_s: median(&miss_cold.engine),
        model_resident_bytes_per_node: median(&miss_cold.resident),
        model_round_us_p50: percentile(gaps, 50.0),
        model_round_us_p95: percentile(gaps, 95.0),
        model_ns_per_msg: ratio(miss_cold.run_secs * 1e9, t.delivered as f64),
        model_allocs_per_node_round: ratio(miss_cold.allocs as f64, t.node_rounds as f64),
        model_active_frac: ratio(t.node_rounds as f64, (t.rounds * n as u64) as f64),
        model_cap_util: ratio(t.sent as f64, miss_cold.slots),
        model_lost: t.lost() as f64,
        serve_service_ms_p50: percentile(&service_ms, 50.0),
        serve_service_ms_p95: percentile(&service_ms, 95.0),
        serve_wait_ms_p95: percentile(&wait_ms, 95.0),
        serve_build_ms_p50: median(&build_ms),
        serve_cache_hit_frac: ratio(hits as f64, lookups as f64),
        serve_engine_reuse_frac: ratio(
            (after.engine_reuses - before.engine_reuses) as f64,
            (after.served - before.served) as f64,
        ),
        serve_codec_us: codec_us,
        trace_overhead_frac: ratio(hot_traced.run_secs, hot_cold.run_secs) - 1.0,
        ..Layers::default()
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_repeats_every_cycle_with_a_quarter_fresh() {
        let hot = hot_set(3, 64);
        assert_eq!(hot.len(), HOT.iter().sum::<usize>());
        let reqs: Vec<Req> = (0..2 * CYCLE).map(|i| request(3, 64, i)).collect();
        let fresh: Vec<u64> = reqs
            .iter()
            .filter(|r| r.hot.is_none())
            .map(|r| r.spec.seed)
            .collect();
        assert_eq!(fresh.len() * MISS_EVERY, reqs.len());
        let mut distinct = fresh.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), fresh.len(), "fresh seeds never repeat");
        for i in 0..CYCLE {
            assert_eq!(reqs[i].hot, reqs[i + CYCLE].hot, "request {i}");
        }
        for (h, want) in hot.iter().enumerate() {
            let got = reqs
                .iter()
                .find(|r| r.hot == Some(h))
                .expect("every hot spec is requested");
            assert_eq!((got.algo, &got.spec), (want.algo, &want.spec));
        }
    }
}
