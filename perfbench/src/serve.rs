//! The `serve-file` workload: an in-process `smartsage-serve` server
//! (`Engine::new` + `Server::start` with the `serve` defaults: file
//! tiers, 4,096 nodes, a 1,024-page cache the ~235-page dataset fits
//! in, a 2 ms coalescing window, fan-outs 25,10) under an open loop.
//!
//! Load: two keep-alive connections; requests alternate `/v1/infer` and
//! `/v1/sample`, four targets each, and step through a fixed rate
//! ladder. Latency is timed from each request's *due* time, so a stall
//! charges every request queued behind it. Every response body must
//! equal a mem-tier `Engine::execute` of the same request.

use crate::metrics::{step_metric, EngineDelta, Outcome, SERVE_RATES};
use crate::stats::{backlog_grows, process_cpu, quiet_rounds, schedule, Shot, StealMeter, Summary};
use crate::trace::{self, Span, Tracer};
use crate::{Args, RunRoot};
use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
use smartsage_graph::FeatureTable;
use smartsage_hostio::ReadEngine;
use smartsage_serve::api::{ApiRequest, SampleRequest};
use smartsage_serve::batcher::{BatchPolicy, BatchTiming};
use smartsage_serve::client::HttpClient;
use smartsage_serve::engine::{DatasetConfig, Engine, EngineConfig, EngineCounters};
use smartsage_serve::http::{HttpOptions, Server};
use smartsage_sim::Xoshiro256;
use smartsage_store::{FileStoreOptions, StoreKind, StoreRegistry, StoreStats, TopologyKind};
use std::time::{Duration, Instant};

/// Targets per request.
const TARGETS: usize = 4;
/// Keep-alive client connections (one generator thread each).
const CONNECTIONS: usize = 2;
/// Warm-up requests before the ladder (fills the page cache).
const WARMUP: usize = 200;
/// Warm-up rate, requests per second.
const WARMUP_RATE: u32 = 400;
/// Requests per rate in one round; 200 samples support a p95 tail per
/// round.
const ROUND_STEP_REQUESTS: usize = 200;
/// Fewest rounds of each kind in a run.
const MIN_ROUNDS: usize = 2;
/// The rate of the untraced run's rounds. On a 2-core host the higher
/// ladder steps queue whenever a neighbour slows the machine: across
/// runs their median latency moved by 13% (200 req/s), 25% (400 req/s)
/// and 140% (800 req/s), against 11% at 100 req/s. The traced run
/// reports every step.
const LATENCY_RATE: u32 = SERVE_RATES[0];
/// Latency limit on the tail for a step to count as within the SLO.
const SLO: Duration = Duration::from_millis(10);
/// Set-ups per run; `setup_s` is their median. One takes ~10 ms.
const SETUP_REPS: usize = 41;

fn engine_config(seed: u64, store: StoreKind, topology: TopologyKind) -> EngineConfig {
    EngineConfig {
        dataset: DatasetConfig {
            graph_seed: seed,
            feature_seed: seed.rotate_left(32) ^ 7,
            ..DatasetConfig::default()
        },
        store,
        topology,
        ..EngineConfig::default()
    }
}

/// One generated request.
struct Request {
    infer: bool,
    body: String,
}

impl Request {
    fn path(&self) -> &'static str {
        if self.infer {
            "/v1/infer"
        } else {
            "/v1/sample"
        }
    }

    fn api(&self) -> Result<ApiRequest, String> {
        let parsed = SampleRequest::parse(&self.body).map_err(|e| e.to_string())?;
        Ok(if self.infer {
            ApiRequest::Infer(parsed)
        } else {
            ApiRequest::Sample(parsed)
        })
    }
}

/// `count` requests over a `nodes` population, derived from `seed`.
fn make_requests(seed: u64, count: usize, nodes: usize) -> Vec<Request> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5E7E_5EED);
    (0..count)
        .map(|i| {
            let ids: Vec<String> = (0..TARGETS)
                .map(|_| rng.range_usize(nodes).to_string())
                .collect();
            Request {
                infer: i % 2 == 0,
                body: format!("{{\"nodes\":[{}],\"seed\":{i}}}", ids.join(",")),
            }
        })
        .collect()
}

/// Counters read at a ladder-step boundary.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    timing: BatchTiming,
    counters: EngineCounters,
    store: StoreStats,
    topology: StoreStats,
    engine: smartsage_hostio::EngineStats,
}

fn snapshot(server: &Server) -> Snapshot {
    let engine = server.engine();
    let guard = engine.lock().unwrap_or_else(|p| p.into_inner());
    Snapshot {
        timing: server.batch_timing(),
        counters: guard.counters(),
        store: guard.store_stats(),
        topology: guard.topology_stats(),
        engine: ReadEngine::global().stats(),
    }
}

fn host_bytes(s: &Snapshot) -> u64 {
    s.store.host_bytes_transferred + s.topology.host_bytes_transferred
}

/// One load step's outcome.
struct Step {
    /// Shots in due order.
    shots: Vec<Shot>,
    failed: u64,
    rejected: u64,
    parse_ns: u64,
    spans: Vec<Vec<Span>>,
    /// Process CPU time over the step, generator included.
    cpu: Duration,
    before: Snapshot,
    after: Snapshot,
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.shots
            .iter()
            .map(|s| s.latency().as_secs_f64() * 1e3)
            .collect()
    }
}

/// Sends `requests` open-loop at `rate` over the client connections
/// (request `j` on connection `j % CONNECTIONS`) and checks every
/// response against `expected`.
fn load_step(
    server: &Server,
    clients: &mut [HttpClient],
    requests: &[Request],
    expected: &[String],
    rate: u32,
    traced: bool,
) -> Result<Step, String> {
    let due = schedule(f64::from(rate), requests.len());
    let before = snapshot(server);
    let cpu = process_cpu()?;
    let start = Instant::now() + Duration::from_millis(1);
    type Lane = (Vec<(usize, Shot)>, u64, u64, u64, Vec<Span>);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let due = &due;
                scope.spawn(move || {
                    let tracer = if traced {
                        Tracer::enabled()
                    } else {
                        Tracer::disabled()
                    };
                    let (mut shots, mut failed, mut rejected, mut parse_ns) =
                        (Vec::new(), 0u64, 0u64, 0u64);
                    for j in (lane..requests.len()).step_by(CONNECTIONS) {
                        let due_at = start + due[j];
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let span = tracer.span("serve.request", j as u64);
                        if traced {
                            let parse_start = Instant::now();
                            let _parse = tracer.span("serve.api.parse", j as u64);
                            let _ = std::hint::black_box(SampleRequest::parse(&requests[j].body));
                            parse_ns += parse_start.elapsed().as_nanos() as u64;
                        }
                        let sent = Instant::now();
                        let response =
                            client.request("POST", requests[j].path(), Some(&requests[j].body));
                        let done = Instant::now();
                        drop(span);
                        match response {
                            Ok((200, body)) if body == expected[j] => {}
                            Ok((429, _)) => {
                                rejected += 1;
                                failed += 1;
                            }
                            _ => failed += 1,
                        }
                        shots.push((
                            j,
                            Shot {
                                due: due[j],
                                sent: sent.saturating_duration_since(start),
                                done: done.saturating_duration_since(start),
                            },
                        ));
                    }
                    (shots, failed, rejected, parse_ns, tracer.take())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| (Vec::new(), requests.len() as u64, 0, 0, Vec::new()))
            })
            .collect()
    });
    let cpu = process_cpu()? - cpu;
    let after = snapshot(server);
    let mut shots: Vec<(usize, Shot)> = Vec::new();
    let mut step = Step {
        shots: Vec::new(),
        failed: 0,
        rejected: 0,
        parse_ns: 0,
        spans: Vec::new(),
        cpu,
        before,
        after,
    };
    for (lane_shots, failed, rejected, parse_ns, spans) in lanes {
        shots.extend(lane_shots);
        step.failed += failed;
        step.rejected += rejected;
        step.parse_ns += parse_ns;
        step.spans.push(spans);
    }
    shots.sort_by_key(|&(j, _)| j);
    step.shots = shots.into_iter().map(|(_, s)| s).collect();
    Ok(step)
}

/// The generator side of a run: the connections, the request stream,
/// and the mem-tier engine every response is checked against.
struct Load<'a> {
    server: &'a Server,
    clients: Vec<HttpClient>,
    requests: Vec<Request>,
    next: usize,
    reference: Engine,
    /// Index of a request whose expected response is corrupted.
    corrupt: Option<usize>,
}

impl Load<'_> {
    /// Sends the next `n` requests at `rate` as one load step. Their
    /// expected responses are computed first, outside the step.
    fn step(&mut self, n: usize, rate: u32, traced: bool) -> Result<Step, String> {
        let range = self.next..self.next + n;
        self.next += n;
        let requests = &self.requests[range.clone()];
        let mut expected = Vec::with_capacity(n);
        for (i, r) in range.zip(requests) {
            let mut body = match self.reference.execute(&[r.api()?]).pop() {
                Some(Ok(body)) => body,
                Some(Err(e)) => return Err(format!("mem reference rejected {}: {e}", r.body)),
                None => return Err("mem reference returned no response".to_string()),
            };
            if self.corrupt == Some(i) {
                body.push(' ');
            }
            expected.push(body);
        }
        load_step(
            self.server,
            &mut self.clients,
            requests,
            &expected,
            rate,
            traced,
        )
    }

    /// Runs `count` rounds: every one of `rates` in turn,
    /// [`ROUND_STEP_REQUESTS`] requests each. Returns the rounds and the
    /// share of CPU time the hypervisor stole during each.
    fn rounds(
        &mut self,
        count: usize,
        rates: &[u32],
        traced: bool,
        out: &mut Outcome,
    ) -> Result<(Vec<Vec<Step>>, Vec<f64>), String> {
        let (mut rounds, mut steal) = (Vec::new(), Vec::new());
        for _ in 0..count {
            let meter = StealMeter::start();
            let round = rates
                .iter()
                .map(|&rate| {
                    let step = self.step(ROUND_STEP_REQUESTS, rate, traced)?;
                    out.count(ROUND_STEP_REQUESTS as u64, step.failed);
                    Ok(step)
                })
                .collect::<Result<Vec<Step>, String>>()?;
            steal.push(meter.share());
            rounds.push(round);
        }
        Ok((rounds, steal))
    }
}

/// Per-rate summaries over rounds: the median across rounds of each
/// round's median and tail, so one disturbed round does not move them.
struct RateSummary {
    rate: u32,
    p25_ms: f64,
    p50_ms: f64,
    tail_ms: f64,
    /// Samples per round and the tail percentile they support.
    per_round: Summary,
    rounds: usize,
    /// Median over rounds of completions per second from the first due
    /// time to the last response.
    achieved_rps: f64,
    /// Nothing failed in any round, and the backlog grew in fewer than
    /// half of them.
    clean: bool,
    /// Median generator lateness over all rounds.
    late_p50_ms: f64,
}

fn median(v: &[f64]) -> f64 {
    Summary::of(v).map_or(0.0, |s| s.median)
}

/// Summarizes `rounds` (each one step per rate of `rates`) per rate.
fn summarize(rates: &[u32], rounds: &[&[Step]]) -> Vec<RateSummary> {
    (0..rates.len())
        .map(|i| {
            let steps: Vec<&Step> = rounds.iter().map(|r| &r[i]).collect();
            let per: Vec<Summary> = steps
                .iter()
                .filter_map(|s| Summary::of(&s.latencies_ms()))
                .collect();
            let achieved: Vec<f64> = steps
                .iter()
                .map(|s| {
                    let end = s.shots.iter().map(|x| x.done).max().unwrap_or_default();
                    s.shots.len() as f64 / end.as_secs_f64().max(f64::MIN_POSITIVE)
                })
                .collect();
            RateSummary {
                rate: rates[i],
                p25_ms: median(&per.iter().map(|s| s.p25).collect::<Vec<_>>()),
                p50_ms: median(&per.iter().map(|s| s.median).collect::<Vec<_>>()),
                tail_ms: median(&per.iter().map(Summary::tail_value).collect::<Vec<_>>()),
                per_round: per[0],
                rounds: per.len(),
                achieved_rps: median(&achieved),
                clean: steps.iter().all(|s| s.failed == 0)
                    && 2 * steps.iter().filter(|s| backlog_grows(&s.shots)).count() < steps.len(),
                late_p50_ms: median(
                    &steps
                        .iter()
                        .flat_map(|s| s.shots.iter().map(|x| x.lateness().as_secs_f64() * 1e3))
                        .collect::<Vec<_>>(),
                ),
            }
        })
        .collect()
}

impl RateSummary {
    fn within_slo(&self) -> bool {
        self.clean && self.tail_ms <= SLO.as_secs_f64() * 1e3
    }

    /// Records the lower quartile as `name`; the median and the tail go
    /// into the printed note.
    fn record_p25(&self, out: &mut Outcome, name: &str) {
        let what = format!(
            "from due time at {} req/s, median over {} rounds chosen by steal, n={} each; \
             p50={:.3}, p{:.1}={:.3} (medians of rounds)",
            self.rate,
            self.rounds,
            self.per_round.n,
            self.p50_ms,
            self.per_round.tail.map_or(50.0, |(pct, _)| pct),
            self.tail_ms
        );
        out.set_noted(name, self.p25_ms, what);
    }
}

/// The highest ladder rate within the SLO, 0 when none is.
fn max_rps_in_slo(summaries: &[RateSummary]) -> f64 {
    summaries
        .iter()
        .filter(|s| s.within_slo())
        .map(|s| f64::from(s.rate))
        .fold(0.0, f64::max)
}

/// A running server plus the set-up timings of every rep.
struct Served {
    server: Server,
    setup_s: Vec<f64>,
}

/// Set-up, [`SETUP_REPS`] times, each into a fresh empty directory:
/// `Engine::new` (materialize, publish, open the tiers) and
/// `Server::start`. The last rep's server is kept.
fn start_server(seed: u64, root: &mut RunRoot) -> Result<Served, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        // Stop the previous rep's server before its directory goes.
        drop(server.take());
        root.fresh_dir(&format!("serve-{rep}"))
            .map_err(|e| format!("creating a set-up directory: {e}"))?;
        let start = Instant::now();
        let engine = Engine::new(engine_config(seed, StoreKind::File, TopologyKind::File))
            .map_err(|e| format!("engine: {e}"))?;
        let started = Server::start(
            engine,
            BatchPolicy::default(),
            HttpOptions::default(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("server: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(started);
    }
    Ok(Served {
        server: server.ok_or("no set-up ran")?,
        setup_s,
    })
}

/// The set-up's two layers timed on their own, in fresh directories:
/// the dataset materialization `Engine::new` performs and the registry
/// publish of both store files.
fn time_setup_layers(seed: u64, root: &mut RunRoot, out: &mut Outcome) -> Result<(), String> {
    let config = engine_config(seed, StoreKind::File, TopologyKind::File);
    let d = &config.dataset;
    let opts = FileStoreOptions {
        page_bytes: config.page_bytes,
        cache_pages: config.cache_pages,
    };
    let (mut materialize, mut publish) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        root.fresh_dir(&format!("layers-{rep}"))
            .map_err(|e| format!("creating a set-up directory: {e}"))?;
        let start = Instant::now();
        let graph = generate_power_law(&PowerLawConfig {
            nodes: d.nodes,
            avg_degree: d.avg_degree,
            seed: d.graph_seed,
            ..PowerLawConfig::default()
        });
        let table = FeatureTable::new(d.feature_dim, d.classes, d.feature_seed);
        let materialized = start.elapsed();
        let registry = StoreRegistry::new();
        registry
            .open_feature_table(&table, d.nodes, opts)
            .and_then(|_| registry.open_graph_csr(&graph, opts))
            .map_err(|e| format!("publishing: {e}"))?;
        materialize.push(materialized.as_secs_f64() * 1e3);
        publish.push((start.elapsed() - materialized).as_secs_f64() * 1e3);
    }
    out.set("graph.materialize_ms", median(&materialize));
    out.set("store.registry.publish_ms", median(&publish));
    Ok(())
}

/// Runs the `serve-file` workload into `out`.
pub fn run(args: &Args, root: &mut RunRoot, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        time_setup_layers(args.seed, root, out)?;
    }
    let served = start_server(args.seed, root)?;
    let server = &served.server;
    // The untraced run spends its budget at the latency rate; the traced
    // run walks the whole ladder, half the budget untraced and half
    // traced. The round count follows from the budget alone, so a seed's
    // request stream is the same on every run.
    let rates: &[u32] = if args.trace {
        &SERVE_RATES
    } else {
        &[LATENCY_RATE]
    };
    let round_s: f64 = rates
        .iter()
        .map(|&r| ROUND_STEP_REQUESTS as f64 / f64::from(r))
        .sum();
    let fit = |seconds: f64| ((seconds / round_s) as usize).max(MIN_ROUNDS);
    let (untraced_rounds, traced_rounds) = if args.trace {
        (fit(args.seconds / 2.0), fit(args.seconds / 2.0))
    } else {
        (fit(args.seconds), 0)
    };
    let total = WARMUP + (untraced_rounds + traced_rounds) * rates.len() * ROUND_STEP_REQUESTS;
    let mut load = Load {
        server,
        clients: (0..CONNECTIONS)
            .map(|_| HttpClient::connect(server.addr()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connecting: {e}"))?,
        requests: make_requests(args.seed, total, DatasetConfig::default().nodes),
        next: 0,
        reference: Engine::new(engine_config(args.seed, StoreKind::Mem, TopologyKind::Mem))
            .map_err(|e| format!("mem reference engine: {e}"))?,
        corrupt: args.inject_mismatch.then_some(WARMUP),
    };
    let warm = load.step(WARMUP, WARMUP_RATE, false)?;
    out.count(WARMUP as u64, warm.failed);
    let (untraced, steal) = load.rounds(untraced_rounds, rates, false, out)?;
    eprintln!("steal share per round: {steal:.3?}");
    let quiet: Vec<&[Step]> = quiet_rounds(&steal)
        .into_iter()
        .map(|i| untraced[i].as_slice())
        .collect();
    let summaries = summarize(rates, &quiet);
    for s in &summaries {
        eprintln!(
            "{} req/s: p25 {:.3} ms, p50 {:.3} ms, tail {:.3} ms ({} rounds of {}), generator late p50 {:.3} ms, \
             {:.1} req/s achieved, within SLO: {}",
            s.rate,
            s.p25_ms,
            s.p50_ms,
            s.tail_ms,
            s.rounds,
            s.per_round.describe(),
            s.late_p50_ms,
            s.achieved_rps,
            s.within_slo()
        );
    }
    if args.trace {
        let (traced, _) = load.rounds(traced_rounds, rates, true, out)?;
        out.set("serve.ladder.max_rps_in_slo", max_rps_in_slo(&summaries));
        for s in &summaries {
            out.set(&step_metric(s.rate, "lat.p50_ms"), s.p50_ms);
        }
        record_layers(args, &untraced, &traced, out)?;
    } else {
        out.set_noted(
            "setup_s",
            median(&served.setup_s),
            format!("median of n={}", served.setup_s.len()),
        );
        let steps: Vec<&Step> = quiet.iter().flat_map(|r| r.iter()).collect();
        let requests: usize = steps.iter().map(|s| s.shots.len()).sum();
        let cpu: Duration = steps.iter().map(|s| s.cpu).sum();
        out.set_noted(
            "cpu_ms_per_op",
            cpu.as_secs_f64() * 1e3 / requests.max(1) as f64,
            format!(
                "process CPU per request, server and generator, over the {requests} requests \
                 of the rounds chosen by steal"
            ),
        );
        let end = snapshot(server);
        out.set_noted(
            "host_bytes_per_op",
            host_bytes(&end) as f64 / end.counters.requests.max(1) as f64,
            format!("per request over {} requests, exact", end.counters.requests),
        );
        summaries[0].record_p25(out, "lat.p25_ms");
    }
    drop(load);
    served.server.shutdown();
    Ok(())
}

fn mean_ms<I: Iterator<Item = Duration>>(it: I) -> f64 {
    let (sum, n) = it.fold((0.0, 0u64), |(s, n), d| (s + d.as_secs_f64() * 1e3, n + 1));
    sum / n.max(1) as f64
}

/// Per-layer metrics of the traced rounds, checked against the
/// untraced rounds that ran just before them.
fn record_layers(
    args: &Args,
    untraced: &[Vec<Step>],
    traced: &[Vec<Step>],
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut accounted_ms, mut client_ms) = (0.0, 0.0);
    let mut counters_match = true;
    for (i, &rate) in SERVE_RATES.iter().enumerate() {
        let (mut requests, mut batches, mut window_ms, mut service_ms) = (0u64, 0u64, 0.0, 0.0);
        let (mut engine_requests, mut coalesced, mut late_ms) = (0u64, 0u64, 0.0f64);
        let mut shots: Vec<Shot> = Vec::new();
        for step in traced.iter().map(|r| &r[i]) {
            let (b, a) = (&step.before, &step.after);
            requests += a.timing.requests - b.timing.requests;
            batches += a.timing.batches - b.timing.batches;
            window_ms += (a.timing.window_wait - b.timing.window_wait).as_secs_f64() * 1e3;
            service_ms += (a.timing.service - b.timing.service).as_secs_f64() * 1e3;
            let answered = a.counters.requests - b.counters.requests;
            engine_requests += answered;
            coalesced += a.counters.coalesced_requests - b.counters.coalesced_requests;
            let served = step.shots.len() as u64 - step.rejected;
            counters_match &= a.timing.requests - b.timing.requests == served && answered == served;
            late_ms = step
                .shots
                .iter()
                .map(|s| s.lateness().as_secs_f64() * 1e3)
                .fold(late_ms, f64::max);
            accounted_ms += step.parse_ns as f64 / 1e6;
            client_ms += step.parse_ns as f64 / 1e6;
            shots.extend_from_slice(&step.shots);
        }
        let per_req = requests.max(1) as f64;
        let client = mean_ms(shots.iter().map(Shot::service));
        out.set(
            &step_metric(rate, "batcher.window_wait_ms"),
            window_ms / per_req,
        );
        out.set(
            &step_metric(rate, "batcher.service_ms"),
            service_ms / per_req,
        );
        out.set(
            &step_metric(rate, "batcher.reqs_per_batch"),
            per_req / batches.max(1) as f64,
        );
        out.set(
            &step_metric(rate, "engine.coalesced_frac"),
            coalesced as f64 / engine_requests.max(1) as f64,
        );
        out.set(
            &step_metric(rate, "http.overhead_ms"),
            client - (window_ms + service_ms) / per_req,
        );
        out.set(&step_metric(rate, "gen.max_late_ms"), late_ms);
        accounted_ms += window_ms + service_ms;
        client_ms += client * shots.len() as f64;
    }
    let steps: Vec<&Step> = traced.iter().flatten().collect();
    let requests: u64 = steps.iter().map(|s| s.shots.len() as u64).sum();
    let per_req = requests.max(1) as f64;
    // Rounds run back to back, so the first step's opening snapshot and
    // the last step's closing one bracket all traced traffic.
    let (first, last) = (&steps[0].before, &steps[steps.len() - 1].after);
    let hit_rate = |a: &StoreStats, b: &StoreStats| {
        let hits = a.page_hits - b.page_hits;
        let misses = a.page_misses - b.page_misses;
        hits as f64 / (hits + misses).max(1) as f64
    };
    out.set("serve.store.hit_rate", hit_rate(&last.store, &first.store));
    out.set(
        "serve.topology.hit_rate",
        hit_rate(&last.topology, &first.topology),
    );
    out.set(
        "serve.host_bytes_per_req",
        (host_bytes(last) - host_bytes(first)) as f64 / per_req,
    );
    out.set(
        "serve.batcher.rejected",
        steps.iter().map(|s| s.rejected).sum::<u64>() as f64,
    );
    out.set(
        "serve.api.parse_us",
        steps.iter().map(|s| s.parse_ns).sum::<u64>() as f64 / 1e3 / per_req,
    );
    EngineDelta::between(&first.engine, &last.engine).record(out, per_req);
    out.set(
        "trace.coverage",
        accounted_ms / client_ms.max(f64::MIN_POSITIVE),
    );
    let median_latency = |rounds: &[Vec<Step>]| {
        let service: Vec<f64> = rounds
            .iter()
            .flatten()
            .flat_map(|s| s.shots.iter().map(|x| x.service().as_secs_f64()))
            .collect();
        median(&service)
    };
    out.set(
        "trace.overhead_frac",
        median_latency(traced) / median_latency(untraced) - 1.0,
    );
    out.set("trace.counters_match", f64::from(u8::from(counters_match)));
    out.notes.insert(
        "trace.coverage".into(),
        format!("server-accounted share of client time over {requests} requests"),
    );
    let logs: Vec<Vec<Span>> = steps.iter().flat_map(|s| s.spans.clone()).collect();
    trace::write_spans(&crate::span_path(args), &logs).map_err(|e| format!("writing spans: {e}"))
}
