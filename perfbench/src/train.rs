//! The `train-file` and `train-isp` workloads: the fig7-style training
//! pipeline (`run_pipeline`, `train: true`, one producer worker) over a
//! dataset whose graph file is about twice the pipeline's page cache.
//!
//! Untraced runs report:
//! - CPU time per batch of `run_pipeline` passes (median over passes);
//! - SSD→host bytes per batch (feature + topology tiers; exact);
//! - per-batch latency of a *replay* — the benchmark's own loop issuing
//!   `run_pipeline`'s call sequence per batch (plan, price, resolve,
//!   gather): its lower quartile, with the median and tail printed.
//!
//! The traced run wraps the replay's layer calls in spans and the store
//! tiers in tracing decorators. Its topology and feature counters must
//! equal an untraced `run_pipeline` pass exactly (`trace.counters_match`).

use crate::metrics::{EngineDelta, Outcome};
use crate::stats::{process_cpu, quiet_rounds, StealMeter, Summary};
use crate::trace::{self, Span, TracedFeatures, TracedTopology, Tracer};
use crate::{Args, RunRoot};
use smartsage_core::config::{SystemConfig, SystemKind};
use smartsage_core::context::{Devices, RunContext};
use smartsage_core::cost::{make_policy, trace_of_plan, CostPolicy, StepOutcome};
use smartsage_core::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use smartsage_core::store_metrics::{install_scope, SweepScope};
use smartsage_core::{StoreKind, TopologyKind};
use smartsage_gnn::sampler::{epoch_targets, plan_sample_on};
use smartsage_gnn::{Fanouts, SamplePlan};
use smartsage_graph::{Dataset, DatasetProfile, GraphScale, NodeId};
use smartsage_hostio::ReadEngine;
use smartsage_sim::{SimTime, Xoshiro256};
use smartsage_store::{
    FeatureStore, FileStoreOptions, FileTopology, InMemoryStore, IspGatherOptions, IspGatherStore,
    IspSampleTopology, SharedCsrFile, SharedFileStore, StoreError, StoreHandle, StoreRegistry,
    StoreStats, TopologyStore,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edge budget of the materialized Amazon large-scale profile: about
/// 28k nodes, a ~2,000-page graph file against [`CACHE_PAGES`].
const EDGE_BUDGET: u64 = 1_000_000;
/// Batches per pipeline pass and per replay pass. Passes are short so
/// that a run holds many and their median shrugs off a slow spell of
/// the host; the cache still fills within the first two batches (a cold
/// batch misses on ~1,100 topology pages).
const BATCHES: usize = 40;
/// Targets per batch.
const BATCH_SIZE: usize = 96;
/// Page-cache capacity of the pipeline's file-backed tiers (its fixed
/// 4 MiB budget); the replay opens its tiers with the same geometry.
const CACHE_PAGES: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fewest measurement rounds in a run.
const MIN_ROUNDS: usize = 3;

/// The tier pair and design point of a train workload.
#[derive(Debug, Clone, Copy)]
pub struct Tiers {
    kind: SystemKind,
    store: StoreKind,
    topology: TopologyKind,
}

impl Tiers {
    /// File tiers priced as the mmap host path.
    pub const FILE: Tiers = Tiers {
        kind: SystemKind::SsdMmap,
        store: StoreKind::File,
        topology: TopologyKind::File,
    };
    /// In-storage tiers priced as SmartSAGE (HW/SW).
    pub const ISP: Tiers = Tiers {
        kind: SystemKind::SmartSageHwSw,
        store: StoreKind::Isp,
        topology: TopologyKind::Isp,
    };
}

fn pipeline_config(tiers: Tiers, seed: u64) -> PipelineConfig {
    PipelineConfig {
        workers: 1,
        total_batches: BATCHES,
        batch_size: BATCH_SIZE,
        fanouts: Fanouts::new(vec![25, 10]),
        train: true,
        store: tiers.store,
        topology: tiers.topology,
        seed,
        readahead: false,
        shards: 1,
        ..PipelineConfig::default()
    }
}

fn store_options() -> FileStoreOptions {
    FileStoreOptions {
        cache_pages: CACHE_PAGES,
        ..FileStoreOptions::default()
    }
}

type Stores = (Box<dyn FeatureStore + Send>, Box<dyn TopologyStore + Send>);

/// Scoped tier handles over shared files, built the way `run_pipeline`
/// builds an unsharded run's tiers.
fn tier_handles(tiers: Tiers, features: Arc<SharedFileStore>, graph: Arc<SharedCsrFile>) -> Stores {
    let store: Box<dyn FeatureStore + Send> = match tiers.store {
        StoreKind::Isp => Box::new(IspGatherStore::over(features, IspGatherOptions::default())),
        _ => Box::new(StoreHandle::new(features)),
    };
    let topology: Box<dyn TopologyStore + Send> = match tiers.topology {
        TopologyKind::Isp => Box::new(IspSampleTopology::over(graph, IspGatherOptions::default())),
        _ => Box::new(FileTopology::new(graph)),
    };
    (store, topology)
}

type SharedFiles = (Arc<SharedFileStore>, Arc<SharedCsrFile>);

/// Opens (publishing first if missing) both dataset files through
/// `registry`.
fn open_files(registry: &StoreRegistry, ctx: &RunContext) -> Result<SharedFiles, StoreError> {
    let features = registry.open_feature_table(
        &ctx.data.features,
        ctx.graph().num_nodes(),
        store_options(),
    )?;
    let graph = registry.open_graph_csr(ctx.graph(), store_options())?;
    Ok((features, graph))
}

/// Cold tiers on a fresh registry over the already-published files.
fn cold_stores(tiers: Tiers, ctx: &RunContext) -> Result<Stores, String> {
    let (features, graph) = open_files(&StoreRegistry::new(), ctx).map_err(|e| e.to_string())?;
    Ok(tier_handles(tiers, features, graph))
}

struct Prepared {
    ctx: Arc<RunContext>,
    setup_s: Vec<f64>,
    materialize_ms: Vec<f64>,
    publish_ms: Vec<f64>,
}

/// Set-up, [`SETUP_REPS`] times, each into a fresh empty directory:
/// materialize the dataset, publish both store files, open the tiers.
fn prepare(tiers: Tiers, seed: u64, root: &mut RunRoot) -> Result<Prepared, String> {
    let mut setup_s = Vec::new();
    let mut materialize_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut ctx = None;
    for rep in 0..SETUP_REPS {
        root.fresh_dir(&format!("setup-{rep}"))
            .map_err(|e| format!("creating a set-up directory: {e}"))?;
        let start = Instant::now();
        let data = DatasetProfile::of(Dataset::Amazon).materialize(
            GraphScale::LargeScale,
            EDGE_BUDGET,
            seed,
        );
        let run_ctx = Arc::new(RunContext::new(data, SystemConfig::new(tiers.kind)));
        let materialized = start.elapsed();
        let files = open_files(&StoreRegistry::new(), &run_ctx).map_err(|e| e.to_string())?;
        let published = start.elapsed();
        let stores = tier_handles(tiers, files.0, files.1);
        let total = start.elapsed();
        drop(stores);
        setup_s.push(total.as_secs_f64());
        materialize_ms.push(ms(materialized));
        publish_ms.push(ms(published - materialized));
        ctx = Some(run_ctx);
    }
    Ok(Prepared {
        ctx: ctx.ok_or("no set-up ran")?,
        setup_s,
        materialize_ms,
        publish_ms,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Wall and process CPU time of one pipeline pass.
#[derive(Debug, Clone, Copy)]
struct PassTime {
    wall: Duration,
    cpu: Duration,
}

/// One untraced `run_pipeline` pass on cold caches (a fresh sweep
/// scope, so a fresh registry over the published files).
fn pipeline_pass(
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
) -> Result<(PassTime, PipelineReport), String> {
    let _scope = install_scope(SweepScope::new());
    let cpu = process_cpu()?;
    let start = Instant::now();
    let report = run_pipeline(ctx, cfg);
    let wall = start.elapsed();
    let cpu = process_cpu()? - cpu;
    Ok((PassTime { wall, cpu }, report))
}

/// A [`pipeline_pass`] whose batches count as failed unless its I/O
/// repeats `first`'s exactly (`first` is set by the first pass).
/// Read-ahead is off, so a pass's I/O is a pure function of its plan
/// sequence.
fn checked_pipeline_pass(
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
    first: &mut Option<PipelineReport>,
    out: &mut Outcome,
) -> Result<PassTime, String> {
    let (time, report) = pipeline_pass(ctx, cfg)?;
    let repeated = first
        .as_ref()
        .is_none_or(|f| exact_counts(f) == exact_counts(&report));
    let batches = report.batches as u64;
    out.count(batches, if repeated { 0 } else { batches });
    first.get_or_insert(report);
    Ok(time)
}

/// Runs `round` until `budget` is spent, at least [`MIN_ROUNDS`] times,
/// stopping before a round that would overrun it. Returns the share of
/// CPU time the hypervisor stole during each round.
fn for_rounds(
    budget: Duration,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut last = Duration::ZERO;
    let mut steal = Vec::new();
    while steal.len() < MIN_ROUNDS || started.elapsed() + last <= budget {
        let (round_start, meter) = (Instant::now(), StealMeter::start());
        round(steal.len())?;
        last = round_start.elapsed();
        steal.push(meter.share());
    }
    Ok(steal)
}

/// Everything in a report that must repeat exactly from pass to pass.
fn exact_counts(r: &PipelineReport) -> (StoreStats, StoreStats, String) {
    (
        r.store_stats,
        r.topology_stats,
        format!("{:?} {:?} {:?}", r.makespan, r.transfers, r.breakdown),
    )
}

/// Access-level counters: what callers asked of a store, identical on
/// every tier.
fn access(s: &StoreStats) -> (u64, u64, u64) {
    (s.gathers, s.nodes_gathered, s.feature_bytes)
}

/// The report's modeled fields and access counters equal a mem-tier run
/// of the same design point.
fn matches_mem_run(tiered: &PipelineReport, mem: &PipelineReport) -> bool {
    tiered.kind == mem.kind
        && tiered.makespan == mem.makespan
        && tiered.batches == mem.batches
        && tiered.breakdown == mem.breakdown
        && tiered.gpu_busy == mem.gpu_busy
        && tiered.gpu_idle_frac == mem.gpu_idle_frac
        && tiered.transfers == mem.transfers
        && tiered.avg_sampling_time == mem.avg_sampling_time
        && tiered.sampling_throughput == mem.sampling_throughput
        && access(&tiered.store_stats) == access(&mem.store_stats)
        && access(&tiered.topology_stats) == access(&mem.topology_stats)
}

/// Runs the mem-tier reference pipeline and compares `tiered` to it.
fn check_modeled_fields(
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
    tiered: &PipelineReport,
) -> Result<bool, String> {
    let mem_cfg = PipelineConfig {
        store: StoreKind::Mem,
        topology: TopologyKind::Mem,
        ..cfg.clone()
    };
    let (_, mem) = pipeline_pass(ctx, &mem_cfg)?;
    Ok(matches_mem_run(tiered, &mem))
}

/// Host bytes per batch: SSD→host bytes of both tiers.
fn host_bytes_per_batch(r: &PipelineReport) -> f64 {
    (r.store_stats.host_bytes_transferred + r.topology_stats.host_bytes_transferred) as f64
        / r.batches.max(1) as f64
}

/// The cost layer of one trainer: its policy, device models and the
/// virtual time its next batch begins at.
struct Pricer {
    policy: Box<dyn CostPolicy>,
    devices: Devices,
    at: SimTime,
}

impl Pricer {
    fn new(ctx: &Arc<RunContext>) -> Pricer {
        Pricer {
            policy: make_policy(ctx, 1),
            devices: Devices::new(&ctx.config),
            at: SimTime::ZERO,
        }
    }

    /// Prices `plan` as worker 0 (`trace_of_plan` + `CostPolicy::{begin,
    /// step, take_result}`); returns the number of steps taken.
    fn price(&mut self, ctx: &RunContext, plan: &SamplePlan) -> u64 {
        self.policy
            .begin(0, self.at, trace_of_plan(plan, ctx.graph()));
        let mut now = self.at;
        let mut steps = 1u64;
        while let StepOutcome::Running { next } = self.policy.step(0, &mut self.devices, now) {
            now = next.max(now);
            steps += 1;
        }
        self.at = self.policy.take_result(0).done;
        steps
    }
}

/// One trainer's replay state.
struct Trainer<'a> {
    ctx: &'a Arc<RunContext>,
    cfg: &'a PipelineConfig,
    stores: Stores,
    pricer: Pricer,
    reference: InMemoryStore,
    tracer: Tracer,
}

/// What one replayed batch produced.
struct Stepped {
    latency: Duration,
    sampled: u64,
    steps: u64,
    nodes: Vec<NodeId>,
    data: Vec<f32>,
}

impl<'a> Trainer<'a> {
    fn new(
        ctx: &'a Arc<RunContext>,
        cfg: &'a PipelineConfig,
        stores: Stores,
        tracer: Tracer,
    ) -> Self {
        Trainer {
            ctx,
            cfg,
            stores,
            pricer: Pricer::new(ctx),
            reference: InMemoryStore::new(ctx.data.features.clone(), ctx.graph().num_nodes()),
            tracer,
        }
    }

    /// Replays batch `index` with `run_pipeline`'s call sequence, then
    /// checks its features against the in-memory store (untimed).
    /// Returns the batch and whether its features were correct.
    fn batch(&mut self, index: usize, corrupt: bool) -> Result<(Stepped, bool), StoreError> {
        let tracer = self.tracer.clone();
        let (store, topology) = (&mut self.stores.0, &mut self.stores.1);
        let mut out = if tracer.is_enabled() {
            let mut topo = TracedTopology {
                inner: topology.as_mut(),
                tracer: tracer.clone(),
            };
            let mut feat = TracedFeatures {
                inner: store.as_mut(),
                tracer: tracer.clone(),
            };
            step_batch(
                self.ctx,
                self.cfg,
                index,
                &mut topo,
                &mut feat,
                &mut self.pricer,
                &tracer,
            )?
        } else {
            step_batch(
                self.ctx,
                self.cfg,
                index,
                topology.as_mut(),
                store.as_mut(),
                &mut self.pricer,
                &tracer,
            )?
        };
        if corrupt {
            if let Some(v) = out.data.first_mut() {
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
        let expected = self.reference.gather(&out.nodes)?;
        let correct = expected.len() == out.data.len()
            && expected
                .iter()
                .zip(&out.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        Ok((out, correct))
    }
}

/// `run_pipeline`'s per-batch sequence at `workers: 1`: draw the plan
/// through the topology tier, price its trace on the cost policy,
/// resolve it through the topology tier, gather its nodes' features.
fn step_batch(
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
    index: usize,
    topology: &mut dyn TopologyStore,
    store: &mut dyn FeatureStore,
    pricer: &mut Pricer,
    tracer: &Tracer,
) -> Result<Stepped, StoreError> {
    let op = index as u64;
    let start = Instant::now();
    let batch_span = tracer.span("train.batch", op);
    let plan = {
        let _span = tracer.span("gnn.plan", op);
        let graph = ctx.graph();
        let targets = epoch_targets(graph.num_nodes(), cfg.batch_size, index, cfg.seed);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37));
        plan_sample_on(topology, &targets, &cfg.fanouts, &mut rng)?
    };
    let steps = {
        let _span = tracer.span("core.cost", op);
        pricer.price(ctx, &plan)
    };
    let (batch, nodes) = {
        let _span = tracer.span("gnn.resolve", op);
        let batch = plan.resolve_on(topology)?;
        let nodes = batch.all_nodes();
        (batch, nodes)
    };
    let data = store.gather(&nodes)?;
    drop(batch_span);
    Ok(Stepped {
        latency: start.elapsed(),
        sampled: batch.num_sampled(),
        steps,
        nodes,
        data,
    })
}

/// What a replay pass measured.
#[derive(Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    failed: u64,
    sampled: u64,
    steps: u64,
    topology: StoreStats,
    features: StoreStats,
    spans: Vec<Span>,
    engine: EngineDelta,
}

impl Pass {
    fn wall_ms(&self) -> f64 {
        self.latencies_ms.iter().sum()
    }
}

/// One-trainer replay of every batch of a pass, on cold tiers.
fn replay_pass(
    tiers: Tiers,
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
    tracer: Tracer,
    inject: bool,
) -> Result<Pass, String> {
    let engine_before = ReadEngine::global().stats();
    let mut trainer = Trainer::new(ctx, cfg, cold_stores(tiers, ctx)?, tracer);
    let mut pass = Pass::default();
    for index in 0..cfg.total_batches {
        let (out, correct) = trainer
            .batch(index, inject && index == 0)
            .map_err(|e| format!("replay batch {index}: {e}"))?;
        pass.latencies_ms.push(ms(out.latency));
        pass.failed += u64::from(!correct);
        pass.sampled += out.sampled;
        pass.steps += out.steps;
    }
    pass.topology = trainer.stores.1.stats();
    pass.features = trainer.stores.0.stats();
    pass.spans = trainer.tracer.take();
    pass.engine = EngineDelta::between(&engine_before, &ReadEngine::global().stats());
    Ok(pass)
}

/// Runs one train workload into `out`.
pub fn run(tiers: Tiers, args: &Args, root: &mut RunRoot, out: &mut Outcome) -> Result<(), String> {
    let prepared = prepare(tiers, args.seed, root)?;
    let ctx = &prepared.ctx;
    let cfg = pipeline_config(tiers, args.seed);
    if args.trace {
        return traced(tiers, args, &prepared, &cfg, out);
    }
    out.set_noted(
        "setup_s",
        median(&prepared.setup_s),
        format!("median of n={}", prepared.setup_s.len()),
    );

    // Rounds of one pipeline pass and one replay pass, until the budget
    // is spent: a slow spell on the host then touches both metrics a
    // little instead of one metric entirely, and each is taken over
    // many rounds.
    let (mut passes, mut lat) = (Vec::new(), Vec::new());
    let mut first: Option<PipelineReport> = None;
    let steal = for_rounds(Duration::from_secs_f64(args.seconds), |round| {
        passes.push(checked_pipeline_pass(ctx, &cfg, &mut first, out)?);
        let inject = args.inject_mismatch && round == 0;
        let pass = replay_pass(tiers, ctx, &cfg, Tracer::disabled(), inject)?;
        out.count(pass.latencies_ms.len() as u64, pass.failed);
        lat.push(pass.latencies_ms);
        Ok(())
    })?;
    let first = first.ok_or("no pipeline pass ran")?;
    let per_batch = |d: Duration| ms(d) / cfg.total_batches as f64;
    let rates: Vec<f64> = passes.iter().map(|p| 1e3 / per_batch(p.wall)).collect();
    let cpu: Vec<f64> = passes.iter().map(|p| per_batch(p.cpu)).collect();
    eprintln!(
        "pipeline passes, batches/s: {rates:.2?}; CPU ms per batch: {cpu:.2?}; \
         steal share per round: {steal:.3?}"
    );
    if !check_modeled_fields(ctx, &cfg, &first)? {
        eprintln!("modeled fields differ from the mem-tier run");
        out.count(0, first.batches as u64);
    }
    let keep = quiet_rounds(&steal);
    let rounds = format!("{} of {} rounds by steal", keep.len(), steal.len());
    // CPU time is read in 10 ms ticks, so it is summed over the kept
    // passes rather than taken per pass.
    let kept_cpu: Duration = keep.iter().map(|&i| passes[i].cpu).sum();
    let kept_rates: Vec<f64> = keep.iter().map(|&i| rates[i]).collect();
    out.set_noted(
        "cpu_ms_per_op",
        ms(kept_cpu) / (keep.len() * cfg.total_batches) as f64,
        format!(
            "process CPU per batch over {rounds}, one {BATCHES}-batch pass each; \
             wall {:.2} batches/s (median)",
            median(&kept_rates)
        ),
    );
    out.set_noted(
        "host_bytes_per_op",
        host_bytes_per_batch(&first),
        "per batch, exact".to_string(),
    );
    let pooled: Vec<f64> = keep.iter().flat_map(|&i| lat[i].iter().copied()).collect();
    let s = Summary::of(&pooled).ok_or("no replay latency samples")?;
    out.set_noted(
        "lat.p25_ms",
        s.p25,
        format!("per replayed batch, {rounds}, {}", s.describe()),
    );
    Ok(())
}

/// The traced run: per-layer means per batch from traced replay passes,
/// checked against untraced pipeline and replay passes.
fn traced(
    tiers: Tiers,
    args: &Args,
    prepared: &Prepared,
    cfg: &PipelineConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctx = &prepared.ctx;
    out.set("graph.materialize_ms", median(&prepared.materialize_ms));
    out.set("store.registry.publish_ms", median(&prepared.publish_ms));

    // Rounds of an untraced pipeline pass, an untraced replay pass and
    // a traced replay pass, until the budget is spent.
    let (mut pipeline_ms, mut untraced_ms, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<PipelineReport> = None;
    for_rounds(Duration::from_secs_f64(args.seconds), |round| {
        pipeline_ms.push(ms(
            checked_pipeline_pass(ctx, cfg, &mut reference, out)?.wall
        ));
        let pass = replay_pass(tiers, ctx, cfg, Tracer::disabled(), false)?;
        out.count(pass.latencies_ms.len() as u64, pass.failed);
        untraced_ms.push(pass.wall_ms());
        let inject = args.inject_mismatch && round == 0;
        let pass = replay_pass(tiers, ctx, cfg, Tracer::enabled(), inject)?;
        out.count(pass.latencies_ms.len() as u64, pass.failed);
        passes.push(pass);
        Ok(())
    })?;
    let reference = reference.ok_or("no pipeline pass ran")?;
    if !check_modeled_fields(ctx, cfg, &reference)? {
        eprintln!("modeled fields differ from the mem-tier run");
        out.count(0, reference.batches as u64);
    }
    let batches = (passes.len() * cfg.total_batches) as f64;
    let logs: Vec<Vec<Span>> = passes.iter().map(|p| p.spans.clone()).collect();
    let all_spans: Vec<Span> = logs.iter().flatten().cloned().collect();
    let mut totals = std::collections::BTreeMap::new();
    for log in &logs {
        for (name, t) in trace::totals(log) {
            let e: &mut trace::SpanTotals = totals.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
    }
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_batch_ms = |ns: u64| ns as f64 / 1e6 / batches;
    let topo_ns = get("store.topology.degrees").total_ns + get("store.topology.picks").total_ns;
    let topo_calls = get("store.topology.degrees").count + get("store.topology.picks").count;
    let layers = [
        "gnn.plan",
        "core.cost",
        "gnn.resolve",
        "store.feature.gather",
    ];
    let layer_ns: u64 = layers.iter().map(|l| get(l).total_ns).sum();
    let traced_ns = get("train.batch").total_ns;

    out.set("gnn.plan.self_ms", per_batch_ms(get("gnn.plan").self_ns));
    out.set(
        "gnn.resolve.self_ms",
        per_batch_ms(get("gnn.resolve").self_ns),
    );
    out.set(
        "gnn.sampled_nodes",
        passes.iter().map(|p| p.sampled).sum::<u64>() as f64 / batches,
    );
    out.set("store.topology.ms", per_batch_ms(topo_ns));
    out.set("store.topology.calls", topo_calls as f64 / batches);
    out.set(
        "store.feature.ms",
        per_batch_ms(get("store.feature.gather").total_ns),
    );
    out.set("core.cost.ms", per_batch_ms(get("core.cost").total_ns));
    out.set(
        "core.cost.steps",
        passes.iter().map(|p| p.steps).sum::<u64>() as f64 / batches,
    );
    let pipeline_per_batch = median(&pipeline_ms) / cfg.total_batches as f64;
    out.set("core.pipeline.batches_per_s", 1e3 / pipeline_per_batch);
    out.set(
        "core.pipeline.unattributed_ms",
        pipeline_per_batch - per_batch_ms(layer_ns),
    );

    // Store counters: every pass starts cold, so each pass's counters
    // describe one pass; report the first pass's per batch.
    let first = &passes[0];
    let per = cfg.total_batches as f64;
    let t = &first.topology;
    out.set("store.topology.pages_read", t.pages_read as f64 / per);
    out.set("store.topology.hit_rate", t.hit_rate());
    out.set(
        "store.topology.read_amplification",
        t.bytes_read as f64 / t.feature_bytes.max(1) as f64,
    );
    out.set(
        "store.topology.host_bytes",
        t.host_bytes_transferred as f64 / per,
    );
    out.set(
        "store.topology.device_bytes",
        t.device_bytes_read as f64 / per,
    );
    let f = &first.features;
    out.set("store.feature.pages_read", f.pages_read as f64 / per);
    out.set("store.feature.hit_rate", f.hit_rate());
    out.set(
        "store.feature.host_bytes",
        f.host_bytes_transferred as f64 / per,
    );
    out.set(
        "store.feature.device_bytes",
        f.device_bytes_read as f64 / per,
    );
    let mut engine = EngineDelta::default();
    for p in &passes {
        engine.add(&p.engine);
    }
    engine.record(out, batches);

    let traced_ms = median(&passes.iter().map(Pass::wall_ms).collect::<Vec<_>>());
    out.set("trace.coverage", layer_ns as f64 / traced_ns.max(1) as f64);
    out.set(
        "trace.overhead_frac",
        traced_ms / median(&untraced_ms) - 1.0,
    );
    // The replay must reproduce the pipeline's I/O exactly; a mismatch
    // is reported, not failed, so a pipeline change that breaks the
    // replay does not block it.
    let counters_match = passes
        .iter()
        .all(|p| p.topology == reference.topology_stats && p.features == reference.store_stats);
    if !counters_match {
        eprintln!(
            "replay counters differ from run_pipeline:\n  topology {:?}\n  vs       {:?}\n  features {:?}\n  vs       {:?}",
            first.topology, reference.topology_stats, first.features, reference.store_stats
        );
    }
    out.set("trace.counters_match", f64::from(u8::from(counters_match)));
    out.notes.insert(
        "trace.coverage".into(),
        format!("{} spans over {batches} batches", all_spans.len()),
    );
    trace::write_spans(&crate::span_path(args), &logs)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(())
}
