//! Batch workloads (`generate`, `budget_flood`, `fleet`): one run of the
//! same public calls, in the same order and with the same `Config`, that
//! `sixgen generate` makes, timed from outside each call.

use crate::inputs::{sizes, Inputs};
use crate::json::Obj;
use crate::util::{dir_bytes, files_equal, peak_rss_mb, Tracer};
use sixgen::addr::{NybbleAddr, Prefix};
use sixgen::core::{
    resume_sharded_with, run_sharded_with, CheckpointWriter, ClusterMode, Config, EngineCheckpoint,
    Session, ShardSpec, ShardedCheckpoint, SixGen, Step, Termination,
};
use sixgen::datasets::io::{read_hitlist_file, write_hitlist_file};
use sixgen::obs::MetricsRegistry;
use sixgen::routing::PrefixTable;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The CLI's default `--rng-seed`.
pub const RNG_SEED: u64 = 0x6CE4;

/// The `Config` `sixgen generate` builds from `--budget` alone.
pub fn cli_config(budget: u64, metrics: Option<Arc<MetricsRegistry>>) -> Config {
    Config {
        budget,
        mode: ClusterMode::Loose,
        threads: 0,
        rng_seed: RNG_SEED,
        time_limit: None,
        metrics,
        ..Config::default()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Steps a session to termination, recording one span per step.
fn step_to_end(session: &mut Session, tracer: &mut Tracer) -> Result<(), String> {
    loop {
        let id = tracer.enter("engine.step");
        let step = session.step();
        tracer.exit(id);
        match step {
            Step::Grew => {}
            Step::NeedsBudget => return Err("session parked outside a fleet".into()),
            Step::Done(_) => return Ok(()),
        }
    }
}

/// Checks every batch output must pass, beyond byte identity.
fn check_targets(
    targets: &[NybbleAddr],
    termination_exhausted: bool,
    budget: u64,
    errors: &mut Vec<String>,
) {
    if termination_exhausted && targets.len() as u64 != budget {
        errors.push(format!(
            "budget exhausted but {} targets for budget {budget}",
            targets.len()
        ));
    }
    let mut sorted = targets.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        errors.push("duplicate targets".into());
    }
}

fn check_same(out: &Path, reference: &Path, what: &str, errors: &mut Vec<String>) {
    match files_equal(out, reference) {
        Ok(true) => {}
        Ok(false) => errors.push(format!("{what} differs from `sixgen generate`")),
        Err(e) => errors.push(e),
    }
}

/// Check failures of an iteration's two operations.
#[derive(Debug, Default)]
struct Errors {
    main: Vec<String>,
    resume: Vec<String>,
}

/// What one batch iteration works on and records.
struct Iteration<'a> {
    inputs: &'a Inputs,
    dir: &'a Path,
    work: &'a Path,
    reference: &'a Path,
    tracer: Tracer,
    registry: Option<Arc<MetricsRegistry>>,
    report: Obj,
    layers: Obj,
    errors: Errors,
}

/// One batch iteration of the workload in `dir`: the main run, its
/// checks, then one resume from a mid-run checkpoint. Returns the JSON
/// report line.
pub fn run(
    inputs: &Inputs,
    dir: &Path,
    work: &Path,
    reference: &Path,
    traced: bool,
) -> Result<String, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut it = Iteration {
        inputs,
        dir,
        work,
        reference,
        tracer: Tracer::new(traced, inputs.seed),
        registry: traced.then(MetricsRegistry::shared),
        report: Obj::new(),
        layers: Obj::new(),
        errors: Errors::default(),
    };
    match inputs.workload.as_str() {
        "fleet" => fleet(&mut it)?,
        _ => single(&mut it)?,
    }
    let Iteration {
        tracer,
        registry,
        mut report,
        mut layers,
        errors,
        ..
    } = it;
    if let Some(registry) = &registry {
        registry_layers(registry, &mut layers);
    }
    if traced {
        let path = work.join("trace.json");
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.raw("layers", layers.finish());
    }
    report.strs("errors", &errors.main);
    report.strs("resume_errors", &errors.resume);
    Ok(report.finish())
}

/// The round-loop phase timers and counters of the existing
/// `Config::metrics` registry.
pub fn registry_layers(registry: &MetricsRegistry, layers: &mut Obj) {
    let phase = |name: &str| registry.phase(name).total().as_secs_f64();
    layers.num("engine.phase.cache_fill_s", phase("engine/cache_fill"));
    layers.num("engine.phase.select_s", phase("engine/select"));
    layers.num("engine.phase.commit_s", phase("engine/commit"));
    layers.num("engine.phase.subsume_s", phase("engine/subsume"));
    layers.int(
        "engine.cache_recomputes",
        registry.counter("engine/cache_recomputes").get(),
    );
}

fn single(it: &mut Iteration) -> Result<(), String> {
    let (inputs, dir, work, reference) = (it.inputs, it.dir, it.work, it.reference);
    let Iteration {
        tracer,
        registry,
        report,
        layers,
        errors,
        ..
    } = it;
    let hitlist = &inputs.hitlists[0];
    let input = dir.join(&hitlist.file);
    let out = work.join("targets.txt");

    let started = Instant::now();
    let root = tracer.enter("run");
    let seeds = tracer
        .span("datasets.read", || read_hitlist_file(&input))
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let engine = tracer.span("engine.new", || {
        SixGen::new(seeds, cli_config(hitlist.budget, registry.clone()))
    });
    let mut session = tracer.span("engine.start", || Session::start(engine));
    let setup = started.elapsed();
    step_to_end(&mut session, tracer)?;
    let outcome = tracer.span("engine.finish", || session.finish());
    let first_out = started.elapsed();
    tracer
        .span("datasets.write", || {
            write_hitlist_file(&out, outcome.targets.as_slice())
        })
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let wall = started.elapsed();
    tracer.exit(root);
    let rss = peak_rss_mb("self")?;

    let stats = &outcome.stats;
    check_targets(
        outcome.targets.as_slice(),
        stats.termination == Termination::BudgetExhausted,
        hitlist.budget,
        &mut errors.main,
    );
    check_same(&out, reference, "output", &mut errors.main);
    report.num("setup_s", secs(setup));
    report.num("ttft_s", secs(first_out));
    report.num("wall_s", secs(wall));
    report.num("peak_rss_mb", rss);
    report.int("targets", outcome.targets.len() as u64);
    let mut counts = Obj::new();
    counts.int("rounds", stats.rounds);
    counts.int("growths", stats.growths);
    counts.int("subsumed", stats.subsumed);
    counts.int("epochs", 0);
    counts.int("checkpoints", 0);
    report.raw("counts", counts.finish());
    drop(outcome);

    // Resume from the mid-run checkpoint `prep` wrote, as `sixgen
    // generate --resume` does, and expect the same targets.
    let resumed_out = work.join("resumed.txt");
    let started = Instant::now();
    let resume_root = tracer.enter("resume");
    let ckpt_path = dir.join("mid.ckpt");
    let checkpoint = tracer
        .span("checkpoint.load", || EngineCheckpoint::load(&ckpt_path))
        .map_err(|e| format!("cannot load {}: {e}", ckpt_path.display()))?;
    let config = Config {
        mode: checkpoint.mode,
        rng_seed: checkpoint.rng_seed,
        unfused_growth: checkpoint.unfused_growth,
        budget: checkpoint.budget,
        ..cli_config(hitlist.budget, None)
    };
    let mut session = tracer
        .span("engine.resume", || Session::resume(checkpoint, config))
        .map_err(|e| format!("cannot resume: {e}"))?;
    step_to_end(&mut session, tracer)?;
    let outcome = tracer.span("engine.finish", || session.finish());
    tracer
        .span("datasets.write", || {
            write_hitlist_file(&resumed_out, outcome.targets.as_slice())
        })
        .map_err(|e| format!("cannot write {}: {e}", resumed_out.display()))?;
    let resume = started.elapsed();
    tracer.exit(resume_root);
    check_same(
        &resumed_out,
        reference,
        "resumed output",
        &mut errors.resume,
    );
    report.num("resume_s", secs(resume));

    if tracer.enabled() {
        let main: Vec<_> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root))
            .collect();
        let of = |name: &str| {
            main.iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs())
                .sum::<f64>()
        };
        let steps: Vec<f64> = main
            .iter()
            .filter(|s| s.name == "engine.step")
            .map(|s| s.secs())
            .collect();
        layers.num("datasets.read_s", of("datasets.read"));
        layers.num("datasets.write_s", of("datasets.write"));
        layers.int(
            "datasets.write_bytes",
            std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0),
        );
        layers.num("engine.new_s", of("engine.new"));
        layers.num("engine.start_s", of("engine.start"));
        layers.num("engine.step_s", steps.iter().sum());
        layers.nums("engine.step_s_each", &steps);
        layers.num("engine.final_step_s", steps.last().copied().unwrap_or(0.0));
        layers.num("engine.finish_s", of("engine.finish"));
        layers.num("wall_s", tracer.spans()[root].secs());
        layers.num("unattributed_s", tracer.self_secs(root));
    }
    Ok(())
}

/// One epoch barrier of a fleet run: where its envelope went and what
/// writing it cost. `gap_s` is the time since the previous barrier
/// returned (or since the fleet started).
struct Barrier {
    path: PathBuf,
    gap_s: f64,
    write_s: f64,
    encode_s: f64,
    bytes: u64,
}

/// Reads a routes file the way `sixgen generate --routes` does: one
/// `PREFIX [ASN]` per line, `#` comments and blank lines skipped.
pub fn load_routes(path: &Path) -> Result<PrefixTable, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut routes: Vec<(Prefix, u32)> = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let prefix: Prefix = fields
            .next()
            .expect("non-empty line has a field")
            .parse()
            .map_err(|e| format!("bad prefix: {e}"))?;
        let asn = fields
            .next()
            .map_or(Ok(0), |f| f.parse().map_err(|_| "bad ASN".to_string()))?;
        routes.push((prefix, asn));
    }
    Ok(PrefixTable::from_routes(routes))
}

fn fleet(it: &mut Iteration) -> Result<(), String> {
    let (inputs, dir, work, reference) = (it.inputs, it.dir, it.work, it.reference);
    let Iteration {
        tracer,
        registry,
        report,
        layers,
        errors,
        ..
    } = it;
    let hitlist = &inputs.hitlists[0];
    let input = dir.join(&hitlist.file);
    let routes = dir.join(
        inputs
            .routes
            .as_ref()
            .ok_or("fleet inputs have no routes file")?,
    );
    let out = work.join("targets.txt");
    let ckpt_dir = work.join("fleet-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("cannot create {}: {e}", ckpt_dir.display()))?;
    let workers = sizes::FLEET_WORKERS;

    let started = Instant::now();
    let root = tracer.enter("run");
    let seeds = tracer
        .span("datasets.read", || read_hitlist_file(&input))
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let table = tracer.span("routing.table", || load_routes(&routes))?;
    let (routed, unrouted) = tracer.span("routing.partition", || table.partition(seeds));
    if !unrouted.is_empty() {
        errors
            .main
            .push(format!("{} seeds outside every route", unrouted.len()));
    }
    let specs: Vec<ShardSpec> = routed
        .into_iter()
        .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
        .collect();
    let shard_count = specs.len();
    let setup = started.elapsed();

    // A sharded checkpoint at every epoch barrier, each kept in its own
    // file so the run can later resume from the middle one.
    let mut barriers: Vec<Barrier> = Vec::new();
    let mut write_error = None;
    let fleet_started = Instant::now();
    let fleet_span = tracer.enter("shard.run");
    let mut last_barrier = Instant::now();
    let traced = tracer.enabled();
    let fleet = run_sharded_with(
        specs,
        cli_config(hitlist.budget, registry.clone()),
        workers,
        |envelope| {
            let gap_s = secs(last_barrier.elapsed());
            let path = ckpt_dir.join(format!("epoch-{}.ckpt", envelope.epochs));
            // Encoding is timed apart only when traced: the write encodes again.
            let (mut encode_s, mut bytes) = (0.0, 0);
            if traced {
                let t = Instant::now();
                bytes = envelope.to_bytes().len() as u64;
                encode_s = secs(t.elapsed());
            }
            let t = Instant::now();
            if let Err(e) = CheckpointWriter::new(&path).write_sharded(envelope) {
                write_error = Some(format!("barrier checkpoint: {e}"));
            }
            let write_s = secs(t.elapsed());
            barriers.push(Barrier {
                path,
                gap_s,
                write_s,
                encode_s,
                bytes,
            });
            last_barrier = Instant::now();
        },
    );
    tracer.exit(fleet_span);
    let fleet_wall = fleet_started.elapsed();
    let first_out = started.elapsed();
    tracer
        .span("datasets.write", || {
            write_hitlist_file(&out, &fleet.targets)
        })
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let wall = started.elapsed();
    tracer.exit(root);
    let rss = peak_rss_mb("self")?;
    errors.main.extend(write_error);

    let exhausted = fleet
        .shards
        .iter()
        .all(|s| s.outcome.stats.termination == Termination::BudgetExhausted);
    check_targets(&fleet.targets, exhausted, hitlist.budget, &mut errors.main);
    if fleet.stats.budget_used != fleet.targets.len() as u64 {
        errors
            .main
            .push("fleet budget_used disagrees with its target count".into());
    }
    check_same(&out, reference, "output", &mut errors.main);
    let stat = |f: fn(&sixgen::core::RunStats) -> u64| {
        fleet
            .shards
            .iter()
            .map(|s| f(&s.outcome.stats))
            .sum::<u64>()
    };
    report.num("setup_s", secs(setup));
    report.num("ttft_s", secs(first_out));
    report.num("wall_s", secs(wall));
    report.num("peak_rss_mb", rss);
    report.int("targets", fleet.targets.len() as u64);
    let mut counts = Obj::new();
    counts.int("rounds", stat(|s| s.rounds));
    counts.int("growths", stat(|s| s.growths));
    counts.int("subsumed", stat(|s| s.subsumed));
    counts.int("epochs", fleet.stats.epochs);
    counts.int("checkpoints", barriers.len() as u64);
    report.raw("counts", counts.finish());

    let busy: Vec<f64> = fleet.shards.iter().map(|s| s.busy.as_secs_f64()).collect();
    let shard_targets = fleet.targets.len();
    drop(fleet);

    // Resume once from the mid-run barrier envelope, as `sixgen generate
    // --resume` does, and expect the uninterrupted run's targets.
    let Some(mid_path) = barriers
        .get(barriers.len().saturating_sub(1) / 2)
        .map(|b| b.path.clone())
    else {
        return Err("fleet ran without an epoch barrier".into());
    };
    let resumed_out = work.join("resumed.txt");
    let started = Instant::now();
    let resume_root = tracer.enter("resume");
    let envelope = tracer
        .span("checkpoint.sharded_load", || {
            ShardedCheckpoint::load(&mid_path)
        })
        .map_err(|e| format!("cannot load {}: {e}", mid_path.display()))?;
    let config = Config {
        rng_seed: envelope.rng_seed,
        budget: envelope.budget,
        mode: envelope
            .shards
            .first()
            .map_or(ClusterMode::Loose, |s| s.engine.mode),
        unfused_growth: envelope
            .shards
            .first()
            .is_some_and(|s| s.engine.unfused_growth),
        ..cli_config(hitlist.budget, None)
    };
    let resumed = tracer
        .span("shard.resume", || {
            resume_sharded_with(envelope, config, workers, |_| {})
        })
        .map_err(|e| format!("cannot resume fleet: {e}"))?;
    tracer
        .span("datasets.write", || {
            write_hitlist_file(&resumed_out, &resumed.targets)
        })
        .map_err(|e| format!("cannot write {}: {e}", resumed_out.display()))?;
    let resume = started.elapsed();
    tracer.exit(resume_root);
    check_same(
        &resumed_out,
        &out,
        "resumed fleet output",
        &mut errors.resume,
    );
    report.num("resume_s", secs(resume));

    if tracer.enabled() {
        let main: Vec<_> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root))
            .collect();
        let of = |name: &str| {
            main.iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs())
                .sum::<f64>()
        };
        let wall = tracer.spans()[root].secs();
        let busy_sum: f64 = busy.iter().sum();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        layers.num("datasets.read_s", of("datasets.read"));
        layers.num("datasets.write_s", of("datasets.write"));
        layers.int(
            "datasets.write_bytes",
            std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0),
        );
        layers.num("routing.partition_s", of("routing.partition"));
        layers.num("routing.table_s", of("routing.table"));
        layers.int("checkpoint.count", barriers.len() as u64);
        layers.num(
            "checkpoint.write_s",
            barriers.iter().map(|b| b.write_s).sum(),
        );
        layers.num(
            "checkpoint.encode_s",
            barriers.iter().map(|b| b.encode_s).sum(),
        );
        layers.num(
            "checkpoint.bytes_mean",
            barriers.iter().map(|b| b.bytes as f64).sum::<f64>() / barriers.len().max(1) as f64,
        );
        layers.num(
            "shard.barrier_gap_s",
            barriers.iter().map(|b| b.gap_s).sum::<f64>() / barriers.len().max(1) as f64,
        );
        layers.int("checkpoint.dir_bytes", dir_bytes(&ckpt_dir));
        layers.num(
            "checkpoint.sharded_load_s",
            tracer.total("checkpoint.sharded_load"),
        );
        layers.int(
            "checkpoint.sharded_bytes",
            std::fs::metadata(&mid_path).map(|m| m.len()).unwrap_or(0),
        );
        layers.num("shard.resume_s", tracer.total("shard.resume"));
        layers.int("shard.count", shard_count as u64);
        layers.num("shard.busy_sum_s", busy_sum);
        layers.num("shard.busy_max_s", busy_max);
        layers.num(
            "shard.imbalance",
            busy_max / (busy_sum / workers as f64).max(f64::MIN_POSITIVE),
        );
        layers.num(
            "shard.parallel_eff",
            busy_sum / (workers as f64 * fleet_wall.as_secs_f64()),
        );
        layers.num("shard.run_s", of("shard.run"));
        layers.int("shard.targets", shard_targets as u64);
        layers.num("wall_s", wall);
        layers.num("unattributed_s", tracer.self_secs(root));
    }
    Ok(())
}

/// Writes `mid.ckpt` into `dir`: the session of the workload's hitlist
/// checkpointed at the round boundary a quarter of the way through its
/// rounds, so that resuming does most of a run's work. Runs untimed,
/// before any timing: one pass counts the rounds, a second stops there.
/// Its report carries the checkpoint write-path timings for the traced
/// run.
pub fn prep(inputs: &Inputs, dir: &Path) -> Result<String, String> {
    let hitlist = &inputs.hitlists[0];
    let seeds = read_hitlist_file(dir.join(&hitlist.file))
        .map_err(|e| format!("cannot read hitlist: {e}"))?;
    let open = || {
        Session::start(SixGen::new(
            seeds.iter().copied(),
            cli_config(hitlist.budget, None),
        ))
    };
    let mut session = open();
    step_to_end(&mut session, &mut Tracer::new(false, 0))?;
    let stop_round = session.rounds() / 4;
    if stop_round == 0 {
        return Err("the run has too few rounds to checkpoint within".into());
    }
    let mut session = open();
    while session.rounds() < stop_round {
        if session.step() != Step::Grew {
            return Err("the run ended before its checkpoint round".into());
        }
    }
    let started = Instant::now();
    let checkpoint = session.checkpoint();
    let snapshot_s = secs(started.elapsed());
    let started = Instant::now();
    let bytes = checkpoint.to_bytes().len();
    let encode_s = secs(started.elapsed());
    let path = dir.join("mid.ckpt");
    let started = Instant::now();
    CheckpointWriter::new(&path)
        .write(&checkpoint)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let write_s = secs(started.elapsed());
    let mut report = Obj::new();
    report.int("round", stop_round);
    report.int("budget_used", session.budget_used());
    report.num("checkpoint.snapshot_s", snapshot_s);
    report.num("checkpoint.encode_s", encode_s);
    report.num("checkpoint.write_s", write_s);
    report.int("checkpoint.bytes", bytes as u64);
    Ok(report.finish())
}
