//! The `serve_jobs` workload: a closed-loop load of one client against a
//! real `sixgen serve --checkpoint-dir` process, plus the in-process
//! job-layer and checkpoint measurements of the traced run.

use crate::batch::{cli_config, registry_layers, RNG_SEED};
use crate::http::request;
use crate::inputs::sizes::JOB_CHECKPOINT_EVERY;
use crate::inputs::Inputs;
use crate::json::Obj;
use crate::util::{dir_bytes, peak_rss_mb, Tracer};
use sixgen::addr::NybbleAddr;
use sixgen::core::{CheckpointWriter, SixGen, Step};
use sixgen::datasets::io::read_hitlist_file;
use sixgen::obs::MetricsRegistry;
use sixgen::serve::{FeedStatus, JobManager, JobSpec};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Kill-and-restart cycles per run; `resume_s` is their median.
const RESUME_CYCLES: usize = 9;
/// Jobs a run completes at least: enough that its p95 has 20 samples
/// beyond it (nearest rank: 400 - ceil(0.95 * 400) = 20), and enough load
/// time that its medians ride out a slow spell of the host.
const MIN_JOBS: usize = 400;
/// One resume cycle runs in the middle of every this many load jobs.
const RESUME_EVERY: usize = MIN_JOBS / RESUME_CYCLES;
/// Per-read socket timeout: a job slower than this counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running `sixgen serve` child.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts `sixgen serve` on an ephemeral port with `ckpt_dir` and
    /// waits until `/healthz` answers 200. Returns the server and the
    /// time from spawn to that answer.
    fn start(sixgen: &Path, ckpt_dir: &Path, work: &Path) -> Result<(Server, Duration), String> {
        let addr_file = work.join("serve.addr");
        let _ = std::fs::remove_file(&addr_file);
        let log =
            std::fs::File::create(work.join("serve.log")).map_err(|e| format!("serve log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(sixgen)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--checkpoint-dir")
            .arg(ckpt_dir)
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", sixgen.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = started + Duration::from_secs(30);
        loop {
            if Instant::now() > deadline {
                server.stop();
                return Err("sixgen serve did not become healthy within 30 s".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("sixgen serve exited early: {status}"));
            }
            if server.addr.is_empty() {
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    if text.ends_with('\n') {
                        server.addr = text.trim().to_string();
                    }
                }
            }
            if !server.addr.is_empty() {
                if let Ok(reply) = request(&server.addr, "GET", "/healthz", b"", IO_TIMEOUT, None) {
                    if reply.status == 200 {
                        return Ok((server, started.elapsed()));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGKILL, then reap.
    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One job as a client saw it.
#[derive(Debug, Clone, Default)]
struct JobSample {
    hitlist: usize,
    ok: bool,
    refused: bool,
    ttft_ms: f64,
    ttlt_ms: f64,
    post_ms: f64,
    first_byte_ms: f64,
    targets: u64,
    error: String,
}

/// Compares streamed bytes against the reference as they arrive.
struct Matcher<'a> {
    reference: &'a [u8],
    pos: usize,
    same: bool,
}

impl Matcher<'_> {
    fn feed(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        if end > self.reference.len() || self.reference[self.pos..end] != *bytes {
            self.same = false;
        }
        self.pos = end;
    }

    fn matched(&self) -> bool {
        self.same && self.pos == self.reference.len()
    }
}

fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"id\":")? + 5..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Posts one job and streams its targets to the end, checking every
/// byte against the reference.
fn run_job(addr: &str, hitlist: usize, upload: &[u8], budget: u64, reference: &[u8]) -> JobSample {
    let mut sample = JobSample {
        hitlist,
        ..JobSample::default()
    };
    let started = Instant::now();
    let path = format!(
        "/jobs?budget={budget}&rng_seed={RNG_SEED}&checkpoint_every={JOB_CHECKPOINT_EVERY}"
    );
    let post = match request(addr, "POST", &path, upload, IO_TIMEOUT, None) {
        Ok(reply) => reply,
        Err(e) => {
            sample.error = format!("POST: {e}");
            return sample;
        }
    };
    sample.post_ms = ms(post.done);
    if post.status != 201 {
        sample.refused = post.status == 503;
        sample.error = format!("POST status {}", post.status);
        return sample;
    }
    let Some(id) = job_id(&post.body) else {
        sample.error = "POST reply has no job id".into();
        return sample;
    };
    let mut matcher = Matcher {
        reference,
        pos: 0,
        same: true,
    };
    let mut sink = |bytes: &[u8]| {
        matcher.feed(bytes);
        true
    };
    let get = request(
        addr,
        "GET",
        &format!("/jobs/{id}/targets"),
        b"",
        IO_TIMEOUT,
        Some(&mut sink),
    );
    match get {
        Ok(reply) if reply.status == 200 => {
            sample.first_byte_ms = ms(reply.first_response);
            let since = |d: Duration| ms(reply.sent + d - started);
            sample.ttft_ms = reply.first_body.map_or(f64::INFINITY, since);
            sample.ttlt_ms = since(reply.done);
            sample.targets = reference[..matcher.pos.min(reference.len())]
                .iter()
                .filter(|&&b| b == b'\n')
                .count() as u64;
            sample.ok = matcher.matched();
            if !sample.ok {
                sample.error = "streamed targets differ from `sixgen generate`".into();
            }
        }
        Ok(reply) => {
            sample.refused = reply.status == 503;
            sample.error = format!("GET status {}", reply.status);
        }
        Err(e) => sample.error = format!("GET: {e}"),
    }
    sample
}

/// The workload's uploads and reference outputs, loaded before timing.
struct Corpus {
    uploads: Vec<Vec<u8>>,
    references: Vec<Vec<u8>>,
}

impl Corpus {
    fn load(inputs: &Inputs, dir: &Path, refs: &Path) -> Result<Corpus, String> {
        let read =
            |p: PathBuf| std::fs::read(&p).map_err(|e| format!("cannot read {}: {e}", p.display()));
        let mut corpus = Corpus {
            uploads: Vec::new(),
            references: Vec::new(),
        };
        for hitlist in &inputs.hitlists {
            corpus.uploads.push(read(dir.join(&hitlist.file))?);
            corpus.references.push(read(refs.join(&hitlist.file))?);
        }
        Ok(corpus)
    }
}

fn sample_json(s: &JobSample) -> String {
    let mut o = Obj::new();
    o.int("hitlist", s.hitlist as u64);
    o.bool("ok", s.ok);
    o.bool("refused", s.refused);
    o.num("ttft_ms", s.ttft_ms);
    o.num("ttlt_ms", s.ttlt_ms);
    o.num("post_ms", s.post_ms);
    o.num("first_byte_ms", s.first_byte_ms);
    o.int("targets", s.targets);
    o.str("error", &s.error);
    o.finish()
}

/// Runs the serve workload and returns its JSON report line.
pub fn run(
    inputs: &Inputs,
    dir: &Path,
    refs: &Path,
    work: &Path,
    sixgen: &Path,
    seconds: f64,
    traced: bool,
) -> Result<String, String> {
    let corpus = Corpus::load(inputs, dir, refs)?;
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut report = Obj::new();

    // Start-up: spawn until /healthz answers, several times, each with a
    // fresh checkpoint directory. The last server carries the load.
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let ckpt = work.join(format!("ckpt-{rep}"));
        let (s, setup) = Server::start(sixgen, &ckpt, work)?;
        setups.push(setup.as_secs_f64());
        server = Some((s, ckpt));
    }
    let (mut server, ckpt_dir) = server.expect("at least one start-up");
    report.nums("setup_s", &setups);

    // Closed-loop load for `seconds` and at least MIN_JOBS jobs; the job in
    // flight at the deadline finishes. Untraced runs interleave the resume
    // cycles with the load, so that a slow spell of the host lands on a
    // few of them rather than on all.
    let large = largest_hitlist(inputs);
    let mut samples = Vec::new();
    let mut cycles = Vec::new();
    let mut cycles_s = 0.0;
    let stop_polling = AtomicBool::new(false);
    let pid = server.pid();
    let mut rss = Err("the load completed no jobs".to_string());
    let healthz = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| -> Result<(), String> {
        if traced {
            scope.spawn(|| {
                while !stop_polling.load(Ordering::Relaxed) {
                    if let Ok(reply) =
                        request(&server.addr, "GET", "/healthz", b"", IO_TIMEOUT, None)
                    {
                        healthz.lock().expect("healthz lock").push(ms(reply.done));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
        let result = (|| {
            for j in 0.. {
                if Instant::now() >= deadline && j >= MIN_JOBS {
                    return Ok(());
                }
                let resume_slot = j % RESUME_EVERY == RESUME_EVERY / 2;
                if !traced && resume_slot && cycles.len() < RESUME_CYCLES {
                    let cycle_started = Instant::now();
                    cycles.push(resume_cycle(
                        cycles.len(),
                        large,
                        &corpus,
                        inputs,
                        work,
                        sixgen,
                    )?);
                    cycles_s += cycle_started.elapsed().as_secs_f64();
                }
                let h = inputs.jobs[j % inputs.jobs.len()];
                samples.push(run_job(
                    &server.addr,
                    h,
                    &corpus.uploads[h],
                    inputs.hitlists[h].budget,
                    &corpus.references[h],
                ));
                // Peak RSS over a fixed amount of work: the server keeps
                // every finished job's targets, so its footprint grows
                // with the number of jobs a run completes.
                if samples.len() == MIN_JOBS {
                    rss = peak_rss_mb(&pid);
                }
            }
            Ok(())
        })();
        stop_polling.store(true, Ordering::Relaxed);
        result
    })?;
    let load_s = started.elapsed().as_secs_f64() - cycles_s;
    let rss = rss?;
    let ckpt_bytes = dir_bytes(&ckpt_dir);
    server.stop();
    report.num("load_s", load_s);
    report.num("peak_rss_mb", rss);
    report.raw(
        "jobs",
        format!(
            "[{}]",
            samples
                .iter()
                .map(sample_json)
                .collect::<Vec<_>>()
                .join(",")
        ),
    );

    if traced {
        report.nums("healthz_ms", &healthz.into_inner().expect("healthz lock"));
        let mut layers = Obj::new();
        layers.int("checkpoint.dir_bytes", ckpt_bytes);
        job_layer(inputs, &corpus, work, &mut layers)?;
        // One in-process job per hitlist, then a bare and a traced replay.
        report.int("in_process_ops", inputs.hitlists.len() as u64 + 2);
        replay(inputs, dir, &corpus, work, &mut layers, inputs.seed)?;
        report.raw("layers", layers.finish());
    } else {
        if cycles.len() < RESUME_CYCLES {
            return Err(format!(
                "only {} of {RESUME_CYCLES} resume cycles ran",
                cycles.len()
            ));
        }
        report.nums("resume_s", &cycles.iter().map(|c| c.0).collect::<Vec<_>>());
        report.int(
            "resume_failed",
            cycles.iter().filter(|c| !c.1).count() as u64,
        );
    }
    Ok(report.finish())
}

fn largest_hitlist(inputs: &Inputs) -> usize {
    (0..inputs.hitlists.len())
        .max_by_key(|&i| inputs.hitlists[i].seeds)
        .expect("hitlists")
}

/// Kill -9 mid-job and restart: the time from the restarted server's
/// spawn to the end of the job's re-streamed targets, with whether they
/// still match the reference. The job is hitlist `h`, on a server of its
/// own; the kill lands right after its first checkpoint, so the restart
/// reads that checkpoint and redoes nearly the whole job.
fn resume_cycle(
    cycle: usize,
    h: usize,
    corpus: &Corpus,
    inputs: &Inputs,
    work: &Path,
    sixgen: &Path,
) -> Result<(f64, bool), String> {
    let reference = &corpus.references[h];
    let budget = inputs.hitlists[h].budget;
    let ckpt = work.join(format!("resume-{cycle}"));
    let (mut server, _) = Server::start(sixgen, &ckpt, work)?;
    let path = format!(
        "/jobs?budget={budget}&rng_seed={RNG_SEED}&checkpoint_every={JOB_CHECKPOINT_EVERY}"
    );
    let post = request(
        &server.addr,
        "POST",
        &path,
        &corpus.uploads[h],
        IO_TIMEOUT,
        None,
    )?;
    let id = job_id(&post.body).ok_or("POST reply has no job id")?;
    // Stop reading, then kill, at the first stream chunk that arrives once
    // the job's first checkpoint is on disk (it is written before that
    // round's targets are published).
    let job_ckpt = ckpt.join(format!("job-{id}.ckpt"));
    let mut sink = |_: &[u8]| !job_ckpt.exists();
    let streamed = request(
        &server.addr,
        "GET",
        &format!("/jobs/{id}/targets"),
        b"",
        IO_TIMEOUT,
        Some(&mut sink),
    )?;
    server.stop();
    if streamed.complete {
        return Err("the job finished before the kill; nothing to resume".into());
    }

    let spawned = Instant::now();
    let (restarted, _) = Server::start(sixgen, &ckpt, work)?;
    let mut matcher = Matcher {
        reference,
        pos: 0,
        same: true,
    };
    let mut sink = |bytes: &[u8]| {
        matcher.feed(bytes);
        true
    };
    request(
        &restarted.addr,
        "GET",
        &format!("/jobs/{id}/targets"),
        b"",
        IO_TIMEOUT,
        Some(&mut sink),
    )?;
    Ok((spawned.elapsed().as_secs_f64(), matcher.matched()))
}

/// Renders targets the way the stream and `write_hitlist` do.
fn target_text(targets: &[NybbleAddr], out: &mut Vec<u8>) {
    use std::io::Write;
    for addr in targets {
        let _ = writeln!(out, "{addr}");
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// The job layer in process, with no HTTP: `JobManager::create` and
/// `TargetFeed::next_batch`, once per distinct hitlist.
fn job_layer(
    inputs: &Inputs,
    corpus: &Corpus,
    work: &Path,
    layers: &mut Obj,
) -> Result<(), String> {
    let manager = JobManager::new(Some(work.join("jobs-in-process")))
        .map_err(|e| format!("job manager: {e}"))?;
    let (mut create, mut first, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    for (h, hitlist) in inputs.hitlists.iter().enumerate() {
        let seeds = sixgen::datasets::io::read_hitlist(corpus.uploads[h].as_slice())
            .map_err(|e| e.to_string())?;
        let spec = JobSpec {
            budget: hitlist.budget,
            rng_seed: RNG_SEED,
            checkpoint_every: JOB_CHECKPOINT_EVERY,
            ..JobSpec::default()
        };
        let started = Instant::now();
        let job = manager.create(seeds, spec)?;
        create.push(ms(started.elapsed()));
        let mut text = Vec::new();
        let mut cursor = 0;
        loop {
            let (batch, status) = job.feed().next_batch(cursor, Duration::from_millis(250));
            if !batch.is_empty() && cursor == 0 {
                first.push(ms(started.elapsed()));
            }
            cursor += batch.len();
            target_text(&batch, &mut text);
            match status {
                FeedStatus::Open => {}
                FeedStatus::Done => break,
                FeedStatus::Failed(e) => return Err(format!("in-process job failed: {e}")),
            }
        }
        closed.push(ms(started.elapsed()));
        if text != corpus.references[h] {
            return Err("in-process job targets differ from `sixgen generate`".into());
        }
    }
    manager.join();
    layers.num("job.create_ms", median(&mut create));
    layers.num("job.first_batch_ms", median(&mut first));
    layers.num("job.closed_ms", median(&mut closed));
    Ok(())
}

/// Replays one representative job (the first hitlist) through the calls
/// the job runner makes: a session stepped round by round, with
/// `Session::checkpoint` and `CheckpointWriter::write` after every
/// `JOB_CHECKPOINT_EVERY`-th growth round and the committed prefix
/// published after every growth. Runs once bare and once
/// traced; the ratio of the two walls is the tracing overhead.
fn replay(
    inputs: &Inputs,
    dir: &Path,
    corpus: &Corpus,
    work: &Path,
    layers: &mut Obj,
    run_id: u64,
) -> Result<(), String> {
    let hitlist = &inputs.hitlists[0];
    let ckpt = work.join("replay.ckpt");
    let mut walls = Vec::new();
    let mut counts = Vec::new();
    for traced in [false, true] {
        let mut tracer = Tracer::new(traced, run_id);
        let registry = traced.then(MetricsRegistry::shared);
        let input = dir.join(&hitlist.file);
        let read_started = Instant::now();
        let seeds = read_hitlist_file(&input)
            .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
        let read_s = read_started.elapsed().as_secs_f64();
        let mut writer = CheckpointWriter::new(&ckpt);
        let mut published: Vec<NybbleAddr> = Vec::new();
        let mut bytes = 0u64;
        let started = Instant::now();
        let root = tracer.enter("job");
        let engine = tracer.span("engine.new", || {
            SixGen::new(seeds, cli_config(hitlist.budget, registry.clone()))
        });
        let mut session = tracer.span("engine.start", || sixgen::core::Session::start(engine));
        loop {
            let id = tracer.enter("engine.step");
            let step = session.step();
            tracer.exit(id);
            match step {
                Step::Grew => {
                    if session.rounds().is_multiple_of(JOB_CHECKPOINT_EVERY) {
                        let snapshot = tracer.span("checkpoint.snapshot", || session.checkpoint());
                        if traced {
                            // Timed apart: the write below encodes again.
                            bytes += tracer
                                .span("checkpoint.encode", || snapshot.to_bytes())
                                .len() as u64;
                        }
                        tracer
                            .span("checkpoint.write", || writer.write(&snapshot))
                            .map_err(|e| format!("replay checkpoint: {e}"))?;
                    }
                    let all = session.targets_so_far();
                    published.extend_from_slice(&all[published.len()..]);
                }
                Step::NeedsBudget => return Err("session parked outside a fleet".into()),
                Step::Done(_) => break,
            }
        }
        let outcome = tracer.span("engine.finish", || session.finish());
        published.extend_from_slice(&outcome.targets.as_slice()[published.len()..]);
        tracer.exit(root);
        walls.push(started.elapsed().as_secs_f64());
        let mut text = Vec::new();
        target_text(&published, &mut text);
        if text != corpus.references[0] {
            return Err("replayed job targets differ from `sixgen generate`".into());
        }
        let stats = &outcome.stats;
        counts.push((stats.rounds, stats.growths, stats.subsumed, writer.writes()));
        if counts[0] != counts[counts.len() - 1] {
            return Err(format!(
                "replay counts differ between bare and traced passes: {counts:?}"
            ));
        }
        if !traced {
            continue;
        }
        let steps: Vec<f64> = tracer.named("engine.step").map(|s| s.secs()).collect();
        let count = tracer.named("checkpoint.write").count() as u64;
        let wall = tracer.spans()[root].secs();
        layers.num("datasets.read_s", read_s);
        layers.num("engine.new_s", tracer.total("engine.new"));
        layers.num("engine.start_s", tracer.total("engine.start"));
        layers.num("engine.step_s", steps.iter().sum());
        layers.nums("engine.step_s_each", &steps);
        layers.num("engine.final_step_s", steps.last().copied().unwrap_or(0.0));
        layers.num("engine.finish_s", tracer.total("engine.finish"));
        layers.int("engine.rounds", outcome.stats.rounds);
        layers.int("engine.growths", outcome.stats.growths);
        layers.int("engine.subsumed", outcome.stats.subsumed);
        registry_layers(&registry.expect("traced pass has a registry"), layers);
        layers.int("checkpoint.count", count);
        layers.num("checkpoint.snapshot_s", tracer.total("checkpoint.snapshot"));
        layers.num("checkpoint.encode_s", tracer.total("checkpoint.encode"));
        layers.num("checkpoint.write_s", tracer.total("checkpoint.write"));
        layers.num("checkpoint.bytes_mean", bytes as f64 / count.max(1) as f64);
        layers.num("wall_s", wall);
        layers.num("unattributed_s", tracer.self_secs(root));
        let path = work.join("trace.json");
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    layers.num("untraced_wall_s", walls[0]);
    Ok(())
}
