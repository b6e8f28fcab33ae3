//! The one run driver behind `sixgen generate`, `sixgen simulate` and the
//! `sixgen serve` job runner.
//!
//! A run is a single engine [`Session`] or a sharded fleet, started from
//! seeds or resumed from a checkpoint of either kind. The driver owns the
//! decisions every front end shares:
//!
//! * **Start or resume.** A checkpoint file's magic bytes tell a
//!   single-engine checkpoint (`6GSN`) from a fleet envelope (`6GSH`).
//!   A resume adopts the checkpoint's determinism fingerprint (cluster
//!   mode, RNG seed, growth path) and, unless one is given, its budget.
//! * **Checkpoint cadence.** One write every N committed rounds (single
//!   engine) or N epoch barriers (fleet). After a write fails
//!   persistently the run goes on without further checkpoints. A single
//!   engine that stops on its deadline or cancel token writes one last
//!   checkpoint whatever the cadence, so such a stop keeps its progress.
//! * **Publishing.** An optional hook receives the committed target
//!   prefix at every boundary, after that boundary's checkpoint
//!   (durability before visibility), and the complete list at the end.
//!   For a fleet it is the stable prefix of the merge (see
//!   `stable_fleet_prefix`). Without a hook the driver copies nothing
//!   per boundary.

use std::path::{Path, PathBuf};

use crate::addr::NybbleAddr;
use crate::core::{
    resume_sharded_with, run_sharded_with, CheckpointWriter, Config, EngineCheckpoint, Outcome,
    Session, ShardSpec, ShardedCheckpoint, ShardedOutcome, SixGen, Step, Termination,
    SHARDED_MAGIC,
};
use crate::obs::EventBus;
use crate::routing::{partition_by_length, PrefixTable};

/// The shard granularity when no routed-prefix table is given: seeds
/// group under their enclosing /48, the typical BGP announcement size.
const FALLBACK_SHARD_LEN: u8 = 48;

/// Partitions seeds into fleet shards: by routed prefix when `routes` is
/// given, else by their enclosing /48. Also returns how many seeds fall
/// outside every routed prefix; they belong to no shard and are dropped.
pub fn shard_specs(
    seeds: Vec<NybbleAddr>,
    routes: Option<&PrefixTable>,
) -> (Vec<ShardSpec>, usize) {
    let (groups, unrouted) = match routes {
        Some(table) => {
            let (routed, unrouted) = table.partition(seeds);
            (routed, unrouted.len())
        }
        None => (partition_by_length(seeds, FALLBACK_SHARD_LEN), 0),
    };
    let specs = groups
        .into_iter()
        .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
        .collect();
    (specs, unrouted)
}

/// A decoded checkpoint of either kind.
#[derive(Debug)]
pub enum Checkpoint {
    /// A single engine session's checkpoint.
    Engine(EngineCheckpoint),
    /// A sharded fleet's envelope.
    Sharded(ShardedCheckpoint),
}

impl Checkpoint {
    /// `config` with the checkpoint's determinism fingerprint, and with
    /// `budget` when given, else the checkpoint's budget.
    fn adopt(&self, config: Config, budget: Option<u64>) -> Config {
        let (engine, rng_seed, own_budget) = match self {
            Checkpoint::Engine(c) => (Some(c), c.rng_seed, c.budget),
            Checkpoint::Sharded(e) => (e.shards.first().map(|s| &s.engine), e.rng_seed, e.budget),
        };
        Config {
            mode: engine.map_or(config.mode, |c| c.mode),
            unfused_growth: engine.map_or(config.unfused_growth, |c| c.unfused_growth),
            rng_seed,
            budget: budget.unwrap_or(own_budget),
            ..config
        }
    }
}

/// Where a run starts.
// One value per run: its size does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Start {
    /// A fresh single engine over a seed set.
    Seeds(Vec<NybbleAddr>),
    /// A fresh fleet over its shards.
    Shards(Vec<ShardSpec>),
    /// The checkpoint loaded from `path`; its kind decides engine or
    /// fleet.
    Resume {
        /// Where the checkpoint was read from (for messages).
        path: PathBuf,
        /// The decoded checkpoint.
        checkpoint: Checkpoint,
    },
}

impl Start {
    /// Reads the checkpoint at `path` to resume from, decoding it by its
    /// magic bytes.
    pub fn resume(path: &Path) -> Result<Start, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
        let checkpoint = if bytes.starts_with(&SHARDED_MAGIC) {
            ShardedCheckpoint::from_bytes(&bytes).map(Checkpoint::Sharded)
        } else {
            EngineCheckpoint::from_bytes(&bytes).map(Checkpoint::Engine)
        };
        Ok(Start::Resume {
            path: path.to_path_buf(),
            checkpoint: checkpoint
                .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))?,
        })
    }
}

/// A finished run.
#[derive(Debug)]
pub enum Finished {
    /// A single engine's outcome.
    Single(Outcome),
    /// A fleet's merged outcome.
    Fleet(ShardedOutcome),
}

impl Finished {
    /// The generated targets, in output order.
    pub fn targets(&self) -> &[NybbleAddr] {
        match self {
            Finished::Single(outcome) => outcome.targets.as_slice(),
            Finished::Fleet(fleet) => &fleet.targets,
        }
    }
}

/// A hook that receives a run's committed target prefix.
pub type Publish<'a> = &'a dyn Fn(&[NybbleAddr]);

/// How to run: the engine configuration and what surrounds it.
pub struct Driver<'a> {
    /// The engine configuration. On resume its mode, RNG seed and growth
    /// path come from the checkpoint instead.
    pub config: Config,
    /// The probe budget: on resume `None` continues under the
    /// checkpoint's budget, on a fresh start it means `config.budget`.
    pub budget: Option<u64>,
    /// Fleet scheduler workers (`0`: machine parallelism).
    pub workers: usize,
    /// Where to write checkpoints, if anywhere.
    pub checkpoint: Option<&'a Path>,
    /// Checkpoint cadence in rounds (engine) or epochs (fleet); `0`
    /// counts as `1`.
    pub every: u64,
    /// Receives the committed target prefix at every boundary.
    pub publish: Option<Publish<'a>>,
}

impl Driver<'_> {
    /// Runs `start` to termination.
    pub fn run(self, start: Start) -> Result<Finished, String> {
        let config = match &start {
            Start::Resume { checkpoint, .. } => checkpoint.adopt(self.config, self.budget),
            _ => Config {
                budget: self.budget.unwrap_or(self.config.budget),
                ..self.config
            },
        };
        let workers = self.workers;
        let mut boundaries = Boundaries {
            writer: self.checkpoint.map(CheckpointWriter::new),
            every: self.every.max(1),
            broken: false,
            publish: self.publish,
            bus: config.events.clone(),
        };
        let finished = match start {
            Start::Seeds(seeds) => {
                Finished::Single(boundaries.drive(SixGen::new(seeds, config).session()))
            }
            Start::Shards(specs) => {
                Finished::Fleet(run_sharded_with(specs, config, workers, |e| {
                    boundaries.barrier(e)
                }))
            }
            Start::Resume { path, checkpoint } => {
                let cannot = |e| format!("cannot resume from {}: {e}", path.display());
                match checkpoint {
                    Checkpoint::Engine(checkpoint) => {
                        eprintln!(
                            "resuming from {} (round {}, {} targets already generated)",
                            path.display(),
                            checkpoint.rounds,
                            checkpoint.generated.len()
                        );
                        let session = Session::resume(checkpoint, config).map_err(cannot)?;
                        Finished::Single(boundaries.drive(session))
                    }
                    Checkpoint::Sharded(envelope) => {
                        eprintln!(
                            "resuming sharded fleet from {} ({} shards, epoch {})",
                            path.display(),
                            envelope.shards.len(),
                            envelope.epochs
                        );
                        let fleet = resume_sharded_with(envelope, config, workers, |e| {
                            boundaries.barrier(e)
                        });
                        Finished::Fleet(fleet.map_err(cannot)?)
                    }
                }
            }
        };
        boundaries.publish(finished.targets());
        if let Some(writer) = boundaries.writer.filter(|w| w.writes() > 0) {
            eprintln!(
                "{} checkpoint(s) written to {}",
                writer.writes(),
                writer.path().display()
            );
        }
        Ok(finished)
    }
}

/// What happens at a round or epoch boundary: the checkpoint cadence and
/// the publish hook.
struct Boundaries<'a> {
    writer: Option<CheckpointWriter>,
    every: u64,
    /// Set by the first persistent write failure; no writes after it.
    broken: bool,
    publish: Option<Publish<'a>>,
    /// The run's event bus, which tells the fleet's finished shards.
    bus: Option<std::sync::Arc<EventBus>>,
}

impl Boundaries<'_> {
    /// Steps a session to termination, checkpointing on the cadence and
    /// once more on a deadline or cancel stop.
    fn drive(&mut self, mut session: Session) -> Outcome {
        // Before its first round a session already holds targets (its
        // seeds, or a resumed run's prefix), durable in the seed upload
        // or the checkpoint.
        self.publish(session.targets_so_far());
        loop {
            match session.step() {
                Step::Grew => {
                    if session.rounds().is_multiple_of(self.every) {
                        self.write(|w| w.write(&session.checkpoint()));
                    }
                    self.publish(session.targets_so_far());
                }
                Step::Done(Termination::Deadline | Termination::Cancelled) => {
                    // Still at a round boundary: the checkpoint resumes
                    // exactly where the stop left off.
                    self.write(|w| w.write(&session.checkpoint()));
                    break;
                }
                Step::Done(_) => break,
                Step::NeedsBudget => unreachable!("exhaustion is not deferred outside a fleet"),
            }
        }
        session.finish()
    }

    /// A fleet's epoch barrier.
    fn barrier(&mut self, envelope: &ShardedCheckpoint) {
        if envelope.epochs.is_multiple_of(self.every) {
            self.write(|w| w.write_sharded(envelope));
        }
        if self.publish.is_some() {
            let stable = stable_fleet_prefix(envelope, self.bus.as_deref());
            self.publish(&stable);
        }
    }

    fn write(&mut self, write: impl FnOnce(&mut CheckpointWriter) -> std::io::Result<()>) {
        let Some(writer) = self.writer.as_mut().filter(|_| !self.broken) else {
            return;
        };
        if let Err(e) = write(writer) {
            eprintln!(
                "warning: checkpoint write to {} failed persistently ({e}); \
                 continuing without further checkpoints",
                writer.path().display()
            );
            self.broken = true;
        }
    }

    fn publish(&self, targets: &[NybbleAddr]) {
        if let Some(publish) = self.publish {
            publish(targets);
        }
    }
}

/// The streamable prefix of a fleet merge at an epoch barrier: each
/// shard's generated list is append-only and the merge concatenates
/// them in prefix order, so everything up to (and including the
/// committed prefix of) the first unfinished shard is final. Shard
/// termination comes from the event bus, where the fleet publishes
/// `ShardDone` before the barrier fires; without a bus every shard
/// counts as unfinished.
fn stable_fleet_prefix(envelope: &ShardedCheckpoint, bus: Option<&EventBus>) -> Vec<NybbleAddr> {
    let progress = bus.map(EventBus::progress);
    let mut stable = Vec::new();
    for (index, shard) in envelope.shards.iter().enumerate() {
        stable.extend_from_slice(&shard.engine.generated);
        let done = progress
            .as_ref()
            .and_then(|p| p.shards.get(index))
            .is_some_and(|s| s.termination.is_some());
        if !done {
            break;
        }
    }
    stable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CancelToken;
    use std::cell::RefCell;

    fn seeds() -> Vec<NybbleAddr> {
        (1..=9u32)
            .flat_map(|g| (0..3u32).map(move |h| format!("2001:db8::{g}{g}{g}{h:x}")))
            .map(|text| text.parse().unwrap())
            .collect()
    }

    fn driver(config: Config, checkpoint: Option<&Path>) -> Driver<'_> {
        Driver {
            config,
            budget: None,
            workers: 0,
            checkpoint,
            every: 1000,
            publish: None,
        }
    }

    /// A cancel stop writes a checkpoint whatever the cadence, and the
    /// resumed run publishes and returns the uninterrupted targets.
    #[test]
    fn cancelled_run_checkpoints_and_resumes_byte_identical() {
        let dir = std::env::temp_dir().join(format!("sixgen-run-cancel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");
        let config = Config::with_budget(300);
        let expected = SixGen::new(seeds(), config.clone()).run();

        let cancel = CancelToken::new();
        cancel.cancel();
        let stopped = Config {
            cancel: Some(cancel),
            ..config.clone()
        };
        let Finished::Single(outcome) = driver(stopped, Some(&ckpt))
            .run(Start::Seeds(seeds()))
            .unwrap()
        else {
            panic!("a seed start runs one engine");
        };
        assert_eq!(outcome.stats.termination, Termination::Cancelled);

        let published = RefCell::new(Vec::new());
        let publish = |targets: &[NybbleAddr]| *published.borrow_mut() = targets.to_vec();
        let resumed = Driver {
            publish: Some(&publish),
            ..driver(config, None)
        }
        .run(Start::resume(&ckpt).unwrap())
        .unwrap();
        assert_eq!(resumed.targets(), expected.targets.as_slice());
        assert_eq!(published.into_inner(), expected.targets.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_names_unreadable_and_undecodable_files() {
        let dir = std::env::temp_dir().join(format!("sixgen-run-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = Start::resume(&dir.join("missing.ckpt")).unwrap_err();
        assert!(missing.starts_with("cannot open checkpoint"), "{missing}");
        for bytes in [&b"6GSH garbage"[..], b"6GSN garbage", b"abc"] {
            let path = dir.join("bad.ckpt");
            std::fs::write(&path, bytes).unwrap();
            let error = Start::resume(&path).unwrap_err();
            assert!(error.starts_with("cannot load checkpoint"), "{error}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
