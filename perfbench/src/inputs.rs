//! Seeded input generator. Every hitlist and routes file a run measures
//! is written here, before any timing starts, from the workload seed
//! alone: the same seed gives the same bytes.
//!
//! All hitlists share the shape of the Figure 2 corpus that `repro
//! trajectory` scales (`synthetic_seeds` in `crates/bench`): sequential
//! low bytes over 48 subnets of one /32, with one seed in seven carrying
//! 16 random bits of noise. The seed moves the /32, draws the noise and
//! shuffles the line order, so runs on different seeds do the same
//! amount of work on different bytes.

use sixgen::addr::NybbleAddr;
use sixgen::datasets::io::write_hitlist;
use std::fmt::Write as _;
use std::path::Path;

/// SplitMix64: a small, well-mixed generator that needs no dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A random /32, as the top 32 bits of an address.
fn base_slash32(rng: &mut Rng) -> u128 {
    // 2600:0000::/32 .. 26ff:ff00::/32, away from documentation space.
    (0x2600_0000u128 + rng.below(0x00ff_ff00) as u128) << 96
}

/// `count` seeds of the Figure 2 shape inside the /32 `base`, in
/// shuffled order.
pub fn hosting_seeds(base: u128, count: usize, rng: &mut Rng) -> Vec<NybbleAddr> {
    let mut seeds: Vec<NybbleAddr> = (0..count)
        .map(|i| {
            let subnet = (i % 48) as u128;
            let structured = (i / 48 + 1) as u128;
            let noise = if i % 7 == 0 {
                (rng.next_u64() & 0xffff) as u128
            } else {
                0
            };
            NybbleAddr::from_bits(base | (subnet << 64) | structured | noise << 16)
        })
        .collect();
    rng.shuffle(&mut seeds);
    seeds
}

/// One generated hitlist, with the budget its runs use.
#[derive(Debug, Clone)]
pub struct Hitlist {
    pub file: String,
    pub seeds: usize,
    pub budget: u64,
}

/// Everything a workload run measures, as written to disk.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: String,
    pub seed: u64,
    pub hitlists: Vec<Hitlist>,
    /// Routes file (fleet only).
    pub routes: Option<String>,
    /// Serve job sequence: indices into `hitlists`, in POST order
    /// (cycled when a run completes more jobs).
    pub jobs: Vec<usize>,
    /// FNV-1a 64 over every input file's bytes, in the order listed.
    pub digest: u64,
}

/// Seed counts and budgets of each workload.
pub mod sizes {
    pub const GENERATE_SEEDS: usize = 30_000;
    pub const FLOOD_SEEDS: usize = 500;
    pub const FLOOD_BUDGET: u64 = 1_000_000;
    /// Seed of budget_flood's fixed noise pattern.
    pub const FLOOD_NOISE_SEED: u64 = 13;
    pub const FLEET_SEEDS: usize = 40_000;
    pub const FLEET_PREFIXES: usize = 8;
    pub const FLEET_WORKERS: usize = 2;
    pub const JOB_SMALL_SEEDS: usize = 1_000;
    pub const JOB_LARGE_SEEDS: usize = 4_000;
    /// Distinct hitlists of each job size.
    pub const JOB_SMALL_LISTS: usize = 6;
    pub const JOB_LARGE_LISTS: usize = 2;
    /// One job in this many is large.
    pub const JOB_LARGE_EVERY: usize = 10;
    /// Job sequence length before it cycles.
    pub const JOB_SEQUENCE: usize = 400;
    /// Job budgets are this multiple of the job's seed count.
    pub const JOB_BUDGET_FACTOR: u64 = 5;
    /// Jobs checkpoint every this many growth rounds. At the default of 1,
    /// a job's time is mostly one write + fsync per round, and the fsync
    /// latency of a shared virtual disk drifts by 2x over tens of seconds.
    pub const JOB_CHECKPOINT_EVERY: u64 = 8;
}

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Input files as `(name, bytes)`.
pub type Files = Vec<(String, Vec<u8>)>;

/// The files of one workload, plus its description.
pub fn build(workload: &str, seed: u64) -> Result<(Inputs, Files), String> {
    use sizes::*;
    let mut rng = Rng::new(seed);
    let mut files: Files = Vec::new();
    let mut hitlists = Vec::new();
    let mut routes = None;
    let mut jobs = Vec::new();
    let mut add_hitlist = |files: &mut Files, name: String, seeds: &[NybbleAddr], budget: u64| {
        let mut bytes = Vec::with_capacity(seeds.len() * 24);
        write_hitlist(&mut bytes, seeds).expect("hitlist to memory cannot fail");
        files.push((name.clone(), bytes));
        hitlists.push(Hitlist {
            file: name,
            seeds: seeds.len(),
            budget,
        });
    };
    match workload {
        "generate" => {
            let base = base_slash32(&mut rng);
            let seeds = hosting_seeds(base, GENERATE_SEEDS, &mut rng);
            add_hitlist(
                &mut files,
                "seeds.txt".into(),
                &seeds,
                GENERATE_SEEDS as u64 * 3 / 2,
            );
        }
        "budget_flood" => {
            // 500 seeds are too few for seeded noise to average out: across
            // seeds the growth count ranged 42-53 and peak RSS 79-131 MB.
            // The noise pattern is therefore fixed; the seed moves the /32
            // and orders the lines, which leaves the work unchanged. The
            // fixed pattern is one whose large charges land in commit
            // (53 growths), as in the 4M-budget runs this workload models.
            let base = base_slash32(&mut rng);
            let mut seeds = hosting_seeds(base, FLOOD_SEEDS, &mut Rng::new(FLOOD_NOISE_SEED));
            rng.shuffle(&mut seeds);
            add_hitlist(&mut files, "seeds.txt".into(), &seeds, FLOOD_BUDGET);
        }
        "fleet" => {
            // Eight consecutive routed /32s, the corpus split evenly.
            let base = base_slash32(&mut rng) & !(0xfu128 << 96);
            let mut seeds = Vec::with_capacity(FLEET_SEEDS);
            let mut table = String::new();
            for p in 0..FLEET_PREFIXES {
                let prefix = base + ((p as u128) << 96);
                seeds.extend(hosting_seeds(
                    prefix,
                    FLEET_SEEDS / FLEET_PREFIXES,
                    &mut rng,
                ));
                let _ = writeln!(table, "{}/32 {}", NybbleAddr::from_bits(prefix), 64_500 + p);
            }
            rng.shuffle(&mut seeds);
            add_hitlist(
                &mut files,
                "seeds.txt".into(),
                &seeds,
                FLEET_SEEDS as u64 * 3 / 2,
            );
            files.push(("routes.txt".into(), table.into_bytes()));
            routes = Some("routes.txt".to_string());
        }
        "serve_jobs" => {
            for i in 0..JOB_SMALL_LISTS + JOB_LARGE_LISTS {
                let count = if i < JOB_SMALL_LISTS {
                    JOB_SMALL_SEEDS
                } else {
                    JOB_LARGE_SEEDS
                };
                let base = base_slash32(&mut rng);
                let seeds = hosting_seeds(base, count, &mut rng);
                add_hitlist(
                    &mut files,
                    format!("job-{i}.txt"),
                    &seeds,
                    count as u64 * JOB_BUDGET_FACTOR,
                );
            }
            // A fixed share of large jobs, at seeded positions.
            for j in 0..JOB_SEQUENCE {
                jobs.push(if j % JOB_LARGE_EVERY == 0 {
                    JOB_SMALL_LISTS + rng.below(JOB_LARGE_LISTS as u64) as usize
                } else {
                    rng.below(JOB_SMALL_LISTS as u64) as usize
                });
            }
            rng.shuffle(&mut jobs);
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    let digest = files
        .iter()
        .fold(FNV_OFFSET, |h, (_, bytes)| fnv1a(h, bytes));
    Ok((
        Inputs {
            workload: workload.to_string(),
            seed,
            hitlists,
            routes,
            jobs,
            digest,
        },
        files,
    ))
}

/// Writes the workload's files and `inputs.json` into `dir`.
pub fn write(workload: &str, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let (inputs, files) = build(workload, seed)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (name, bytes) in &files {
        let path = dir.join(name);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let path = dir.join("inputs.json");
    std::fs::write(&path, to_json(&inputs))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(inputs)
}

pub fn to_json(inputs: &Inputs) -> String {
    let hitlists: Vec<String> = inputs
        .hitlists
        .iter()
        .map(|h| {
            format!(
                "{{\"file\":\"{}\",\"seeds\":{},\"budget\":{}}}",
                h.file, h.seeds, h.budget
            )
        })
        .collect();
    let jobs: Vec<String> = inputs.jobs.iter().map(|j| j.to_string()).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"hitlists\":[{}],\"routes\":{},\"workers\":{},\"jobs\":[{}],\"checkpoint_every\":{},\"digest\":\"{:016x}\"}}\n",
        inputs.workload,
        inputs.seed,
        hitlists.join(","),
        inputs.routes.as_ref().map_or("null".to_string(), |r| format!("\"{r}\"")),
        inputs.routes.as_ref().map_or("null".to_string(), |_| sizes::FLEET_WORKERS.to_string()),
        jobs.join(","),
        if inputs.jobs.is_empty() {
            "null".to_string()
        } else {
            sizes::JOB_CHECKPOINT_EVERY.to_string()
        },
        inputs.digest
    )
}

/// Rebuilds the description of a workload's inputs (the files are
/// regenerated in memory and must match what is on disk).
pub fn load(dir: &Path) -> Result<Inputs, String> {
    let path = dir.join("inputs.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let field = |key: &str| -> Option<&str> {
        let start = text.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &text[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"'))
    };
    let workload = field("workload")
        .ok_or("inputs.json: no workload")?
        .to_string();
    let seed: u64 = field("seed")
        .and_then(|s| s.parse().ok())
        .ok_or("inputs.json: no seed")?;
    let (inputs, files) = build(&workload, seed)?;
    for (name, bytes) in &files {
        let on_disk =
            std::fs::read(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))?;
        if &on_disk != bytes {
            return Err(format!("{name} does not match seed {seed}"));
        }
    }
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in ["generate", "budget_flood", "fleet", "serve_jobs"] {
            let (a, files_a) = build(workload, 7).unwrap();
            let (b, files_b) = build(workload, 7).unwrap();
            let (c, files_c) = build(workload, 8).unwrap();
            assert_eq!(
                files_a, files_b,
                "{workload}: same seed must give same bytes"
            );
            assert_eq!(a.digest, b.digest);
            assert_ne!(
                files_a, files_c,
                "{workload}: other seed must give other bytes"
            );
            assert_ne!(a.digest, c.digest);
            assert_eq!(a.jobs, b.jobs);
        }
    }

    #[test]
    fn shapes_hold_for_every_seed() {
        for seed in 0..4 {
            let (inputs, files) = build("fleet", seed).unwrap();
            assert_eq!(inputs.hitlists[0].seeds, sizes::FLEET_SEEDS);
            let routes = String::from_utf8(files[1].1.clone()).unwrap();
            assert_eq!(routes.lines().count(), sizes::FLEET_PREFIXES);
            let (jobs, _) = build("serve_jobs", seed).unwrap();
            let large = jobs
                .jobs
                .iter()
                .filter(|&&j| j >= sizes::JOB_SMALL_LISTS)
                .count();
            assert_eq!(large, sizes::JOB_SEQUENCE / sizes::JOB_LARGE_EVERY);
        }
    }
}
