//! `perfbench`: the measuring side of the sixgen benchmark. `run.py`
//! drives it; each subcommand prints one JSON line on stdout.
//!
//! ```text
//! perfbench gen   --workload W --seed N --dir DIR     write the seeded inputs
//! perfbench prep  --dir DIR                           write the mid-run checkpoint
//! perfbench batch --dir DIR --ref FILE --work DIR [--trace]
//! perfbench load  --dir DIR --refs DIR --work DIR --sixgen BIN --seconds S [--trace]
//! ```

mod batch;
mod http;
mod inputs;
mod json;
mod load;
mod util;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(HashMap<String, String>, bool), String> {
    let mut flags = HashMap::new();
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some("trace") => trace = true,
            Some(name) => {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
            }
            None => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    Ok((flags, trace))
}

fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("usage: perfbench gen|prep|batch|load ...")?;
    let (flags, trace) = parse(rest)?;
    let get = |name: &str| flags.get(name).ok_or(format!("--{name} is required"));
    let path = |name: &str| get(name).map(PathBuf::from);
    match command.as_str() {
        "gen" => {
            let seed = get("seed")?
                .parse()
                .map_err(|_| "--seed must be an integer")?;
            let inputs = inputs::write(get("workload")?, seed, &path("dir")?)?;
            Ok(inputs::to_json(&inputs).trim_end().to_string())
        }
        "prep" => {
            let dir = path("dir")?;
            batch::prep(&inputs::load(&dir)?, &dir)
        }
        "batch" => {
            let dir = path("dir")?;
            batch::run(
                &inputs::load(&dir)?,
                &dir,
                &path("work")?,
                &path("ref")?,
                trace,
            )
        }
        "load" => {
            let dir = path("dir")?;
            let seconds: f64 = get("seconds")?
                .parse()
                .map_err(|_| "--seconds must be a number")?;
            load::run(
                &inputs::load(&dir)?,
                &dir,
                &path("refs")?,
                &path("work")?,
                &path("sixgen")?,
                seconds,
                trace,
            )
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
