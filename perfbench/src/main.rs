//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable progress, then as its last stdout line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when a run fails or an answer is wrong, 2 on bad arguments.

use perfbench::gen::{Scale, Workload};
use perfbench::{report, run, Config};

/// The seed used when `--seed` is omitted (also recorded, with the
/// held-out seed, in `workloads.json`).
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::CheckHot,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 || cfg.seconds > 3600.0 {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(cfg) {
        Ok(r) => {
            for line in &r.log {
                println!("{line}");
            }
            println!(
                "{}",
                report::result_line(r.correct, r.attempted, r.failed, &r.metrics)
            );
            if !r.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
