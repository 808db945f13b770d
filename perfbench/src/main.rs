//! Command-line entry point: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints each metric by name with its unit, then the JSON
//! result as the last line of standard output.

use std::process::ExitCode;

use mvf_perfbench::{run, sys::result_line, Options, WORKLOADS};

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0xC0FFEE,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = parse_u64(value).ok_or("--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=3600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 3600")?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mvf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mvf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("mvf-perfbench: check failed: {e}");
    }
    for flag in &outcome.regime_flags {
        eprintln!("mvf-perfbench: {flag}");
    }
    if let Some(spans) = &outcome.spans_json {
        let regimes: Vec<String> = outcome.regimes.iter().map(|r| format!("{r:?}")).collect();
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"passes\": {}, \"regimes\": {:?}, \"spans\": {spans}}}\n",
            opts.workload, opts.seed, outcome.passes, regimes
        );
        let path = format!(".bench_out/trace-{}-{}.json", opts.workload, opts.seed);
        if let Err(e) =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, doc))
        {
            eprintln!("mvf-perfbench: writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "# {} seed {} — {} passes, {} jobs, {} failed",
        opts.workload, opts.seed, outcome.passes, outcome.attempted, outcome.failed
    );
    if !outcome.job_walls.is_empty() {
        let walls: Vec<String> = outcome
            .job_walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect();
        println!("# job walls (s): {}", walls.join(" "));
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
