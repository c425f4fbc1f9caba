//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one benchmark invocation and prints its JSON result as the last
//! stdout line. Exits 2 on a usage error and 1 when the run cannot complete.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            eprintln!(
                "perfbench: {} seed {} trace {}: correct={} attempted={} failed={} error_rate={}\n{}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                outcome.metrics.table()
            );
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
