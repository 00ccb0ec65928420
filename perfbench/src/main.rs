//! Command-line entry of the repository benchmark; see the library docs.

use perfbench::{run, Args, Sizes};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dag-rmat|flood-1m|serve-mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args, &Sizes::FULL) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for failure in &outcome.tally.failures {
                println!("# FAILED: {failure}");
            }
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
