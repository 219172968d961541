//! Thin shell around `lbs_cli`: parse, run, report.

use lbs_cli::{command_names, run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lbs <{}> [--key value]...\n\
                 see `cargo doc -p lbs-cli` for the full command reference",
                command_names().join("|")
            );
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = run(&args, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
