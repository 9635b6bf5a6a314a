//! `webcache` — command-line front end for the webcache workspace.
//!
//! See `webcache help` for usage; all logic lives in the library so it
//! can be tested without spawning processes.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match webcache_cli::run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if let webcache_cli::CliError::Usage(_) = e {
                eprintln!("run `webcache help` for usage");
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
