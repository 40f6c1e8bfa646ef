//! Command line of the campaign benchmark:
//!
//! ```text
//! nlft-perfbench --workload <cluster-zoo|node-zoo|fig12-montecarlo>
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host section and human-readable lines, then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. A traced run
//! also writes its spans next to the executable.

use std::process::ExitCode;

use nlft_perfbench::{run, Args};
use nlft_testkit::json::Json;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("host {}", report.host);
    for line in &report.lines {
        println!("{line}");
    }
    for (def, value) in &report.metrics {
        println!("metric {} {value} {}", def.name, def.unit);
    }
    for message in &report.checks.messages {
        println!("FAILED {message}");
    }
    if args.trace {
        let path = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
            .unwrap_or_default()
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        let doc = Json::obj([
            ("host", report.host.clone()),
            ("spans", report.tracer.to_json()),
        ]);
        match std::fs::write(&path, doc.to_string()) {
            Ok(()) => println!(
                "spans {} written to {}",
                report.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
