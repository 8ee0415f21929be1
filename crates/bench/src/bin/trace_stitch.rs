//! Stitches the per-process flight-recorder dumps of a trace directory
//! (such as the `target/fed_trace_dumps/` that `fed_chaos` leaves behind)
//! into one Chrome/Perfetto trace-event JSON.
//!
//! Usage:
//! `cargo run --release -p plp-bench --bin trace_stitch -- --out STITCHED.json TRACE_DIR`
//!
//! `trace_coordinator.jsonl` anchors the clock and every
//! `trace_worker_*.jsonl` follows in name order. Torn record lines from a
//! killed process are skipped and counted. Exit codes: 0 stitched,
//! 1 unusable dump directory or unwritable output, 2 usage error.

use std::path::Path;
use std::process::ExitCode;

use plp_obs::trace::{read_dump_dir, stitch_chrome_trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, dir) = match args.as_slice() {
        [flag, out, dir] if flag == "--out" => (out, dir),
        _ => {
            eprintln!("usage: trace_stitch --out STITCHED.json TRACE_DIR");
            return ExitCode::from(2);
        }
    };
    let dumps = match read_dump_dir(Path::new(dir)) {
        Ok(dumps) => dumps,
        Err(e) => {
            eprintln!("FAIL {e}");
            return ExitCode::from(1);
        }
    };
    for d in &dumps {
        let torn = match d.skipped_lines {
            0 => String::new(),
            n => format!(" ({n} torn lines skipped)"),
        };
        println!(
            "  {} pid={} reason={:?}: {} records{torn}",
            d.process,
            d.pid,
            d.reason,
            d.records.len()
        );
    }
    if let Err(e) = std::fs::write(out, stitch_chrome_trace(&dumps)) {
        eprintln!("FAIL cannot write {out}: {e}");
        return ExitCode::from(1);
    }
    println!("trace_stitch: wrote {out} — {} processes", dumps.len());
    ExitCode::SUCCESS
}
