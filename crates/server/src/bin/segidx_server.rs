//! The server binary: bind, print `READY <addr>`, serve until killed.
//!
//! ```text
//! segidx_server [--addr HOST:PORT] [--queue-capacity N]
//!               [--max-frame BYTES] [--trace-sample N]
//! ```
//!
//! `READY <addr>` on stdout (flushed) is the machine-readable signal CI
//! scripts wait for before pointing `loadgen` at the port.

use segidx_server::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: segidx_server [--addr HOST:PORT] [--queue-capacity N] \
         [--max-frame BYTES] [--trace-sample N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--addr" => {
                config.addr = value;
                Ok(())
            }
            "--queue-capacity" => value.parse().map(|v| config.queue_capacity = v),
            "--max-frame" => value.parse().map(|v| config.max_frame = v),
            "--trace-sample" => value.parse().map(|v| config.trace_sample = v),
            _ => return usage(),
        };
        if parsed.is_err() {
            return usage();
        }
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("segidx_server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("READY {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Serve until the process is killed (CI tears the job down; a real
    // deployment would layer SIGTERM handling here).
    loop {
        std::thread::park();
    }
}
