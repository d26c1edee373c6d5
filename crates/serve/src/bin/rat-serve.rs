//! The sweep server binary.
//!
//! ```text
//! rat-serve [--addr HOST:PORT] [--journal PATH] [--max-inflight N]
//!           [--retry-after-ms N] [--cell-timeout SECS] [--threads N]
//!           [--fault-plan SPEC]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once bound (with the real port
//! when the requested port was `0`), then serves until a `SHUTDOWN`
//! request or SIGTERM drains it — at which point it exits 0 with a
//! complete, compacted journal.

use std::time::Duration;

use rat_core::FaultPlan;
use rat_serve::{install_sigterm_handler, Server, ServerConfig};

fn parse_args(args: impl Iterator<Item = String>) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let value = |args: &mut std::iter::Peekable<_>| -> String {
            let v: Option<String> = Iterator::next(args);
            v.unwrap_or_else(|| panic!("expected a value after {a}"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value(&mut args),
            "--journal" => cfg.journal = Some(value(&mut args).into()),
            "--max-inflight" => {
                cfg.max_inflight = value(&mut args)
                    .parse()
                    .unwrap_or_else(|_| panic!("bad --max-inflight"));
            }
            "--retry-after-ms" => {
                cfg.retry_after_ms = value(&mut args)
                    .parse()
                    .unwrap_or_else(|_| panic!("bad --retry-after-ms"));
            }
            "--cell-timeout" => {
                let secs: f64 = value(&mut args)
                    .parse()
                    .unwrap_or_else(|_| panic!("bad --cell-timeout"));
                assert!(secs.is_finite() && secs >= 0.0, "bad --cell-timeout");
                cfg.cell_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--threads" => {
                cfg.threads = value(&mut args)
                    .parse()
                    .unwrap_or_else(|_| panic!("bad --threads"));
            }
            "--fault-plan" => {
                cfg.fault_plan =
                    Some(FaultPlan::parse(&value(&mut args)).unwrap_or_else(|e| panic!("{e}")));
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --addr HOST:PORT (default 127.0.0.1:0)  --journal PATH  \
                     --max-inflight N  --retry-after-ms N  --cell-timeout SECS  \
                     --threads N (0=all cores)  --fault-plan SPEC"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    cfg
}

fn main() {
    let cfg = parse_args(std::env::args().skip(1));
    install_sigterm_handler();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rat-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTENING {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            eprintln!("rat-serve: drained cleanly");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("rat-serve: {e}");
            std::process::exit(1);
        }
    }
}
