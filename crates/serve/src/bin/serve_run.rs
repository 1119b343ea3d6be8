//! The run server bin: bind a TCP address and serve line-delimited
//! JSON run requests until a `{"cmd":"shutdown"}` arrives.
//!
//! ```text
//! serve_run [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!           [--dump-dir PATH] [--log-stderr]
//! ```
//!
//! `--dump-dir` writes anomaly bundles to disk; `--log-stderr` mirrors
//! the structured event log to stderr as JSON lines for supervised
//! deployments. An unknown flag or a malformed value exits 2 with the
//! usage line rather than starting a server the caller did not ask for.
//!
//! Prints `serve_run listening on <addr>` once bound, so scripts can
//! wait for readiness by watching stdout (or probing the port).

use serve::server::{Server, ServerConfig};
use serve::tcp;

const USAGE: &str = "usage: serve_run [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--cache N] [--dump-dir PATH] [--log-stderr]";

fn usage_exit(problem: &str) -> ! {
    eprintln!("serve_run: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
}

fn count(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let v = value(args, flag);
    v.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag} {v:?}: expected a non-negative integer")))
}

fn main() {
    let mut addr = "127.0.0.1:7071".to_string();
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            "--addr" => addr = value(&mut args, &flag),
            "--workers" => cfg.workers = count(&mut args, &flag),
            "--queue" => cfg.queue_capacity = count(&mut args, &flag),
            "--cache" => cfg.cache_capacity = count(&mut args, &flag),
            "--dump-dir" => cfg.dump_dir = Some(value(&mut args, &flag).into()),
            "--log-stderr" => cfg.log_stderr = true,
            _ => usage_exit(&format!("unknown flag {flag:?}")),
        }
    }
    eprintln!(
        "serve_run: workers={} queue={} cache={} dump_dir={:?}",
        cfg.workers, cfg.queue_capacity, cfg.cache_capacity, cfg.dump_dir
    );
    let server = Server::start(cfg);
    let result = tcp::serve(server, &addr, |bound| {
        use std::io::Write;
        println!("serve_run listening on {bound}");
        let _ = std::io::stdout().flush();
    });
    if let Err(e) = result {
        eprintln!("serve_run: {e}");
        std::process::exit(1);
    }
    eprintln!("serve_run: drained and stopped");
}
