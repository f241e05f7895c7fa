//! `simserved` — the sweep-server daemon.
//!
//! ```text
//! simserved [--addr HOST:PORT] [--port-file PATH] [--cache-capacity N]
//!           [--cache-dir PATH] [--handlers N]
//! ```
//!
//! Binds (port 0 = ephemeral), optionally writes the actual bound address
//! to `--port-file` (how scripts discover an ephemeral port), prints it on
//! stdout, and serves until a client sends `{"cmd": "shutdown"}`.
//!
//! Warm checkpoints are spilled to `--cache-dir` (default: the
//! `MPSOC_CACHE_DIR` environment variable when set) and loaded lazily on a
//! miss, so a restarted server pointed at the same directory answers its
//! first request from a warm fork instead of re-warming.

use mpsoc_server::{Server, ServerConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: simserved [--addr HOST:PORT] [--port-file PATH] [--cache-capacity N]\n\
         \x20                [--cache-dir PATH] [--handlers N]\n\
         \n\
         Serves the JSON-lines sweep protocol until a shutdown request.\n\
         --addr                bind address (default 127.0.0.1:0 = ephemeral port)\n\
         --port-file PATH      write the bound address to PATH once listening\n\
         --cache-capacity N    warm checkpoints kept alive (default 8)\n\
         --cache-dir PATH      spill warm checkpoints here and reload them after a\n\
         \x20                    restart (default: $MPSOC_CACHE_DIR; unset = no spill)\n\
         --handlers N          request handler threads (default: sized from cores)"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<String> = None;
    let mut config = ServerConfig {
        cache_dir: std::env::var_os("MPSOC_CACHE_DIR").map(Into::into),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--port-file" => port_file = Some(args.next().unwrap_or_else(|| usage())),
            "--cache-capacity" => {
                config.cache_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cache-dir" => {
                config.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--handlers" => {
                config.handlers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let server = match Server::bind(&addr, &config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("simserved: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{bound}\n")) {
            eprintln!("simserved: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("simserved listening on {bound}");
    if let Err(e) = server.run() {
        eprintln!("simserved: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
