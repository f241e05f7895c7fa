//! The `simserved` child process: spawned on an ephemeral port, always
//! stopped and its scratch directory removed, on failure too.

use crate::client::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Finds the `simserved` release binary: `MPSOC_SIMSERVED` (set by
/// `run.sh`), else the target directories a build leaves it in.
///
/// # Errors
///
/// Names the places searched.
pub fn locate_simserved(bench_dir: &Path) -> Result<PathBuf, String> {
    let mut candidates = Vec::new();
    if let Some(path) = std::env::var_os("MPSOC_SIMSERVED") {
        candidates.push(PathBuf::from(path));
    }
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        candidates.push(PathBuf::from(dir).join("release/simserved"));
    }
    candidates.push(bench_dir.join("../target/release/simserved"));
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .ok_or_else(|| {
            format!(
                "simserved binary not found (looked at {candidates:?}); run benchmark/run.sh, which builds it"
            )
        })
}

/// A running `simserved`. Dropping it kills the process, waits for it and
/// removes its scratch directory.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    addr: String,
    scratch: PathBuf,
}

/// Distinguishes the scratch directories of one harness process.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

impl ServerProc {
    /// Spawns `binary` with default flags plus `--port-file`, and
    /// `--cache-dir` inside the scratch directory when `spill` is set.
    /// The scratch directory lives under `out_dir`.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start or does not publish its
    /// address within ten seconds.
    pub fn spawn(binary: &Path, out_dir: &Path, spill: bool) -> Result<ServerProc, String> {
        let scratch = out_dir.join(format!(
            "simserved-{}-{}",
            std::process::id(),
            SPAWNED.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let port_file = scratch.join("addr");
        let mut command = Command::new(binary);
        command
            .arg("--port-file")
            .arg(&port_file)
            .env_remove("MPSOC_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if spill {
            command.arg("--cache-dir").arg(scratch.join("spill"));
        }
        let child = command
            .spawn()
            .map_err(|e| format!("{}: {e}", binary.display()))?;
        // From here on the guard owns the child: an early return drops it,
        // which kills the process and clears the directory.
        let mut server = ServerProc {
            child,
            addr: String::new(),
            scratch,
        };
        // For run.sh's exit trap, should this process die without dropping.
        let pid_file = server.scratch.join("pid");
        std::fs::write(&pid_file, server.pid().to_string())
            .map_err(|e| format!("{}: {e}", pid_file.display()))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("simserved exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("simserved did not publish its address within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// Reports a refused shutdown or a non-zero exit status; the process
    /// is killed by the drop that follows either way.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let answer = client
            .roundtrip("{\"cmd\":\"shutdown\"}")
            .map_err(|e| format!("shutdown: {e}"))?;
        if !answer.contains("\"shutdown\":true") {
            return Err(format!("shutdown refused: {answer}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("simserved exited with {status}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Errors are ignored: the process may already have exited.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
