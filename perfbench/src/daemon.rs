//! Starting the in-process daemon the served workloads talk to.

use std::path::Path;
use std::time::Instant;

use fork_archive::SIDECAR_FILE;
use fork_serve::{ServeConfig, Server, ServerHandle};

use crate::stats::median;
use crate::Gate;

/// Cold starts timed per run; the median is reported.
pub const SETUP_REPS: usize = 3;

/// A running daemon and its address.
pub struct Daemon {
    pub handle: ServerHandle,
    pub addr: String,
}

/// Cold-starts the daemon over `dir` [`SETUP_REPS`] times, each time with
/// the sidecar removed, up to the reply to `first_touch` (which pays any
/// lazy build the workload's first request would). Keeps the last daemon
/// running and returns it with the median cold-start seconds.
pub fn start_cold(
    dir: &Path,
    tracing: bool,
    first_touch: impl Fn(&str) -> Gate<()>,
) -> Gate<(Daemon, f64)> {
    let mut times = Vec::new();
    let mut running: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = running.take() {
            d.handle.shutdown();
        }
        let _ = std::fs::remove_file(dir.join(SIDECAR_FILE));
        let t = Instant::now();
        let mut cfg = ServeConfig::new(dir);
        cfg.tracing = tracing;
        let handle = Server::start(cfg).map_err(|e| format!("start daemon: {e}"))?;
        let addr = handle.local_addr().to_string();
        first_touch(&addr)?;
        times.push(t.elapsed().as_secs_f64());
        running = Some(Daemon { handle, addr });
    }
    let daemon = running.expect("SETUP_REPS is at least one");
    Ok((daemon, median(&times)))
}
