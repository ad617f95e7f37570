//! The one-month archive the read workloads serve.
//!
//! It is built once per benchmark binary by the code under test (the study
//! seed is fixed, so every run reads the same month) and cached under the
//! data directory. Each run works on a fresh copy that holds the segments
//! and `manifest.json` only: no hash-index sidecar, so every index or
//! accelerator the run needs is built inside the run.

use std::path::{Path, PathBuf};

use fork_archive::SIDECAR_FILE;
use fork_core::ForkStudy;
use fork_serve::{encode_request, Request, RequestBody};

use fork_telemetry::json::Value;

use crate::Gate;

/// Seed of the archived month: the paper's fork year.
pub const ARCHIVE_SEED: u64 = 2016;
/// Days in the archived window (the fork month).
pub const MONTH_DAYS: u64 = 31;

/// Returns the cached pristine month archive, building it first if absent.
pub fn month_archive(data: &Path) -> Gate<PathBuf> {
    let dir = data.join(format!("month-{ARCHIVE_SEED}"));
    if dir.join("manifest.json").is_file() {
        return Ok(dir);
    }
    let tmp = data.join(format!("month-{ARCHIVE_SEED}.tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    eprintln!("perfbench: building the {MONTH_DAYS}-day archive (seed {ARCHIVE_SEED}) once...");
    ForkStudy::days(ARCHIVE_SEED, MONTH_DAYS)
        .archive_to(&tmp)
        .map_err(|e| format!("archive the month: {e}"))?;
    let _ = std::fs::remove_file(tmp.join(SIDECAR_FILE));
    std::fs::rename(&tmp, &dir).map_err(|e| format!("publish archive: {e}"))?;
    Ok(dir)
}

/// Copies the archive at `src` into `dst`, leaving out any sidecar.
pub fn fresh_copy(src: &Path, dst: &Path) -> Gate<()> {
    let _ = std::fs::remove_dir_all(dst);
    copy_tree(src, dst).map_err(|e| format!("copy {} -> {}: {e}", src.display(), dst.display()))
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with(SIDECAR_FILE)) {
            continue;
        }
        let from = entry.path();
        let to = dst.join(&name);
        if entry.file_type()?.is_dir() {
            copy_tree(&from, &to)?;
        } else {
            std::fs::copy(&from, &to)?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Times the archive layer on its own over a fresh copy of `pristine` in
/// `scratch`: open, hash-index sidecar build, and the sidecar's size.
pub fn archive_layers(pristine: &Path, scratch: &Path, report: &mut crate::Report) -> Gate<()> {
    fresh_copy(pristine, scratch)?;
    let t = std::time::Instant::now();
    let reader = fork_archive::ArchiveReader::open(scratch).map_err(|e| format!("open: {e}"))?;
    report.layer("archive.open_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let t = std::time::Instant::now();
    let index = fork_archive::HashIndex::build(&reader);
    index
        .write_to(scratch)
        .map_err(|e| format!("write sidecar: {e}"))?;
    report.layer(
        "archive.sidecar_build_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let bytes = std::fs::metadata(scratch.join(SIDECAR_FILE))
        .map_err(|e| format!("sidecar: {e}"))?
        .len();
    report.layer("archive.sidecar_mb", bytes as f64 / 1e6, "MB");
    report.note("sidecar_entries", Value::Num(index.len() as f64));
    let _ = std::fs::remove_dir_all(scratch);
    Ok(())
}

/// Digest of a request list, keying its cached answers.
fn requests_key(bodies: &[RequestBody]) -> u64 {
    let mut bytes = Vec::new();
    for body in bodies {
        bytes.extend(encode_request(&Request {
            id: 0,
            body: body.clone(),
        }));
    }
    crate::wire::digest(&bytes)
}

/// The answer digests cached for `bodies` under `name`, if present.
pub fn cached_answers(data: &Path, name: &str, bodies: &[RequestBody]) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(data.join(format!("{name}-answers"))).ok()?;
    let mut lines = text.lines().map(|l| u64::from_str_radix(l, 16));
    if lines.next()?.ok()? != requests_key(bodies) {
        return None;
    }
    let answers: Vec<u64> = lines.collect::<Result<_, _>>().ok()?;
    (answers.len() == bodies.len()).then_some(answers)
}

/// Caches the answer digests of `bodies` under `name`.
pub fn cache_answers(data: &Path, name: &str, bodies: &[RequestBody], answers: &[u64]) -> Gate<()> {
    let mut text = format!("{:016x}\n", requests_key(bodies));
    for a in answers {
        text.push_str(&format!("{a:016x}\n"));
    }
    let path = data.join(format!("{name}-answers"));
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("cache answers: {e}"))
}
