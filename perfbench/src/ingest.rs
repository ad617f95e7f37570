//! The archive write path, timed per layer on a traced `research-month`
//! run.
//!
//! The input is the fork month's ledger stream, `ForkStudy::days(2016, 31)`
//! as the code under test archived it, read back from the month archive
//! into memory. It is written into a fresh `ArchiveWriter` [`WRITES`] times,
//! each record handed over as a fresh copy as the study's tee does; the
//! written archive must have the source's fingerprint, verify clean, and
//! replay the five figures equal to the source's. The meso engine then
//! simulates the month again, and its stream must equal the archived one.
//!
//! The write path has no workload of its own: as the operation of an
//! `ingest-month` workload, the month's write (half a second) moved by 0.14
//! to 0.20 (quartile distance over median) over ten seeds on a shared
//! 2-vCPU machine, and its ten-run median by 0.18 between two sets, too
//! close to the largest bound a gated metric may have; timing
//! `ForkStudy::archive_to` instead, meso engine four fifths of it, moved by
//! 0.24 to 0.28.

use std::path::Path;
use std::time::Instant;

use fork_analytics::{BlockRecord, TxRecord};
use fork_archive::{archive_fingerprint, ArchiveMeta, ArchiveReader, ArchiveStats, ArchiveWriter};
use fork_core::{ForkStudy, StudyResult};
use fork_sim::{LedgerSink, TwoChainEngine};

use crate::stats::median;
use crate::{data, ensure, Ctx, Gate, Report};

/// Writes of the month timed; the median is reported.
const WRITES: usize = 3;

/// The figure exports of a study, as CSV text.
fn figure_csvs(result: &StudyResult) -> Vec<(String, String)> {
    result
        .all_figures()
        .iter()
        .map(|f| (f.id.to_string(), fork_analytics::to_csv(&f.all_series())))
        .collect()
}

/// The ledger stream, in order.
#[derive(Default, PartialEq)]
struct Recorder(Vec<Record>);

#[derive(PartialEq)]
enum Record {
    Block(BlockRecord),
    Tx(TxRecord),
}

impl LedgerSink for Recorder {
    fn block(&mut self, record: BlockRecord) {
        self.0.push(Record::Block(record));
    }
    fn tx(&mut self, record: TxRecord) {
        self.0.push(Record::Tx(record));
    }
}

/// Writes `stream` into a new archive at `dir`.
fn write(dir: &Path, stream: &Recorder, meta: ArchiveMeta) -> Gate<ArchiveStats> {
    let mut writer = ArchiveWriter::create(dir).map_err(|e| format!("create archive: {e}"))?;
    for r in &stream.0 {
        match r {
            Record::Block(b) => writer.block(b.clone()),
            Record::Tx(x) => writer.tx(x.clone()),
        }
    }
    writer
        .finish(Some(meta))
        .map_err(|e| format!("finish archive: {e}"))
}

/// Timings of the checks run over a written archive.
struct Checked {
    verify_ms: f64,
    replay_s: f64,
}

/// Checks the archive at `dir` against the source month: same fingerprint,
/// clean `verify()`, and the figures `expected` replayed.
fn check_archive(dir: &Path, fingerprint: [u8; 4], expected: &[(String, String)]) -> Gate<Checked> {
    let t = Instant::now();
    let reader = ArchiveReader::open(dir).map_err(|e| format!("reopen archive: {e}"))?;
    let verify = reader.verify();
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    let (ok, corrupt, torn) = verify.totals();
    ensure!(
        verify.is_clean() && ok > 0,
        "verify: {ok} frames ok, {corrupt} corrupt, {torn} torn bytes"
    );
    ensure!(
        archive_fingerprint(&reader) == fingerprint,
        "the written archive differs from the source month"
    );
    let t = Instant::now();
    let replayed = StudyResult::from_archive(dir).map_err(|e| format!("replay: {e}"))?;
    let replay_s = t.elapsed().as_secs_f64();
    ensure!(
        figure_csvs(&replayed) == expected,
        "the figures replayed from the written archive differ from the source's"
    );
    Ok(Checked {
        verify_ms,
        replay_s,
    })
}

/// Times the write path over the month archive at `source`; see the module
/// docs.
pub fn layers(ctx: &Ctx, source: &Path, report: &mut Report) -> Gate<()> {
    let dir = ctx.work.join("ingest");
    let reader = ArchiveReader::open(source).map_err(|e| format!("open month: {e}"))?;
    let meta = reader
        .meta()
        .ok_or("the month archive has no manifest meta")?;
    let fingerprint = archive_fingerprint(&reader);
    let mut stream = Recorder::default();
    reader
        .replay_into_sink(&mut stream)
        .map_err(|e| format!("read the month: {e}"))?;
    drop(reader);
    let expected = StudyResult::from_archive(source).map_err(|e| format!("replay: {e}"))?;
    let expected = figure_csvs(&expected);

    let mut times = Vec::new();
    let mut stats = None;
    for _ in 0..WRITES {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        stats = Some(
            ctx.tracer
                .span("archive.write", None, |_| write(&dir, &stream, meta))?,
        );
        times.push(t.elapsed().as_secs_f64());
    }
    let stats = stats.expect("at least one write");
    let checked = check_archive(&dir, fingerprint, &expected)?;
    let _ = std::fs::remove_dir_all(&dir);
    let write_s = median(&times);
    report.layer("archive.write_s", write_s, "s");
    report.layer(
        "archive.write_mb_per_s",
        stats.bytes as f64 / 1e6 / write_s,
        "MB/s",
    );
    report.layer("archive.bytes_written", stats.bytes as f64, "bytes");
    report.layer("archive.verify_ms", checked.verify_ms, "ms");
    report.layer("core.replay_s", checked.replay_s, "s");

    let mut study = ForkStudy::days(data::ARCHIVE_SEED, data::MONTH_DAYS);
    let config = study.config_mut().clone();
    let t = Instant::now();
    let live = ctx.tracer.span("sim.meso.run", None, |_| {
        let mut recorder = Recorder::default();
        TwoChainEngine::new(config).run(&mut recorder);
        recorder
    });
    let run_s = t.elapsed().as_secs_f64();
    ensure!(
        live == stream,
        "the meso engine's month differs from the archived one"
    );
    report.layer("sim.meso.run_s", run_s, "s");
    report.layer(
        "sim.meso.sim_days_per_s",
        data::MONTH_DAYS as f64 / run_s,
        "1/s",
    );
    report.attempted += WRITES as u64 + 1;
    Ok(())
}
