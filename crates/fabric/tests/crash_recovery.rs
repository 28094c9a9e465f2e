//! Coordinator crash recovery: the write-ahead sweep journal must make a
//! `kill -9` mid-sweep invisible in the final report.
//!
//! Two layers of proof:
//!
//! 1. A deterministic in-process test plants a journal holding an
//!    accepted spec and two of its four cell results, then binds a fresh
//!    coordinator on it — the resumed sweep must finish the two missing
//!    cells only and render a report byte-identical to a direct run.
//! 2. A subprocess test SIGKILLs a real `dice-fabric coordinator` the
//!    moment its journal shows a completed cell, restarts it on the same
//!    journal, and demands the same byte-identical report.
//!
//! A third test shows that a finished cell reaches the journal while its
//! scatter round's slower dispatches are still out, so a kill mid-round
//! loses none of the cells that round finished.

use std::io::BufRead;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dice_core::FaultKind;
use dice_fabric::{
    render_run_object, Coordinator, CoordinatorConfig, CoordinatorHandle, HashRing, Journal,
    JournalRecord, Worker, WorkerConfig, DEFAULT_VNODES,
};
use dice_obs::Json;
use dice_runner::{cell_key, Runner, RunnerConfig};
use dice_serve::net::NetConfig;
use dice_serve::{http_get, http_post, render_runs, sse_data_lines, sweep_key, SweepSpec};

/// A fresh scratch directory under the system temp dir, removed when the
/// guard drops: at the end of the test, after the nodes using it stopped.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("dice-fabric-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The fast 4-cell spec used by the in-process tests.
fn spec_text(seed: u64) -> String {
    format!(
        r#"{{"orgs":["base","dice36"],"workloads":["gcc","mcf"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
    )
}

/// A 4-cell spec slow enough (~0.5s+ per cell in debug builds) that a
/// subprocess kill lands mid-sweep instead of after completion.
fn slow_spec_text(seed: u64) -> String {
    format!(
        r#"{{"orgs":["base","dice36"],"workloads":["gcc","mcf"],"scale":4096,"warmup":1000,"measure":20000,"seed":{seed}}}"#
    )
}

/// An 8-cell spec: two organizations on four workloads.
fn wide_spec_text(seed: u64) -> String {
    format!(
        r#"{{"orgs":["base","dice36"],"workloads":["gcc","mcf","lbm","soplex"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
    )
}

/// Whether the journal at `path` holds `needle` (its records are JSON
/// text inside checksummed frames).
fn journal_holds(path: &std::path::Path, needle: &[u8]) -> bool {
    let bytes = std::fs::read(path).unwrap_or_default();
    bytes.windows(needle.len()).any(|w| w == needle)
}

/// What a direct single-node `dice-runner` invocation renders for `spec`.
fn direct_report(spec: &str, cache: Scratch) -> String {
    let spec = SweepSpec::parse(spec).expect("valid spec");
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        cache_dir: Some(cache.0.clone()),
        ..RunnerConfig::default()
    })
    .expect("runner");
    render_runs(&runner.run(spec.to_cells())).render()
}

struct TestWorker {
    addr: String,
    handle: dice_fabric::WorkerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    /// The worker's cache, removed after `drop` has stopped the worker.
    _cache: Scratch,
}

impl TestWorker {
    fn boot(cache: Scratch) -> Self {
        Self::boot_with(cache, None)
    }

    /// A worker whose every cell hangs (the injected `cell-timeout`
    /// fault) until its `hold` watchdog answers it as timed out. Each
    /// cell gets a connection worker of its own, so all of them hold at
    /// once.
    fn holding(cache: Scratch, hold: Duration) -> Self {
        Self::boot_with(cache, Some(hold))
    }

    fn boot_with(cache: Scratch, hold: Option<Duration>) -> Self {
        let worker = Worker::bind(WorkerConfig {
            net: NetConfig {
                port: 0,
                conn_workers: if hold.is_some() { 8 } else { 2 },
                conn_backlog: 16,
            },
            runner: RunnerConfig {
                jobs: 1,
                cache_dir: Some(cache.0.clone()),
                cell_timeout: hold,
                ..RunnerConfig::default()
            },
            inject: hold.map(|_| FaultKind::CellTimeout),
        })
        .expect("bind worker");
        let addr = worker.local_addr().expect("worker addr").to_string();
        let handle = worker.handle();
        let thread = std::thread::spawn(move || worker.run().expect("worker run"));
        TestWorker {
            addr,
            handle,
            thread: Some(thread),
            _cache: cache,
        }
    }
}

impl Drop for TestWorker {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

struct TestCoordinator {
    addr: String,
    handle: CoordinatorHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestCoordinator {
    fn boot(workers: &[&TestWorker], journal: PathBuf) -> Self {
        let coordinator = Coordinator::bind(CoordinatorConfig {
            net: NetConfig {
                port: 0,
                conn_workers: 4,
                conn_backlog: 16,
            },
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
            backoff: Duration::from_millis(10),
            cell_timeout: Duration::from_secs(30),
            journal: Some(journal),
            ..CoordinatorConfig::default()
        })
        .expect("bind coordinator");
        let addr = coordinator
            .local_addr()
            .expect("coordinator addr")
            .to_string();
        let handle = coordinator.handle();
        let thread = std::thread::spawn(move || coordinator.run().expect("coordinator run"));
        TestCoordinator {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    fn shutdown(mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("coordinator thread");
        }
    }
}

impl Drop for TestCoordinator {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Polls `GET /v1/sweeps/:id` to `done`; returns the report bytes.
fn await_report(addr: &str, id: &str, budget: Duration) -> String {
    let deadline = Instant::now() + budget;
    loop {
        let status = http_get(addr, &format!("/v1/sweeps/{id}")).expect("GET status");
        assert_eq!(status.status, 200, "status body: {}", status.text());
        let doc = Json::parse(&status.text()).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => panic!("sweep failed: {}", status.text()),
            _ => {
                assert!(Instant::now() < deadline, "sweep never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    let report = http_get(addr, &format!("/v1/sweeps/{id}/report")).expect("GET report");
    assert_eq!(report.status, 200);
    report.text()
}

/// The `replayed` count from the sweep's `resumed` SSE event, if any.
fn replayed_count(addr: &str, id: &str) -> Option<u64> {
    let resp = http_get(addr, &format!("/v1/sweeps/{id}/events")).expect("GET events");
    assert_eq!(resp.status, 200);
    sse_data_lines(&resp.text()).iter().find_map(|line| {
        let doc = Json::parse(line).expect("event JSON");
        (doc.get("event").and_then(Json::as_str) == Some("resumed")).then(|| {
            doc.get("replayed")
                .and_then(Json::as_u64)
                .expect("replayed")
        })
    })
}

#[test]
fn planted_journal_resumes_only_missing_cells() {
    let spec_json = spec_text(31);
    let direct = direct_report(&spec_json, scratch("plant-direct"));
    let spec = SweepSpec::parse(&spec_json).expect("valid spec");
    let id = sweep_key(&spec.to_cells());
    let id_text = format!("{id:016x}");

    // Plant a journal: the sweep was accepted and two of its four cells
    // finished before the "crash". The outcomes come from a real runner
    // so they are exactly what a worker would have journaled.
    let journal_dir = scratch("plant-journal");
    let journal_path = journal_dir.0.join("sweep.journal");
    let prerun_cache = scratch("plant-prerun");
    let runner = Runner::new(RunnerConfig {
        jobs: 1,
        cache_dir: Some(prerun_cache.0.clone()),
        ..RunnerConfig::default()
    })
    .expect("runner");
    let mut cells = spec.to_cells();
    let prerun: Vec<_> = cells.drain(..2).collect();
    let result = runner.run(prerun);
    assert_eq!(result.outcomes.len(), 2);
    {
        let (journal, recovery) = Journal::open(&journal_path).expect("open journal");
        assert!(recovery.records.is_empty());
        journal
            .append(&JournalRecord::Accepted {
                sweep: id,
                spec: spec.to_json(),
            })
            .expect("append accepted");
        for ((tag, workload), outcome) in &result.outcomes {
            journal
                .append(&JournalRecord::Cell {
                    sweep: id,
                    run: render_run_object(tag, workload, outcome),
                })
                .expect("append cell");
        }
    }

    // A coordinator bound on that journal resumes the sweep without any
    // POST: the job is queryable immediately and completes the two
    // missing cells on the live workers.
    let w0 = TestWorker::boot(scratch("plant-w0"));
    let w1 = TestWorker::boot(scratch("plant-w1"));
    let coordinator = TestCoordinator::boot(&[&w0, &w1], journal_path.clone());
    let report = await_report(&coordinator.addr, &id_text, Duration::from_secs(60));
    assert_eq!(report, direct, "resumed report diverged from direct run");
    assert_eq!(
        replayed_count(&coordinator.addr, &id_text),
        Some(2),
        "resume must replay exactly the journaled cells"
    );
    coordinator.shutdown();

    // The journal now tells the whole story: one accepted record, one
    // cell record per cell (replayed cells are never re-journaled), and
    // a clean done record.
    let (_, recovery) = Journal::open(&journal_path).expect("reopen journal");
    assert_eq!(recovery.dropped_bytes, 0);
    let mut accepted = 0;
    let mut cells_logged = Vec::new();
    let mut done = 0;
    for record in &recovery.records {
        match record {
            JournalRecord::Accepted { sweep, .. } => {
                assert_eq!(*sweep, id);
                accepted += 1;
            }
            JournalRecord::Cell { sweep, run } => {
                assert_eq!(*sweep, id);
                cells_logged.push(run.render());
            }
            JournalRecord::Done { sweep, degraded } => {
                assert_eq!(*sweep, id);
                assert_eq!(*degraded, None);
                done += 1;
            }
        }
    }
    assert_eq!(accepted, 1);
    assert_eq!(done, 1);
    assert_eq!(cells_logged.len(), 4, "one cell record per cell, no dupes");
}

#[test]
fn finished_sweeps_are_not_resurrected() {
    let spec = SweepSpec::parse(&spec_text(32)).expect("valid spec");
    let id = sweep_key(&spec.to_cells());
    let journal_dir = scratch("done-journal");
    let journal_path = journal_dir.0.join("sweep.journal");
    {
        let (journal, _) = Journal::open(&journal_path).expect("open journal");
        journal
            .append(&JournalRecord::Accepted {
                sweep: id,
                spec: spec.to_json(),
            })
            .expect("append accepted");
        journal
            .append(&JournalRecord::Done {
                sweep: id,
                degraded: None,
            })
            .expect("append done");
    }
    let worker = TestWorker::boot(scratch("done-w0"));
    let coordinator = TestCoordinator::boot(&[&worker], journal_path);
    let resp = http_get(&coordinator.addr, &format!("/v1/sweeps/{id:016x}")).expect("GET status");
    assert_eq!(resp.status, 404, "finished sweep was resumed");
    coordinator.shutdown();
}

/// Spawns a `dice-fabric coordinator` subprocess and scrapes its bound
/// address off stdout.
fn spawn_coordinator(
    workers: &[&TestWorker],
    journal: &std::path::Path,
) -> (std::process::Child, String) {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dice-fabric"));
    cmd.arg("coordinator").args(["--port", "0"]);
    for worker in workers {
        cmd.args(["--worker", &worker.addr]);
    }
    cmd.arg("--journal").arg(journal);
    cmd.args(["--scatter-width", "1", "--backoff-ms", "10"]);
    cmd.stdout(std::process::Stdio::piped());
    cmd.stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().expect("spawn coordinator");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("coordinator announced")
        .expect("read stdout");
    let addr = line
        .rsplit(' ')
        .next()
        .expect("address in announcement")
        .to_owned();
    assert!(
        line.contains("listening on"),
        "unexpected announcement: {line}"
    );
    (child, addr)
}

#[test]
fn sigkilled_coordinator_resumes_to_byte_identical_report() {
    let spec = slow_spec_text(33);
    let direct = direct_report(&spec, scratch("kill-direct"));
    let journal_dir = scratch("kill-journal");
    let journal_path = journal_dir.0.join("sweep.journal");

    // Workers are in-process so they survive the coordinator's death —
    // exactly the production topology, where only the coordinator host
    // reboots.
    let w0 = TestWorker::boot(scratch("kill-w0"));
    let w1 = TestWorker::boot(scratch("kill-w1"));

    let (mut child, addr) = spawn_coordinator(&[&w0, &w1], &journal_path);
    let resp = http_post(&addr, "/v1/sweeps", &spec).expect("POST sweep");
    assert_eq!(resp.status, 202, "submit body: {}", resp.text());
    let id = Json::parse(&resp.text())
        .expect("submit JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned();

    // SIGKILL the moment the journal holds a completed cell: the sweep
    // is provably mid-flight (cells remain) and provably started (one
    // durable result exists).
    let deadline = Instant::now() + Duration::from_secs(60);
    while !journal_holds(&journal_path, br#""record":"cell""#) {
        assert!(Instant::now() < deadline, "no cell ever journaled");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL coordinator");
    child.wait().expect("reap coordinator");

    // Restart on the same journal: the sweep must already exist (no
    // re-POST), finish the remaining cells, and render the same bytes a
    // direct run does.
    let (mut child, addr) = spawn_coordinator(&[&w0, &w1], &journal_path);
    let report = await_report(&addr, &id, Duration::from_secs(120));
    assert_eq!(report, direct, "post-crash report diverged from direct run");
    let replayed = replayed_count(&addr, &id).expect("resumed event");
    assert!(
        (1..4).contains(&replayed),
        "kill landed outside the mid-sweep window: replayed={replayed}"
    );
    child.kill().expect("stop second coordinator");
    child.wait().expect("reap second coordinator");

    // The journal survived two coordinators and one SIGKILL with exactly
    // one record per event: 1 accepted + 4 cells + 1 done, no torn tail.
    let (_, recovery) = Journal::open(&journal_path).expect("reopen journal");
    assert_eq!(recovery.dropped_bytes, 0, "torn tail after clean finish");
    let cells = recovery
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Cell { .. }))
        .count();
    let accepted = recovery
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Accepted { .. }))
        .count();
    let done = recovery
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Done { .. }))
        .count();
    assert_eq!((accepted, cells, done), (1, 4, 1), "journal record counts");
}

/// A scatter round applies each dispatch result as it arrives. With w1
/// holding every cell it owns, w0's finished cells must reach the
/// journal within half the hold — while w1's dispatches are still out —
/// rather than when the round's slowest dispatch returns. The held cells
/// then time out on w1, complete on w0 next round, and the report is
/// still the direct run's bytes.
#[test]
fn finished_cells_are_journaled_while_the_round_is_still_out() {
    const HOLD: Duration = Duration::from_secs(5);
    let spec = wide_spec_text(34);
    // The ring the coordinator builds splits the sweep: w1 holds some
    // cells and w0 finishes the others.
    let mut ring = HashRing::new(DEFAULT_VNODES);
    ring.add("w0");
    ring.add("w1");
    let cells = SweepSpec::parse(&spec).expect("valid spec").to_cells();
    let held = cells
        .iter()
        .filter(|c| ring.owner(cell_key(&c.cfg, &c.workload)) == Some("w1"))
        .count();
    assert!(
        (1..cells.len()).contains(&held),
        "w1 owns {held} of {} cells",
        cells.len()
    );

    let direct = direct_report(&spec, scratch("hold-direct"));
    let journal_dir = scratch("hold-journal");
    let journal_path = journal_dir.0.join("sweep.journal");
    let w0 = TestWorker::boot(scratch("hold-w0"));
    let w1 = TestWorker::holding(scratch("hold-w1"), HOLD);
    let coordinator = TestCoordinator::boot(&[&w0, &w1], journal_path.clone());
    let submitted = Instant::now();
    let resp = http_post(&coordinator.addr, "/v1/sweeps", &spec).expect("POST sweep");
    assert_eq!(resp.status, 202, "submit body: {}", resp.text());
    let id = Json::parse(&resp.text())
        .expect("submit JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned();

    // A completed cell's run object carries its report.
    while !journal_holds(&journal_path, br#""record":"cell""#)
        || !journal_holds(&journal_path, br#""report":{"#)
    {
        assert!(
            submitted.elapsed() < HOLD / 2,
            "no finished cell journaled within {:?}, while w1 still held its cells",
            HOLD / 2
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = await_report(&coordinator.addr, &id, Duration::from_secs(60));
    assert!(
        submitted.elapsed() >= HOLD,
        "the sweep finished before w1 answered its held cells"
    );
    assert_eq!(
        report, direct,
        "held cells must complete on w0 with the same bytes"
    );
    coordinator.shutdown();
}
