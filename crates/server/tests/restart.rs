//! Crash-restart robustness for the transactional commit path.
//!
//! Since runs became transactional, a SIGKILL rolls the store back to the
//! last *committed* run: `FinishSession` is the commit, and anything
//! ingested after it is discarded on recovery.  These tests SIGKILL the
//! real daemon binary — both at arbitrary moments and at every registered
//! crash point in the two-phase commit ([`failpoint::CRASH_POINTS`]) —
//! restart it over the same data directory, and assert the recovered
//! stores answer byte-identical to a clean run of the committed prefix of
//! the workload, down to the `.kv` file bytes where the write sequence is
//! deterministic.
//!
//! The crash-point tests arm `SUBZERO_FAILPOINT` in the daemon's
//! environment; the coordinator (and, for the torn decision write, the WAL
//! append itself) calls `std::process::abort()` at the armed point, which
//! is as merciless as a SIGKILL: no unwinding, no flushes, no harvest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use subzero::model::{Direction, StorageStrategy};
use subzero_array::{CellSet, Coord, Shape};
use subzero_engine::lineage::RegionPair;
use subzero_server::{Client, LookupStep, OpSpec, Server, ServerConfig, WireOutcome};
use subzero_store::codec::read_varint;
use subzero_store::failpoint;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subzero-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn_daemon(socket: &Path, data_dir: &Path, armed: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_subzero-serverd"));
    cmd.args([
        "--socket",
        socket.to_str().unwrap(),
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--shards",
        "2",
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    match armed {
        Some(point) => cmd.env(failpoint::ENV, point),
        None => cmd.env_remove(failpoint::ENV),
    };
    cmd.spawn().expect("spawn subzero-serverd")
}

fn connect_with_retry(socket: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(socket) {
            Ok(c) => return c,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("daemon never came up on {}: {e}", socket.display()),
        }
    }
}

fn shape() -> Shape {
    Shape::d2(8, 8)
}

fn specs() -> Vec<OpSpec> {
    vec![
        OpSpec {
            op_id: 0,
            input_shapes: vec![shape()],
            output_shape: shape(),
            strategies: vec![StorageStrategy::full_one()],
        },
        OpSpec {
            op_id: 1,
            input_shapes: vec![shape()],
            output_shape: shape(),
            strategies: vec![
                StorageStrategy::full_one(),
                StorageStrategy::full_one_forward(),
            ],
        },
        OpSpec {
            op_id: 2,
            input_shapes: vec![shape(), shape()],
            output_shape: shape(),
            strategies: vec![StorageStrategy::full_many()],
        },
    ]
}

/// A deterministic synthetic workload: per op, a distinct structural
/// pattern; `round` shifts the mapping so successive runs write different
/// lineage for the same output cells.
fn pairs_for(op: u32, round: u32) -> Vec<RegionPair> {
    let mut pairs = Vec::new();
    for r in 0..8u32 {
        for c in 0..8u32 {
            let s = (c + round) % 8;
            let pair = match op {
                0 => RegionPair::Full {
                    outcells: vec![Coord::d2(r, c)],
                    incells: vec![vec![Coord::d2(s, r)]],
                },
                1 => RegionPair::Full {
                    outcells: vec![Coord::d2(r, c)],
                    incells: vec![vec![Coord::d2(r, c), Coord::d2(r, (s + 1) % 8)]],
                },
                _ => RegionPair::Full {
                    outcells: vec![Coord::d2(r, c)],
                    incells: vec![vec![Coord::d2(r, s)], vec![Coord::d2(7 - r, 7 - s)]],
                },
            };
            pairs.push(pair);
        }
    }
    pairs
}

/// Ingests one round of the workload, then barriers with one lookup per
/// operator so every sent batch is provably applied (lane FIFO) and
/// group-flushed to the log.
fn ingest(client: &mut Client, session: u64, round: u32) {
    ingest_ops(client, session, round, &[0, 1, 2]);
}

/// [`ingest`] restricted to the operators `ops`.
fn ingest_ops(client: &mut Client, session: u64, round: u32, ops: &[u32]) {
    for &op in ops {
        for chunk in pairs_for(op, round).chunks(7) {
            let ack = client
                .store_batch(session, op, chunk.to_vec())
                .expect("store batch");
            assert!(ack.accepted);
        }
    }
    for &op in ops {
        let step = LookupStep {
            op_id: op,
            direction: Direction::Backward,
            input_idx: 0,
            queries: vec![CellSet::from_coords(shape(), [Coord::d2(0, 0)])],
        };
        client.lookup(session, vec![step]).expect("ingest barrier");
    }
}

/// The probe suite whose answers must be byte-identical across daemons.
fn probe(client: &mut Client, session: u64) -> Vec<Vec<Vec<WireOutcome>>> {
    let queries = || {
        vec![
            CellSet::from_coords(shape(), [Coord::d2(3, 3)]),
            CellSet::from_coords(shape(), [Coord::d2(0, 7), Coord::d2(7, 0)]),
            CellSet::from_coords(shape(), (0..8).map(|i| Coord::d2(i, i))),
        ]
    };
    let mut all = Vec::new();
    for op in 0..3u32 {
        let inputs = if op == 2 { 2 } else { 1 };
        for input_idx in 0..inputs {
            for direction in [Direction::Backward, Direction::Forward] {
                let step = LookupStep {
                    op_id: op,
                    direction,
                    input_idx,
                    queries: queries(),
                };
                all.push(client.lookup(session, vec![step]).expect("probe lookup"));
            }
        }
    }
    all
}

/// Reference answers from a clean in-process server that ingests and
/// commits `rounds` rounds of the workload.
fn reference_answers(tag: &str, rounds: u32) -> Vec<Vec<Vec<WireOutcome>>> {
    let dir = temp_dir(tag);
    let socket = dir.join("daemon.sock");
    let server = Server::start(
        &socket,
        ServerConfig {
            data_dir: Some(dir.join("data")),
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .expect("reference server starts");
    let mut client = Client::connect(&socket).expect("connect");
    let session = client.open_session("restart", specs()).expect("open");
    for round in 0..rounds {
        ingest(&mut client, session, round);
        client.finish_session(session).expect("finish");
    }
    let answers = probe(&mut client, session);
    drop(client);
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
    answers
}

/// Every `.kv` file under the per-shard data directories, as bytes.
fn kv_snapshot(data_dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut snap = BTreeMap::new();
    for shard in std::fs::read_dir(data_dir).expect("read data dir") {
        let shard = shard.expect("dir entry").path();
        if !shard.is_dir() {
            continue;
        }
        for f in std::fs::read_dir(&shard).expect("read shard dir") {
            let f = f.expect("dir entry").path();
            if f.extension().is_some_and(|e| e == "kv") {
                let rel = f.strip_prefix(data_dir).unwrap().to_path_buf();
                snap.insert(rel, std::fs::read(&f).expect("read kv file"));
            }
        }
    }
    assert!(
        !snap.is_empty(),
        "no .kv files under {}",
        data_dir.display()
    );
    snap
}

/// The `.kv` logs of the session named `name`, as bytes.
fn session_logs(data_dir: &Path, name: &str) -> BTreeMap<PathBuf, Vec<u8>> {
    let prefix = format!("{name}_op");
    kv_snapshot(data_dir)
        .into_iter()
        .filter(|(path, _)| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect()
}

/// The length `log` compacts to: the bytes of each key's last record.
fn dense_len(log: &[u8]) -> usize {
    let mut last: BTreeMap<&[u8], usize> = BTreeMap::new();
    let mut pos = 0;
    while pos < log.len() {
        let start = pos;
        let klen = read_varint(log, &mut pos).expect("key length") as usize;
        let vlen = read_varint(log, &mut pos).expect("value length") as usize;
        last.insert(&log[pos..pos + klen], pos + klen + vlen - start);
        pos += klen + vlen;
    }
    last.values().sum()
}

/// Whether a compaction staging file sits beside any of `logs`.
fn any_staging_file(data_dir: &Path, logs: &BTreeMap<PathBuf, Vec<u8>>) -> bool {
    logs.keys()
        .any(|log| data_dir.join(log).with_extension("kv.compact").exists())
}

#[test]
fn checkpoint_rewrites_only_logs_with_superseded_records() {
    let dir = temp_dir("checkpoint");
    let socket = dir.join("daemon.sock");
    let data_dir = dir.join("data");
    let mut child = spawn_daemon(&socket, &data_dir, None);
    let mut client = connect_with_retry(&socket);

    // Session "once" writes every key once: round 0 of op 0 (one record per
    // output cell) and op 2 (one entry per pair).  Op 1 is left out — its
    // forward store merges into input cells that two pairs share.
    let once = client.open_session("once", specs()).expect("open once");
    ingest_ops(&mut client, once, 0, &[0, 2]);
    let before = session_logs(&data_dir, "once");
    assert!(before.values().any(|log| !log.is_empty()));
    for (path, log) in &before {
        assert_eq!(
            dense_len(log),
            log.len(),
            "{}: superseded record",
            path.display()
        );
    }
    client.finish_session(once).expect("commit once");
    assert_eq!(
        session_logs(&data_dir, "once"),
        before,
        "a checkpoint rewrote a log with nothing superseded"
    );
    assert!(!any_staging_file(&data_dir, &before));

    // Session "rewrite" commits round 0, then round 1 rewrites every cell.
    let rewrite = client
        .open_session("rewrite", specs())
        .expect("open rewrite");
    ingest(&mut client, rewrite, 0);
    client.finish_session(rewrite).expect("commit round 0");
    ingest(&mut client, rewrite, 1);
    let before = session_logs(&data_dir, "rewrite");
    assert!(before.values().any(|log| dense_len(log) < log.len()));
    client.finish_session(rewrite).expect("commit round 1");
    let after = session_logs(&data_dir, "rewrite");
    for (path, log) in &before {
        assert_eq!(
            after[path].len(),
            dense_len(log),
            "{}: checkpoint left garbage behind",
            path.display()
        );
    }
    assert!(!any_staging_file(&data_dir, &before));
    let answers = (probe(&mut client, once), probe(&mut client, rewrite));
    assert_eq!(answers.1, reference_answers("checkpoint-ref", 2));
    let snapshot = kv_snapshot(&data_dir);
    drop(client);
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");

    // Both sessions come back byte-identical, in answers and in log bytes.
    let mut child = spawn_daemon(&socket, &data_dir, None);
    let mut client = connect_with_retry(&socket);
    let once = client.open_session("once", specs()).expect("reopen once");
    let rewrite = client
        .open_session("rewrite", specs())
        .expect("reopen rewrite");
    assert_eq!(
        (probe(&mut client, once), probe(&mut client, rewrite)),
        answers,
        "recovered answers diverge from the pre-crash ones"
    );
    assert_eq!(
        kv_snapshot(&data_dir),
        snapshot,
        "recovery rewrote .kv bytes"
    );
    client.shutdown_server().expect("graceful shutdown");
    drop(client);
    child.wait().expect("daemon exits");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_daemon_recovers_committed_run_byte_identical() {
    let reference = reference_answers("clean", 1);

    // Crash run: ingest and COMMIT through the real binary, then SIGKILL.
    // The committed run must survive verbatim.
    let dir = temp_dir("crash");
    let socket = dir.join("daemon.sock");
    let data_dir = dir.join("data");
    let mut child = spawn_daemon(&socket, &data_dir, None);
    {
        let mut client = connect_with_retry(&socket);
        let session = client.open_session("restart", specs()).expect("open");
        ingest(&mut client, session, 0);
        client.finish_session(session).expect("commit");
    }
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");

    // Restart over the same directories (and the same, now-stale, socket
    // file); recovery rolls the stores forward to the committed state.
    let mut child = spawn_daemon(&socket, &data_dir, None);
    let mut client = connect_with_retry(&socket);
    let session = client.open_session("restart", specs()).expect("reopen");
    let recovered = probe(&mut client, session);
    assert_eq!(
        recovered, reference,
        "recovered answers diverge from the clean run"
    );
    client.shutdown_server().expect("graceful shutdown");
    drop(client);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncommitted_ingest_rolls_back_to_last_commit() {
    let reference = reference_answers("rb-clean", 1);

    // Commit round 0, then ingest round 1 WITHOUT committing and SIGKILL.
    let dir = temp_dir("rb-crash");
    let socket = dir.join("daemon.sock");
    let data_dir = dir.join("data");
    let mut child = spawn_daemon(&socket, &data_dir, None);
    {
        let mut client = connect_with_retry(&socket);
        let session = client.open_session("restart", specs()).expect("open");
        ingest(&mut client, session, 0);
        client.finish_session(session).expect("commit");
        ingest(&mut client, session, 1);
    }
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");

    // Control: the same committed prefix, shut down gracefully.  The write
    // sequence into each `.kv` log is deterministic (lane FIFO, stable
    // shard assignment), so recovery truncating round 1 away must leave
    // files byte-identical to never having ingested it.
    let control_dir = temp_dir("rb-control");
    {
        let socket = control_dir.join("daemon.sock");
        let mut child = spawn_daemon(&socket, &control_dir.join("data"), None);
        let mut client = connect_with_retry(&socket);
        let session = client.open_session("restart", specs()).expect("open");
        ingest(&mut client, session, 0);
        client.finish_session(session).expect("commit");
        client.shutdown_server().expect("graceful shutdown");
        drop(client);
        child.wait().expect("control daemon exits");
    }

    let mut child = spawn_daemon(&socket, &data_dir, None);
    let mut client = connect_with_retry(&socket);
    let session = client.open_session("restart", specs()).expect("reopen");
    let recovered = probe(&mut client, session);
    assert_eq!(
        recovered, reference,
        "rolled-back answers diverge from the committed prefix"
    );
    // Byte-level: the recovered .kv files equal the control's.
    assert_eq!(
        kv_snapshot(&data_dir),
        kv_snapshot(&control_dir.join("data")),
        "recovered .kv bytes diverge from a run that never saw round 1"
    );
    client.shutdown_server().expect("graceful shutdown");
    drop(client);
    child.wait().expect("daemon exits");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

/// One crash-point scenario: commit round 0 cleanly, restart the daemon
/// with `point` armed, ingest round 1 and attempt to commit — the daemon
/// aborts at the crash point mid-request.  Restart unarmed and verify the
/// recovered state: crash points before the decision record roll round 1
/// back; the post-decision point keeps it.
fn crash_point_scenario(point: &str, committed_rounds: u32) {
    let tag = format!("fp-{}", point.replace('.', "-"));
    let reference = reference_answers(&format!("{tag}-ref"), committed_rounds);

    let dir = temp_dir(&tag);
    let socket = dir.join("daemon.sock");
    let data_dir = dir.join("data");

    // Round 0 commits with no failpoint armed.
    {
        let mut child = spawn_daemon(&socket, &data_dir, None);
        let mut client = connect_with_retry(&socket);
        let session = client.open_session("restart", specs()).expect("open");
        ingest(&mut client, session, 0);
        client.finish_session(session).expect("commit round 0");
        client.shutdown_server().expect("graceful shutdown");
        drop(client);
        child.wait().expect("daemon exits");
    }
    let committed_snapshot = kv_snapshot(&data_dir);

    // Round 1 runs against a daemon with the crash point armed: the
    // commit attempt kills the process.
    {
        let mut child = spawn_daemon(&socket, &data_dir, Some(point));
        let mut client = connect_with_retry(&socket);
        let session = client.open_session("restart", specs()).expect("reopen");
        ingest(&mut client, session, 1);
        let died = client.finish_session(session);
        assert!(
            died.is_err(),
            "{point}: commit request survived an armed crash point: {died:?}"
        );
        drop(client);
        let status = child.wait().expect("reap the aborted daemon");
        assert!(!status.success(), "{point}: daemon exited cleanly");
    }

    // Recovery, unarmed.
    let mut child = spawn_daemon(&socket, &data_dir, None);
    let mut client = connect_with_retry(&socket);
    let session = client.open_session("restart", specs()).expect("reopen");
    let recovered = probe(&mut client, session);
    assert_eq!(
        recovered, reference,
        "{point}: recovered answers diverge from the {committed_rounds}-round reference"
    );
    if committed_rounds == 1 {
        // Round 1 was rolled back: byte-identical to the pre-crash commit.
        assert_eq!(
            kv_snapshot(&data_dir),
            committed_snapshot,
            "{point}: recovered .kv bytes diverge from the committed state"
        );
    }
    client.shutdown_server().expect("graceful shutdown");
    drop(client);
    child.wait().expect("daemon exits");

    // Recovery is idempotent: a second restart changes nothing and serves
    // the same answers.
    let after_first = kv_snapshot(&data_dir);
    let mut child = spawn_daemon(&socket, &data_dir, None);
    let mut client = connect_with_retry(&socket);
    let session = client.open_session("restart", specs()).expect("reopen");
    assert_eq!(
        probe(&mut client, session),
        reference,
        "{point}: second recovery diverges"
    );
    assert_eq!(
        kv_snapshot(&data_dir),
        after_first,
        "{point}: second recovery rewrote .kv bytes"
    );
    client.shutdown_server().expect("graceful shutdown");
    drop(client);
    child.wait().expect("daemon exits");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_pre_prepare_rolls_back() {
    crash_point_scenario(failpoint::PRE_PREPARE, 1);
}

#[test]
fn crash_at_mid_prepare_rolls_back() {
    crash_point_scenario(failpoint::MID_PREPARE, 1);
}

#[test]
fn crash_at_pre_commit_rolls_back() {
    crash_point_scenario(failpoint::PRE_COMMIT, 1);
}

#[test]
fn crash_at_mid_commit_truncates_torn_decision_and_rolls_back() {
    crash_point_scenario(failpoint::MID_COMMIT, 1);
}

#[test]
fn crash_at_post_commit_keeps_the_decided_run() {
    crash_point_scenario(failpoint::POST_COMMIT, 2);
}

#[test]
fn repeated_commits_keep_wal_replay_bounded() {
    use subzero_store::wal::{WriteAheadLog, WAL_FILE};

    // N commit cycles against an in-process durable server; the per-shard
    // WALs and the coordinator's decision log must stay flat — each commit
    // checkpoints, so replay work is independent of history length.
    let measure = |rounds: u32, tag: &str| -> (usize, u64) {
        let dir = temp_dir(tag);
        let socket = dir.join("daemon.sock");
        let data_dir = dir.join("data");
        let server = Server::start(
            &socket,
            ServerConfig {
                data_dir: Some(data_dir.clone()),
                shards: 2,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let mut client = Client::connect(&socket).expect("connect");
        let session = client.open_session("restart", specs()).expect("open");
        for round in 0..rounds {
            ingest(&mut client, session, round % 8);
            client.finish_session(session).expect("commit");
        }
        drop(client);
        server.shutdown_and_wait();
        let mut records = 0usize;
        let mut bytes = 0u64;
        for entry in std::fs::read_dir(&data_dir).expect("read data dir") {
            let p = entry.expect("dir entry").path();
            let wal_path = if p.is_dir() { p.join(WAL_FILE) } else { p };
            if wal_path.file_name().is_some_and(|n| {
                n.to_str()
                    .is_some_and(|n| n == WAL_FILE || n == "commit.wal")
            }) && wal_path.exists()
            {
                let wal = WriteAheadLog::open(&wal_path).expect("open wal");
                records += wal.len();
                bytes += wal.size_bytes() as u64;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        (records, bytes)
    };

    let (small_records, small_bytes) = measure(2, "bounded-small");
    let (large_records, large_bytes) = measure(10, "bounded-large");
    assert_eq!(
        small_records, large_records,
        "replay record count grew with commit history"
    );
    // The byte sizes may differ by a few varint bytes (file lengths vary
    // with the workload content), but not with the number of commits.
    assert!(
        large_bytes.abs_diff(small_bytes) <= 64,
        "replay byte size grew with commit history: {small_bytes} -> {large_bytes}"
    );
}
