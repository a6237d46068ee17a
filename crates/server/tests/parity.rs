//! End-to-end daemon tests: remote/local query parity, admission-control
//! saturation, and cross-client fairness.
//!
//! The parity test is the acceptance bar of the server subsystem: N
//! concurrent UDS clients querying a daemon that ingested the exact region
//! pairs the engine emits must answer byte-identically to an in-process
//! [`QuerySession`] over the same workload.  The in-process reference runs
//! with both query-time optimizations disabled so every step answers from
//! the stored lineage — the only path the daemon implements.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subzero::capture::OverflowPolicy;
use subzero::model::{Direction, LineageStrategy, StorageStrategy};
use subzero::query::{QueryOptions, QuerySession};
use subzero::runtime::Runtime;
use subzero_array::{Array, ArrayRef, CellSet, Coord, Shape};
use subzero_engine::lineage::{BufferSink, RegionPair};
use subzero_engine::ops::{BinaryKind, Convolve, Elementwise1, Elementwise2, UnaryKind};
use subzero_engine::paths::ArrayNode;
use subzero_engine::workflow::{InputSource, OpId, Workflow};
use subzero_engine::{Engine, LineageMode, OpMeta};
use subzero_server::{
    Client, ClientError, LookupStep, OpSpec, RemoteSession, Server, ServerConfig,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subzero-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The capture-parity pipeline: scale -> blur -> mean(scale, blur).
fn workflow() -> Arc<Workflow> {
    let mut b = Workflow::builder("server-parity");
    let scale = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(1.5))), "img");
    let blur = b.add_unary(Arc::new(Convolve::box_blur(1)), scale);
    let _mean = b.add_binary(Arc::new(Elementwise2::new(BinaryKind::Mean)), scale, blur);
    Arc::new(b.build().unwrap())
}

fn externals(rows: u32, cols: u32) -> HashMap<String, Array> {
    let shape = Shape::d2(rows, cols);
    let mut img = Array::zeros(shape);
    for r in 0..rows {
        for c in 0..cols {
            img.set(&Coord::d2(r, c), ((r * cols + c) % 17) as f64 - 3.0);
        }
    }
    let mut m = HashMap::new();
    m.insert("img".to_string(), img);
    m
}

/// A direction-diverse strategy assignment that reaches every arm of the
/// lookup kernel through the daemon: op 0 is indexed forward only (backward
/// queries scan its input-cell records), op 1 is indexed both ways at both
/// granularities, op 2 is indexed backward only (forward queries scan its
/// many-granularity entries).
fn strategies_for(op: OpId) -> Vec<StorageStrategy> {
    match op {
        0 => vec![StorageStrategy::full_one_forward()],
        1 => vec![
            StorageStrategy::full_one(),
            StorageStrategy::full_many_forward(),
        ],
        _ => vec![StorageStrategy::full_many()],
    }
}

/// Runs every operator by hand with a buffering sink, returning per-operator
/// `(input_shapes, output_shape, emitted_pairs)` — the identical emission
/// stream the engine hands its lineage collector during `execute` (the
/// operators are deterministic and their lineage is purely structural).
fn emitted_pairs(
    wf: &Workflow,
    externals: &HashMap<String, Array>,
) -> Vec<(OpId, Vec<Shape>, Shape, Vec<RegionPair>)> {
    let mut outputs: HashMap<OpId, ArrayRef> = HashMap::new();
    let mut result = Vec::new();
    for node in wf.nodes() {
        let inputs: Vec<ArrayRef> = node
            .inputs
            .iter()
            .map(|src| match src {
                InputSource::External(name) => Arc::new(externals[name].clone()),
                InputSource::Operator(op) => Arc::clone(&outputs[op]),
            })
            .collect();
        let input_shapes: Vec<Shape> = inputs.iter().map(|a| a.shape()).collect();
        let mut sink = BufferSink::new();
        let out = node.operator.run(&inputs, &[LineageMode::Full], &mut sink);
        let out_shape = out.shape();
        outputs.insert(node.id, Arc::new(out));
        result.push((node.id, input_shapes, out_shape, sink.pairs));
    }
    result
}

/// In-process reference answers over the same workload, all steps served
/// from stored lineage (both query-time optimizations disabled).
fn local_reference(
    rows: u32,
    cols: u32,
    back_batches: &[Vec<Coord>],
    fwd_batches: &[Vec<Coord>],
) -> (Vec<CellSet>, Vec<CellSet>, Vec<CellSet>) {
    let wf = workflow();
    let mut rt = Runtime::in_memory();
    let mut strategy = LineageStrategy::new();
    for op in 0..3u32 {
        strategy.set(op, strategies_for(op));
    }
    rt.set_strategy(strategy);
    let mut engine = Engine::new();
    let run = engine
        .execute(&wf, &externals(rows, cols), &mut rt)
        .expect("parity workload executes");
    rt.flush_capture().expect("flush capture");
    let mut session = QuerySession::new(&engine, &mut rt, &run).with_options(QueryOptions {
        entire_array_optimization: false,
        query_time_optimizer: false,
    });
    let to_img: Vec<CellSet> = session
        .backward_many(back_batches.to_vec())
        .from(2)
        .to_source("img")
        .expect("backward to source")
        .into_iter()
        .map(|r| r.cells)
        .collect();
    let to_scale: Vec<CellSet> = session
        .backward_many(back_batches.to_vec())
        .from(2)
        .to(0)
        .expect("backward to op 0")
        .into_iter()
        .map(|r| r.cells)
        .collect();
    let fwd: Vec<CellSet> = session
        .forward_many(fwd_batches.to_vec())
        .from_source("img")
        .to(2)
        .expect("forward to op 2")
        .into_iter()
        .map(|r| r.cells)
        .collect();
    (to_img, to_scale, fwd)
}

#[test]
fn concurrent_remote_clients_match_in_process_query_session() {
    let (rows, cols) = (7, 6);
    let back_batches: Vec<Vec<Coord>> = vec![
        vec![Coord::d2(3, 3)],
        vec![Coord::d2(0, 0), Coord::d2(6, 5)],
        vec![],
        vec![Coord::d2(2, 4), Coord::d2(4, 2), Coord::d2(5, 5)],
    ];
    let fwd_batches: Vec<Vec<Coord>> = vec![
        vec![Coord::d2(0, 1)],
        vec![Coord::d2(5, 5), Coord::d2(1, 2)],
        vec![],
    ];
    let (ref_img, ref_scale, ref_fwd) = local_reference(rows, cols, &back_batches, &fwd_batches);
    // The reference actually resolves to something (the workload is real).
    assert!(ref_img.iter().any(|cs| !cs.is_empty()));
    assert!(ref_fwd.iter().any(|cs| !cs.is_empty()));

    let wf = workflow();
    let per_op = emitted_pairs(&wf, &externals(rows, cols));
    let specs: Vec<OpSpec> = per_op
        .iter()
        .map(|(op, ins, out, _)| OpSpec {
            op_id: *op,
            input_shapes: ins.clone(),
            output_shape: *out,
            strategies: strategies_for(*op),
        })
        .collect();
    let shapes: Vec<(OpId, Vec<Shape>, Shape)> = per_op
        .iter()
        .map(|(op, ins, out, _)| (*op, ins.clone(), *out))
        .collect();

    let dir = temp_dir("parity");
    let socket = dir.join("daemon.sock");
    let server = Server::start(
        &socket,
        ServerConfig {
            data_dir: Some(dir.join("data")),
            shards: 3,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    // One client ingests the engine's emission stream, in odd-sized chunks
    // (datastore contents are batch-boundary invariant), then finishes.
    {
        let mut client = Client::connect(&socket).expect("connect");
        let session = client
            .open_session("parity", specs.clone())
            .expect("open session");
        for (op, _, _, pairs) in &per_op {
            for chunk in pairs.chunks(3) {
                let ack = client
                    .store_batch(session, *op, chunk.to_vec())
                    .expect("store batch");
                assert!(ack.accepted, "Block admission never sheds");
            }
        }
        assert_eq!(client.finish_session(session).expect("finish"), 0);
    }

    // N concurrent clients reattach and query; every one must see the
    // in-process answers, byte for byte.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            let wf = Arc::clone(&wf);
            let specs = specs.clone();
            let shapes = shapes.clone();
            let back_batches = back_batches.clone();
            let fwd_batches = fwd_batches.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                let session = client.open_session("parity", specs).expect("reattach");
                let metas: Vec<(OpId, OpMeta)> = shapes
                    .iter()
                    .map(|(op, ins, out)| (*op, OpMeta::new(ins.clone(), *out)))
                    .collect();
                let mut remote = RemoteSession::new(&mut client, session, &wf, metas);
                let img = remote
                    .backward_many(2, &ArrayNode::External("img".into()), &back_batches)
                    .expect("remote backward to source");
                let scale = remote
                    .backward_many(2, &ArrayNode::Output(0), &back_batches)
                    .expect("remote backward to op 0");
                let fwd = remote
                    .forward_many(&ArrayNode::External("img".into()), 2, &fwd_batches)
                    .expect("remote forward");
                (img, scale, fwd)
            })
        })
        .collect();
    for h in handles {
        let (img, scale, fwd) = h.join().expect("query thread");
        assert_eq!(img, ref_img, "backward-to-source parity");
        assert_eq!(scale, ref_scale, "backward-to-operator parity");
        assert_eq!(fwd, ref_fwd, "forward parity");
    }

    // One query per request answers exactly what the batched requests did.
    {
        let mut client = Client::connect(&socket).expect("connect");
        let session = client.open_session("parity", specs).expect("reattach");
        let metas: Vec<(OpId, OpMeta)> = shapes
            .iter()
            .map(|(op, ins, out)| (*op, OpMeta::new(ins.clone(), *out)))
            .collect();
        let mut remote = RemoteSession::new(&mut client, session, &wf, metas);
        let img = ArrayNode::External("img".into());
        for (batch, expected) in back_batches.iter().zip(&ref_img) {
            let single = remote
                .backward_many(2, &img, std::slice::from_ref(batch))
                .expect("single remote backward");
            assert_eq!(&single[0], expected, "single-query backward parity");
        }
        for (batch, expected) in fwd_batches.iter().zip(&ref_fwd) {
            let single = remote
                .forward_many(&img, 2, std::slice::from_ref(batch))
                .expect("single remote forward");
            assert_eq!(&single[0], expected, "single-query forward parity");
        }
    }

    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One single-pair ingest batch whose output cell encodes its index, so a
/// later lookup can tell exactly which batches landed.
fn indexed_pair(i: u32, cols: u32) -> RegionPair {
    RegionPair::Full {
        outcells: vec![Coord::d2(0, i)],
        incells: vec![vec![Coord::d2(0, cols - 1 - i)]],
    }
}

#[test]
fn saturation_honors_policy_and_loses_no_committed_lineage() {
    let cols = 64u32;
    let shape = Shape::d2(1, cols);
    for (policy, expect_shed) in [
        (OverflowPolicy::DropNewest, true),
        (OverflowPolicy::Block, false),
    ] {
        let dir = temp_dir(if expect_shed { "sat-drop" } else { "sat-block" });
        let socket = dir.join("daemon.sock");
        let server = Server::start(
            &socket,
            ServerConfig {
                data_dir: None,
                shards: 1,
                queue_depth: 2,
                ingest_policy: policy,
                store_stall: Duration::from_millis(4),
                session_ttl: None,
            },
        )
        .expect("server starts");
        let mut client = Client::connect(&socket).expect("connect");
        let spec = OpSpec {
            op_id: 0,
            input_shapes: vec![shape],
            output_shape: shape,
            strategies: vec![StorageStrategy::full_one()],
        };
        let session = client.open_session("sat", vec![spec]).expect("open");

        let mut accepted = Vec::new();
        let mut shed = 0u64;
        for i in 0..cols {
            let ack = client
                .store_batch(session, 0, vec![indexed_pair(i, cols)])
                .expect("store batch");
            if ack.accepted {
                accepted.push(i);
            } else {
                shed += 1;
            }
            // The running shed count in every ack matches what we observed.
            assert_eq!(ack.shed_total, shed);
        }
        assert_eq!(client.finish_session(session).expect("finish"), shed);
        if expect_shed {
            assert!(shed > 0, "DropNewest under a 4ms stall must shed");
            assert!(!accepted.is_empty(), "the first admitted batches land");
        } else {
            assert_eq!(shed, 0, "Block admission never sheds");
            assert_eq!(accepted.len() as u32, cols);
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.shed_batches, shed);
        assert_eq!(stats.store_batches, accepted.len() as u64);

        // Every accepted batch is queryable; every shed batch is absent —
        // admitted lineage is never lost, shed lineage is never invented.
        for i in 0..cols {
            let step = LookupStep {
                op_id: 0,
                direction: Direction::Backward,
                input_idx: 0,
                queries: vec![CellSet::from_coords(shape, [Coord::d2(0, i)])],
            };
            let out = client.lookup(session, vec![step]).expect("lookup");
            let got = out[0][0].result.to_coords();
            if accepted.contains(&i) {
                assert_eq!(got, vec![Coord::d2(0, cols - 1 - i)]);
            } else {
                assert!(got.is_empty(), "shed batch {i} must not be stored");
            }
        }
        drop(client);
        server.shutdown_and_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_open_rolls_back_and_unregistered_ops_are_rejected() {
    let cols = 4u32;
    let shape = Shape::d2(1, cols);
    let dir = temp_dir("rollback");
    let socket = dir.join("daemon.sock");
    let server = Server::start(
        &socket,
        ServerConfig {
            data_dir: None,
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let good = OpSpec {
        op_id: 0,
        input_shapes: vec![shape],
        output_shape: shape,
        strategies: vec![StorageStrategy::full_one()],
    };
    // Mapping-mode storage is rejected at shard-side open (payload and
    // composite lookups cannot travel over the wire), which makes this the
    // partial-failure case: op 0 opens, op 1 fails.
    let bad = OpSpec {
        op_id: 1,
        input_shapes: vec![shape],
        output_shape: shape,
        strategies: vec![StorageStrategy::mapping()],
    };
    let mut client = Client::connect(&socket).expect("connect");

    // A partially failing open reports the failure...
    let err = client
        .open_session("roll", vec![good.clone(), bad.clone()])
        .expect_err("mixed open must fail");
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    // ...and leaves no half-open session behind: the id the failed open
    // would have used (the daemon's first, 0) is not live, so ingest to
    // the op that *did* open is refused instead of acked-and-dropped.
    let err = client
        .store_batch(0, 0, vec![indexed_pair(0, cols)])
        .expect_err("store to rolled-back session must fail");
    assert!(format!("{err}").contains("unknown session"), "{err}");

    // The name is reusable immediately.
    let session = client
        .open_session("roll", vec![good.clone()])
        .expect("clean reopen");
    assert!(
        client
            .store_batch(session, 0, vec![indexed_pair(0, cols)])
            .expect("store to registered op")
            .accepted
    );
    // Ingest to an operator the session never registered is an error, not
    // a silent drop at the owning shard.
    let err = client
        .store_batch(session, 9, vec![indexed_pair(1, cols)])
        .expect_err("store to unregistered op must fail");
    assert!(format!("{err}").contains("not registered"), "{err}");

    // A failed *reattach* leaves the existing session fully usable.
    let err = client
        .open_session("roll", vec![good, bad])
        .expect_err("reattach with a bad op must fail");
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert!(
        client
            .store_batch(session, 0, vec![indexed_pair(1, cols)])
            .expect("store after failed reattach")
            .accepted
    );
    assert_eq!(client.finish_session(session).expect("finish"), 0);
    let step = LookupStep {
        op_id: 0,
        direction: Direction::Backward,
        input_idx: 0,
        queries: vec![CellSet::from_coords(shape, [Coord::d2(0, 0)])],
    };
    let out = client.lookup(session, vec![step]).expect("lookup");
    assert_eq!(out[0][0].result.to_coords(), vec![Coord::d2(0, cols - 1)]);

    drop(client);
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interactive_lookup_is_not_starved_by_bulk_ingest() {
    let cols = 64u32;
    let shape = Shape::d2(1, cols);
    let stall = Duration::from_millis(10);
    let backlog = 60u32;
    let dir = temp_dir("fairness");
    let socket = dir.join("daemon.sock");
    let server = Server::start(
        &socket,
        ServerConfig {
            data_dir: None,
            shards: 1,
            queue_depth: backlog as usize + 4,
            ingest_policy: OverflowPolicy::Block,
            store_stall: stall,
            session_ttl: None,
        },
    )
    .expect("server starts");
    let spec = OpSpec {
        op_id: 0,
        input_shapes: vec![shape],
        output_shape: shape,
        strategies: vec![StorageStrategy::full_one()],
    };
    let mut bulk = Client::connect(&socket).expect("bulk connect");
    let session = bulk.open_session("fair", vec![spec.clone()]).expect("open");
    let mut interactive = Client::connect(&socket).expect("interactive connect");
    assert_eq!(
        interactive
            .open_session("fair", vec![spec])
            .expect("reattach"),
        session
    );

    // Flood the bulk lane with ~600ms of worker time, then park the bulk
    // client on the durability barrier behind it.
    for i in 0..backlog {
        let ack = bulk
            .store_batch(session, 0, vec![indexed_pair(i % cols, cols)])
            .expect("bulk store");
        assert!(ack.accepted);
    }
    let bulk_done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&bulk_done);
    let bulk_thread = std::thread::spawn(move || {
        bulk.finish_session(session).expect("bulk finish");
        done_flag.store(true, Ordering::SeqCst);
    });

    // The interactive lookup rides its own lane; the round-robin sweep must
    // serve it after at most a couple of bulk jobs, not after the backlog.
    let start = Instant::now();
    let step = LookupStep {
        op_id: 0,
        direction: Direction::Backward,
        input_idx: 0,
        queries: vec![CellSet::from_coords(shape, [Coord::d2(0, 0)])],
    };
    interactive.lookup(session, vec![step]).expect("lookup");
    let latency = start.elapsed();
    assert!(
        !bulk_done.load(Ordering::SeqCst),
        "bulk backlog drained before the interactive lookup returned — \
         the test lost its contention window"
    );
    // ~600ms of queued bulk work; a starved lookup would wait for all of it.
    // The round-robin bound is ~2 jobs (one in flight + one bulk turn); 250ms
    // keeps a wide margin over that without ever passing under starvation.
    assert!(
        latency < Duration::from_millis(250),
        "interactive lookup took {latency:?} behind a {backlog}-batch bulk backlog"
    );
    bulk_thread.join().expect("bulk thread");
    drop(interactive);
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}
