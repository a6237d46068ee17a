//! End-to-end daemon tests: remote/local query parity, admission-control
//! saturation, and cross-client fairness.
//!
//! The parity test is the acceptance bar of the server subsystem: N
//! concurrent UDS clients querying a daemon that ingested the exact region
//! pairs the engine emits must answer byte-identically to an in-process
//! [`QuerySession`] over the same workload.  Both sides run the same query
//! walk with default options: stored steps go to the daemon, operators it
//! does not store answer through their mapping functions, and a step that
//! needs re-execution fails remotely with a typed error.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subzero::capture::OverflowPolicy;
use subzero::model::{Direction, LineageStrategy, StorageStrategy};
use subzero::query::{QueryError, QueryOptions, QuerySession, StepMethod};
use subzero::runtime::Runtime;
use subzero_array::{Array, ArrayRef, CellSet, Coord, Shape};
use subzero_engine::lineage::{BufferSink, LineageSink, RegionPair};
use subzero_engine::ops::{BinaryKind, Convolve, Elementwise1, Elementwise2, UnaryKind};
use subzero_engine::paths::ArrayNode;
use subzero_engine::workflow::{InputSource, OpId, Workflow};
use subzero_engine::{Engine, LineageMode, OpMeta, Operator};
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

/// In-process reference answers over the same workload, with default query
/// options.
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
    let mut session =
        QuerySession::new(&engine, &mut rt, &run).with_options(QueryOptions::default());
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

/// Starts an in-memory daemon and ingests, through one client, the emitted
/// pairs of every operator `specs` opens.  Returns the daemon, its directory,
/// and the client with its finished session.
fn serve(
    tag: &str,
    specs: Vec<OpSpec>,
    per_op: &[(OpId, Vec<Shape>, Shape, Vec<RegionPair>)],
) -> (Server, PathBuf, Client, u64) {
    let dir = temp_dir(tag);
    let socket = dir.join("daemon.sock");
    let config = ServerConfig {
        data_dir: None,
        shards: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(&socket, config).expect("server starts");
    let mut client = Client::connect(&socket).expect("connect");
    let opened: Vec<OpId> = specs.iter().map(|s| s.op_id).collect();
    let session = client.open_session(tag, specs).expect("open session");
    for (op, _, _, pairs) in per_op.iter().filter(|(op, ..)| opened.contains(op)) {
        let ack = client.store_batch(session, *op, pairs.clone());
        assert!(ack.expect("store batch").accepted);
    }
    client.finish_session(session).expect("finish");
    (server, dir, client, session)
}

/// The per-operator shapes a [`RemoteSession`] needs.
fn metas(per_op: &[(OpId, Vec<Shape>, Shape, Vec<RegionPair>)]) -> Vec<(OpId, OpMeta)> {
    per_op
        .iter()
        .map(|(op, ins, out, _)| (*op, OpMeta::new(ins.clone(), *out)))
        .collect()
}

#[test]
fn operators_the_daemon_does_not_store_answer_through_mapping_functions() {
    let (rows, cols) = (7, 6);
    let wf = workflow();
    let inputs = externals(rows, cols);
    // The scale (op 0) is a mapping built-in that neither side stores.
    let stored: [OpId; 2] = [1, 2];
    let back = vec![
        vec![Coord::d2(3, 3)],
        vec![Coord::d2(0, 0), Coord::d2(6, 5)],
    ];
    let fwd = vec![
        vec![Coord::d2(0, 1)],
        vec![Coord::d2(5, 5), Coord::d2(1, 2)],
    ];

    let mut rt = Runtime::in_memory();
    let mut strategy = LineageStrategy::new();
    for op in stored {
        strategy.set(op, strategies_for(op));
    }
    rt.set_strategy(strategy);
    let mut engine = Engine::new();
    let run = engine.execute(&wf, &inputs, &mut rt).expect("executes");
    rt.flush_capture().expect("flush capture");
    let mut session = QuerySession::new(&engine, &mut rt, &run);
    let local_back = session
        .backward_many(back.clone())
        .from(2)
        .to_source("img")
        .expect("local backward");
    let local_fwd = session
        .forward_many(fwd.clone())
        .from_source("img")
        .to(2)
        .expect("local forward");
    assert!(
        local_back[0]
            .report
            .steps
            .iter()
            .any(|s| s.op_id == 0 && s.method == StepMethod::Mapping),
        "the reference must cross op 0 by mapping"
    );

    let per_op = emitted_pairs(&wf, &inputs);
    let specs: Vec<OpSpec> = per_op
        .iter()
        .filter(|(op, ..)| stored.contains(op))
        .map(|(op, ins, out, _)| OpSpec {
            op_id: *op,
            input_shapes: ins.clone(),
            output_shape: *out,
            strategies: strategies_for(*op),
        })
        .collect();
    let (server, dir, mut client, session) = serve("unstored", specs, &per_op);
    let mut remote = RemoteSession::new(&mut client, session, &wf, metas(&per_op));
    let img = ArrayNode::External("img".into());
    let remote_back = remote
        .backward_many(2, &img, &back)
        .expect("remote backward");
    let remote_fwd = remote.forward_many(&img, 2, &fwd).expect("remote forward");
    let cells = |results: Vec<subzero::query::QueryResult>| -> Vec<CellSet> {
        results.into_iter().map(|r| r.cells).collect()
    };
    assert_eq!(remote_back, cells(local_back), "backward parity");
    assert_eq!(remote_fwd, cells(local_fwd), "forward parity");

    drop(client);
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-mapping operator (Full and Blackbox lineage only): without stored
/// lineage, its steps can only be answered by re-running it.
struct OpaqueBlur;

impl Operator for OpaqueBlur {
    fn name(&self) -> &str {
        "opaque-blur"
    }

    fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
        input_shapes[0]
    }

    fn supported_modes(&self) -> Vec<LineageMode> {
        vec![LineageMode::Full, LineageMode::Blackbox]
    }

    fn run(&self, inputs: &[ArrayRef], modes: &[LineageMode], sink: &mut dyn LineageSink) -> Array {
        let input = &inputs[0];
        if modes.contains(&LineageMode::Full) {
            for (c, _) in input.iter() {
                sink.lwrite(vec![c], vec![input.shape().neighborhood(&c, 1)]);
            }
        }
        (**input).clone()
    }
}

#[test]
fn a_step_needing_reexecution_fails_remotely_with_a_typed_error() {
    let mut b = Workflow::builder("server-reexec");
    let scale = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(1.5))), "img");
    let opaque = b.add_unary(Arc::new(OpaqueBlur), scale);
    let wf = Arc::new(b.build().unwrap());
    let inputs = externals(5, 5);
    let query = vec![vec![Coord::d2(2, 2)]];

    // In process, the opaque step re-executes.
    let mut rt = Runtime::in_memory();
    let mut engine = Engine::new();
    let run = engine.execute(&wf, &inputs, &mut rt).expect("executes");
    let local = QuerySession::new(&engine, &mut rt, &run)
        .backward(query[0].clone())
        .from(opaque)
        .to_source("img")
        .expect("local backward");
    assert_eq!(local.report.reexecutions(), 1);

    // The daemon stores the scale only; it cannot re-run the opaque op.
    let per_op = emitted_pairs(&wf, &inputs);
    let (_, ins, out, _) = &per_op[scale as usize];
    let spec = OpSpec {
        op_id: scale,
        input_shapes: ins.clone(),
        output_shape: *out,
        strategies: vec![StorageStrategy::full_one()],
    };
    let (server, dir, mut client, session) = serve("reexec", vec![spec], &per_op);
    let mut remote = RemoteSession::new(&mut client, session, &wf, metas(&per_op));
    let img = ArrayNode::External("img".into());
    let errors = [
        remote.backward_many(opaque, &img, &query),
        remote.forward_many(&img, opaque, &query),
    ];
    for err in errors {
        let err = err.expect_err("the opaque step needs re-execution");
        assert!(
            matches!(err, ClientError::Query(QueryError::NeedsReexecution { op }) if op == opaque),
            "{err}"
        );
    }

    drop(client);
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
