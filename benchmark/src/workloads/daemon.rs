//! `daemon_mixed`: two closed-loop clients write and read through the
//! durable, 2-shard lineage daemon at the same time.
//!
//! Each client captures a two-operator *tile* workflow remotely, one
//! session per workflow run.  Operator `stage` emits one region pair per
//! 4x4 output tile, whose input side is `FANIN` seeded scattered cells, so
//! single-cell lookups return small sparse answers, block lookups return
//! run-length `covered` sets, and a quarter-array lookup returns a dense
//! answer: all three containers and wire frames occur.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use subzero::capture::OverflowPolicy;
use subzero::model::{Direction, LineageStrategy, StorageStrategy};
use subzero::query::QuerySpec;
use subzero::{ArrayNode, OpDatastore, SubZero};
use subzero_array::{Array, ArrayRef, CellSet, Coord, ReprCounts, Shape};
use subzero_engine::ops::{Elementwise1, UnaryKind};
use subzero_engine::{LineageMode, LineageSink, OpId, OpMeta, Operator, RegionPair, Workflow};
use subzero_server::{
    shard_of, Client as Conn, LookupStep, OpSpec, RemoteSession, Server, ServerConfig,
};

use super::{answers_checksum, STATIC_PLANS};
use crate::harness::{Client, Config, ProbeInputs, Verification, Workload};
use crate::sys::{self, SplitMix};
use crate::trace::Tracer;

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Ingest batches per round.
const BATCHES_PER_ROUND: usize = 4;
/// Side of an output tile: one region pair covers `TILE x TILE` cells.
const TILE: u32 = 4;
/// Input cells per region pair.
const FANIN: usize = 16;

/// Sizes that differ between the real run and `--check`.
#[derive(Clone, Copy)]
struct Dims {
    /// Side of the square array; 256 makes it exactly one 2^16-cell chunk.
    side: u32,
    /// Rounds per session: the last round of a session commits it.
    rounds: usize,
    pairs_per_batch: usize,
    /// Single-cell queries per lookup.
    chunk: usize,
    /// Side of a block query, and of the one large query per region lookup.
    block: u32,
    large: u32,
    blocks_per_region_lookup: usize,
}

impl Dims {
    fn new(tiny: bool) -> Self {
        let d = if tiny {
            Dims {
                side: 64,
                rounds: 8,
                pairs_per_batch: 16,
                chunk: 16,
                block: 8,
                large: 32,
                blocks_per_region_lookup: 3,
            }
        } else {
            Dims {
                side: 256,
                rounds: 32,
                pairs_per_batch: 64,
                chunk: 128,
                block: 32,
                large: 128,
                blocks_per_region_lookup: 7,
            }
        };
        // A session stores exactly one pair per tile and operator, so every
        // cell of a committed session has lineage.
        assert_eq!(
            d.rounds * BATCHES_PER_ROUND * d.pairs_per_batch / 2,
            d.tiles()
        );
        d
    }

    fn shape(&self) -> Shape {
        Shape::d2(self.side, self.side)
    }

    fn tiles(&self) -> usize {
        ((self.side / TILE) * (self.side / TILE)) as usize
    }
}

/// One stage of the tile workflow: copies its input and emits one full
/// region pair per output tile.
#[derive(Debug)]
struct TileOp {
    pairs: Vec<RegionPair>,
}

impl TileOp {
    fn new(seed: u64, stage: u64, dims: Dims) -> Self {
        let (shape, per_side) = (dims.shape(), dims.side / TILE);
        let tiles = dims.tiles() as u64;
        let mut rng = SplitMix::new(seed ^ (stage << 32) ^ 0x7469_6c65);
        // Visit tiles in a seeded order (an odd multiplier permutes a
        // power-of-two range).
        let (mul, add) = (rng.next_u64() | 1, rng.next_u64());
        let pairs = (0..tiles)
            .map(|i| {
                let t = (i.wrapping_mul(mul).wrapping_add(add) % tiles) as u32;
                let (tr, tc) = (t / per_side * TILE, t % per_side * TILE);
                let outcells: Vec<Coord> = (0..TILE * TILE)
                    .map(|k| Coord::d2(tr + k / TILE, tc + k % TILE))
                    .collect();
                let mut incells: Vec<Coord> = (0..FANIN)
                    .map(|_| shape.unravel(rng.below(shape.num_cells() as u64) as usize))
                    .collect();
                incells.sort_unstable();
                incells.dedup();
                RegionPair::Full {
                    outcells,
                    incells: vec![incells],
                }
            })
            .collect();
        TileOp { pairs }
    }
}

impl Operator for TileOp {
    fn name(&self) -> &str {
        "tile"
    }

    fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
        input_shapes[0]
    }

    fn supported_modes(&self) -> Vec<LineageMode> {
        vec![LineageMode::Full, LineageMode::Blackbox]
    }

    fn run(&self, inputs: &[ArrayRef], modes: &[LineageMode], sink: &mut dyn LineageSink) -> Array {
        if modes.contains(&LineageMode::Full) {
            sink.lwrite_batch(self.pairs.clone());
        }
        (*inputs[0]).clone()
    }
}

/// Everything one client sends, fixed by the seed: the same in every
/// session, so any committed session answers the same lookups.
struct ClientPlan {
    dims: Dims,
    workflow: Arc<Workflow>,
    /// The pass-through operator that loads the external array; the daemon
    /// stores nothing for it.
    load: OpId,
    /// The two tile stages, chained after `load`.
    ops: [OpId; 2],
    /// Each operator's pairs, in emission order.
    pairs: [Vec<RegionPair>; 2],
    /// `(operator index, pairs)` of every ingest batch, in send order.
    batches: Vec<(usize, Vec<RegionPair>)>,
    /// The lookup of each round: `(operator index, query cell lists)`.
    lookups: Vec<(usize, Vec<Vec<Coord>>)>,
    /// Per lookup and query: the answer cells and the covered query cells,
    /// computed from the pair lists (the independent oracle).
    oracle: Vec<Vec<(CellSet, CellSet)>>,
}

impl ClientPlan {
    fn new(seed: u64, cid: usize, dims: Dims) -> Self {
        let seed = seed ^ ((cid as u64 + 1) << 40);
        let stages = [TileOp::new(seed, 0, dims), TileOp::new(seed, 1, dims)];
        let pairs = [stages[0].pairs.clone(), stages[1].pairs.clone()];
        let [s0, s1] = stages;
        let mut b = Workflow::builder("tiles");
        // The leading pass-through gives the stages ids 1 and 2, which
        // `shard_of` places on different shards of a 2-shard daemon.
        let load = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(1.0))), "input");
        let op0 = b.add_unary(Arc::new(s0), load);
        let op1 = b.add_unary(Arc::new(s1), op0);
        let workflow = Arc::new(b.build().expect("tile workflow builds"));
        assert_ne!(
            shard_of(op0, SHARDS),
            shard_of(op1, SHARDS),
            "the two stages must land on different shards"
        );

        // Batches alternate between the operators, so both shards ingest
        // throughout a round.
        let n = dims.rounds * BATCHES_PER_ROUND;
        let batches = (0..n)
            .map(|i| {
                let (op, k) = (i % 2, i / 2);
                let at = k * dims.pairs_per_batch;
                (op, pairs[op][at..at + dims.pairs_per_batch].to_vec())
            })
            .collect();

        let shape = dims.shape();
        let mut rng = SplitMix::new(seed ^ 0x6c6f_6f6b);
        let mut square = |side: u32| -> Vec<Coord> {
            let r0 = rng.below(u64::from(dims.side - side + 1)) as u32;
            let c0 = rng.below(u64::from(dims.side - side + 1)) as u32;
            (0..side * side)
                .map(|k| Coord::d2(r0 + k / side, c0 + k % side))
                .collect()
        };
        // Every fourth lookup asks for regions: blocks (sparse answers,
        // run-length covered sets) and one large square (a dense answer).
        let lookups: Vec<(usize, Vec<Vec<Coord>>)> = (0..dims.rounds)
            .map(|r| {
                let queries = if r % 4 == 3 {
                    let mut q: Vec<Vec<Coord>> = (0..dims.blocks_per_region_lookup)
                        .map(|_| square(dims.block))
                        .collect();
                    q.push(square(dims.large));
                    q
                } else {
                    (0..dims.chunk).map(|_| square(1)).collect()
                };
                (r % 2, queries)
            })
            .collect();

        let mut by_cell: [HashMap<Coord, &[Coord]>; 2] = [HashMap::new(), HashMap::new()];
        for (op, map) in by_cell.iter_mut().enumerate() {
            for pair in &pairs[op] {
                if let RegionPair::Full { outcells, incells } = pair {
                    for oc in outcells {
                        map.insert(*oc, &incells[0]);
                    }
                }
            }
        }
        let oracle = lookups
            .iter()
            .map(|(op, queries)| {
                queries
                    .iter()
                    .map(|q| {
                        let result = CellSet::from_coords(
                            shape,
                            q.iter().flat_map(|c| by_cell[*op][c].iter().copied()),
                        );
                        (result, CellSet::from_coords(shape, q.iter().copied()))
                    })
                    .collect()
            })
            .collect();
        ClientPlan {
            dims,
            workflow,
            load,
            ops: [op0, op1],
            pairs,
            batches,
            lookups,
            oracle,
        }
    }

    fn specs(&self) -> Vec<OpSpec> {
        let shape = self.dims.shape();
        self.ops
            .iter()
            .map(|&op_id| OpSpec {
                op_id,
                input_shapes: vec![shape],
                output_shape: shape,
                strategies: vec![StorageStrategy::full_one()],
            })
            .collect()
    }

    fn step(&self, round: usize) -> LookupStep {
        let (op, queries) = &self.lookups[round];
        LookupStep {
            op_id: self.ops[*op],
            direction: Direction::Backward,
            input_idx: 0,
            queries: queries
                .iter()
                .map(|q| CellSet::from_coords(self.dims.shape(), q.iter().copied()))
                .collect(),
        }
    }

    /// Cells (both sides of every pair) one session sends.
    fn cells_per_session(&self) -> u64 {
        self.pairs
            .iter()
            .flatten()
            .map(|p| p.num_cells() as u64)
            .sum()
    }
}

struct DaemonClient {
    cid: usize,
    conn: Conn,
    plan: Arc<ClientPlan>,
    /// The last committed session (lookups go here) and the one being
    /// written.
    committed: u64,
    current: u64,
    sessions_opened: u64,
    round: usize,
    /// Containers of every answer received.
    mix: ReprCounts,
}

impl DaemonClient {
    /// The name of this client's `n`-th session.
    fn session_name(&self, n: u64) -> String {
        format!("c{}-s{n}", self.cid)
    }

    fn open_next(&mut self) -> Result<u64, String> {
        let name = self.session_name(self.sessions_opened);
        self.sessions_opened += 1;
        self.conn
            .open_session(&name, self.plan.specs())
            .map_err(|e| format!("open {name}: {e}"))
    }

    fn store(&mut self, batch: usize, tr: &mut Tracer) -> Result<(), String> {
        let (op, pairs) = &self.plan.batches[batch];
        let (op_id, pairs) = (self.plan.ops[*op], pairs.clone());
        tr.begin("server.client.store_batch");
        let ack = self.conn.store_batch(self.current, op_id, pairs);
        tr.end();
        match ack {
            Ok(a) if a.accepted => Ok(()),
            Ok(_) => Err(format!("batch {batch} shed")),
            Err(e) => Err(format!("store batch {batch}: {e}")),
        }
    }

    /// The lookup of `round` against the committed session; returns the
    /// `(result, covered)` sets.
    fn lookup(&mut self, round: usize, tr: &mut Tracer) -> Result<Vec<(CellSet, CellSet)>, String> {
        let step = self.plan.step(round);
        tr.begin("server.client.lookup");
        let out = self.conn.lookup(self.committed, vec![step]);
        tr.end();
        let mut out = out.map_err(|e| format!("lookup {round}: {e}"))?;
        let outcomes = out.pop().ok_or("lookup returned no step")?;
        let mut answers = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            if o.scanned {
                return Err(format!("lookup {round} scanned"));
            }
            self.mix.merge(&o.result.repr_counts());
            self.mix.merge(&o.covered.repr_counts());
            answers.push((o.result, o.covered));
        }
        Ok(answers)
    }

    fn commit(&mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.begin("server.client.finish_session");
        let done = self.conn.finish_session(self.current);
        tr.end();
        done.map_err(|e| format!("finish: {e}"))?;
        tr.begin("server.client.close_session");
        let closed = self.conn.close_session(self.committed);
        tr.end();
        closed.map_err(|e| format!("close: {e}"))?;
        self.committed = self.current;
        tr.begin("server.client.open_session");
        let next = self.open_next();
        tr.end();
        self.current = next?;
        Ok(())
    }
}

impl Client for DaemonClient {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> Result<(), String> {
        let round = self.round;
        self.round = (round + 1) % self.plan.dims.rounds;
        for b in 0..BATCHES_PER_ROUND {
            self.store(round * BATCHES_PER_ROUND + b, tr)?;
        }
        let answers = self.lookup(round, tr)?;
        let oracle = &self.plan.oracle[round];
        // In the window only sizes are compared; `verify` compares cells.
        if answers.len() != oracle.len()
            || answers
                .iter()
                .zip(oracle)
                .any(|(a, o)| a.0.len() != o.0.len() || a.1.len() != o.1.len())
        {
            return Err(format!(
                "lookup {round}: answer sizes differ from the oracle"
            ));
        }
        if self.round == 0 {
            self.commit(tr)?;
        }
        Ok(())
    }
}

pub struct DaemonMixed {
    dims: Dims,
    server: Option<Server>,
    socket: PathBuf,
    data_dir: PathBuf,
    plans: Vec<Arc<ClientPlan>>,
    clients: Vec<DaemonClient>,
    /// Bytes under `data_dir` once both baseline sessions were committed.
    baseline_bytes: u64,
}

impl DaemonMixed {
    fn start_server(socket: &Path, data_dir: &Path) -> Server {
        Server::start(
            socket,
            ServerConfig {
                data_dir: Some(data_dir.to_path_buf()),
                shards: SHARDS,
                queue_depth: 64,
                ingest_policy: OverflowPolicy::Block,
                store_stall: Duration::ZERO,
                session_ttl: None,
            },
        )
        .expect("daemon starts")
    }
}

impl Drop for DaemonMixed {
    fn drop(&mut self) {
        // Connections first, so the daemon's handler threads see EOF.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown_and_wait();
        }
    }
}

impl Workload for DaemonMixed {
    const NAME: &'static str = "daemon_mixed";

    /// Starts the daemon and commits one baseline session per client, so
    /// the first lookup has a committed session to read.
    fn setup(cfg: &Config, dir: &Path) -> Self {
        let dims = Dims::new(cfg.tiny);
        let (socket, data_dir) = (dir.join("d.sock"), dir.join("data"));
        let server = Self::start_server(&socket, &data_dir);
        let mut tr = Tracer::off();
        let plans: Vec<Arc<ClientPlan>> = (0..CLIENTS)
            .map(|cid| Arc::new(ClientPlan::new(cfg.seed, cid, dims)))
            .collect();
        let clients = plans
            .iter()
            .enumerate()
            .map(|(cid, plan)| {
                let mut c = DaemonClient {
                    cid,
                    conn: Conn::connect(&socket).expect("client connects"),
                    plan: Arc::clone(plan),
                    committed: 0,
                    current: 0,
                    sessions_opened: 0,
                    round: 0,
                    mix: ReprCounts::default(),
                };
                c.current = c.open_next().expect("baseline session opens");
                for b in 0..c.plan.batches.len() {
                    c.store(b, &mut tr).expect("baseline ingest");
                }
                c.conn
                    .finish_session(c.current)
                    .expect("baseline session commits");
                c.committed = c.current;
                c.current = c.open_next().expect("first session opens");
                c
            })
            .collect();
        DaemonMixed {
            dims,
            server: Some(server),
            socket,
            baseline_bytes: sys::dir_bytes(&data_dir),
            data_dir,
            plans,
            clients,
        }
    }

    fn describe(&self) -> String {
        let d = self.dims;
        let ops = self.plans[0].ops;
        format!(
            "durable daemon, {SHARDS} shards (ops {:?} on shards {:?}), {CLIENTS} clients, array {}; one op = {BATCHES_PER_ROUND} x store_batch({} pairs) + 1 lookup ({} single cells, every 4th: {} {}x{} blocks + one {}x{} square), every {}th op finish_session (two-phase commit, fsync) + new session",
            ops,
            ops.map(|op| shard_of(op, SHARDS)),
            d.shape(),
            d.pairs_per_batch,
            d.chunk,
            d.blocks_per_region_lookup,
            d.block,
            d.block,
            d.large,
            d.large,
            d.rounds
        )
    }

    fn clients(&mut self) -> Vec<Box<dyn Client + '_>> {
        self.clients
            .iter_mut()
            .map(|c| Box::new(c) as Box<dyn Client + '_>)
            .collect()
    }

    /// Measured when set-up ends (two committed sessions), so the count is
    /// exact and does not depend on how many rounds the window fits.
    fn disk_overhead(&self) -> (u64, u64) {
        let cells: u64 = self.plans.iter().map(|p| p.cells_per_session()).sum();
        (self.baseline_bytes, 8 * cells)
    }

    fn verify(&mut self, cfg: &Config) -> Verification {
        let mut v = Verification::default();
        let mut tr = Tracer::off();
        let shape = self.dims.shape();
        let meta = OpMeta::new(vec![shape], shape);

        let (mut oracle_ok, mut local_ok) = (true, true);
        let mut all: Vec<CellSet> = Vec::new();
        for c in &mut self.clients {
            // The same pairs in in-process datastores: remote == in-process.
            let plan = Arc::clone(&c.plan);
            let mut local: Vec<OpDatastore> = (0..2)
                .map(|op| {
                    let mut ds = OpDatastore::in_memory(
                        format!("verify-{op}"),
                        StorageStrategy::full_one(),
                        &meta,
                    );
                    ds.store_batch(&plan.pairs[op], cfg.workers);
                    ds
                })
                .collect();
            let node = plan.workflow.node(plan.ops[0]).expect("tile op");
            for round in 0..plan.dims.rounds {
                let remote = c.lookup(round, &mut tr).expect("verification lookup");
                oracle_ok &= remote == plan.oracle[round];
                let step = plan.step(round);
                let refs: Vec<&CellSet> = step.queries.iter().collect();
                let outcomes = local[plan.lookups[round].0].lookup_backward_many(
                    &refs,
                    0,
                    node.operator.as_ref(),
                    &meta,
                );
                local_ok &= outcomes
                    .iter()
                    .zip(&remote)
                    .all(|(l, r)| l.result == r.0 && l.covered == r.1);
                all.extend(remote.into_iter().map(|(result, _)| result));
            }
        }
        v.check("remote answers == generator oracle", oracle_ok);
        v.check("remote answers == in-process datastores", local_ok);

        // Two-hop traversal: RemoteSession == in-process QuerySession.
        {
            let c = &mut self.clients[0];
            let plan = Arc::clone(&c.plan);
            let batches: Vec<Vec<Coord>> = plan.lookups[0].1.iter().take(8).cloned().collect();
            let source = ArrayNode::Output(plan.load);
            let metas = [plan.load, plan.ops[0], plan.ops[1]].map(|op| (op, meta.clone()));
            let remote = RemoteSession::new(&mut c.conn, c.committed, &plan.workflow, metas)
                .backward_many(plan.ops[1], &source, &batches)
                .expect("remote traversal");
            let mut sz = SubZero::new();
            sz.set_strategy(LineageStrategy::uniform(
                plan.ops,
                vec![StorageStrategy::full_one()],
            ));
            sz.set_query_options(STATIC_PLANS);
            let mut inputs = HashMap::new();
            inputs.insert("input".to_string(), Array::zeros(shape));
            let run = sz.execute(&plan.workflow, &inputs).expect("local capture");
            let local = sz
                .session(&run)
                .backward_many(batches)
                .from(plan.ops[1])
                .to(plan.load)
                .expect("local traversal");
            v.check(
                "RemoteSession == in-process QuerySession",
                remote.len() == local.len()
                    && remote.iter().zip(&local).all(|(r, l)| *r == l.cells),
            );
        }

        let mix = self.clients.iter().fold(ReprCounts::default(), |mut m, c| {
            m.merge(&c.mix);
            m
        });
        // A 64x64 `--check` array cannot hold a dense container.
        v.check(
            "answers used sparse, run-length and dense containers",
            mix.sparse > 0 && mix.runs > 0 && (mix.dense > 0 || cfg.tiny),
        );
        let stats = self.clients[0].conn.stats().expect("daemon stats");
        v.check("no batch was shed", stats.shed_batches == 0);
        let committed: u64 = self.clients.iter().map(|c| c.sessions_opened - 1).sum();
        v.check(
            "every finished session committed",
            stats.commits == committed,
        );

        // Restart: what was committed must be readable from disk alone.
        let names: Vec<String> = self
            .clients
            .iter()
            .map(|c| c.session_name(c.sessions_opened - 2))
            .collect();
        self.clients.clear();
        self.server
            .take()
            .expect("daemon running")
            .shutdown_and_wait();
        self.server = Some(Self::start_server(&self.socket, &self.data_dir));
        let mut restart_ok = true;
        for (name, plan) in names.iter().zip(&self.plans) {
            let mut conn = Conn::connect(&self.socket).expect("reconnect");
            let session = conn.open_session(name, plan.specs()).expect("reattach");
            let out = conn
                .lookup(session, vec![plan.step(0)])
                .expect("lookup after restart");
            restart_ok &= out[0]
                .iter()
                .zip(&plan.oracle[0])
                .all(|(o, want)| o.result == want.0 && o.covered == want.1);
        }
        v.check("committed sessions answer after a restart", restart_ok);

        let (cells, hash) = answers_checksum(&all);
        v.golden("pairs_per_session", 2 * self.dims.tiles());
        v.golden("baseline_bytes_on_disk", self.baseline_bytes);
        v.golden("answer_cells", cells);
        v.golden("answer_hash", format!("{hash:016x}"));
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let plan = &self.plans[0];
        let mut inputs = HashMap::new();
        inputs.insert("input".to_string(), Array::zeros(self.dims.shape()));
        let target = [ArrayNode::Output(plan.load), ArrayNode::Output(plan.ops[0])];
        ProbeInputs {
            workflow: Arc::clone(&plan.workflow),
            inputs,
            strategy: LineageStrategy::uniform(plan.ops, vec![StorageStrategy::full_one()]),
            query_calls: plan
                .lookups
                .iter()
                .map(|(op, queries)| {
                    (
                        QuerySpec::backward(Vec::new(), plan.ops[*op], target[*op].clone()),
                        queries.clone(),
                    )
                })
                .collect(),
            // One capture of the workflow is one session: `rounds` ops.
            captures_per_op: 1.0 / self.dims.rounds as f64,
            query_calls_per_op: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::Fnv;

    /// The default seed's generated lineage is pinned: the golden checksums
    /// of `daemon_mixed` are answers to exactly these pairs.
    #[test]
    fn default_seed_plan_is_stable() {
        let plan = ClientPlan::new(42, 0, Dims::new(true));
        let mut h = Fnv::default();
        for pair in plan.pairs.iter().flatten() {
            let RegionPair::Full { outcells, incells } = pair else {
                panic!("tile stages emit full pairs");
            };
            for c in outcells.iter().chain(&incells[0]) {
                h.push(plan.dims.shape().ravel(c) as u64);
            }
        }
        assert_eq!(h.finish(), 0x3c6c_4df2_b59b_4cbb);
        assert_eq!(plan.batches.len(), 32);
        assert_eq!(plan.lookups.len(), plan.oracle.len());
        // Every cell is covered once per stage, so every query is too.
        for (lookup, oracle) in plan.lookups.iter().zip(&plan.oracle) {
            for (query, (result, covered)) in lookup.1.iter().zip(oracle) {
                assert_eq!(covered.len(), query.len());
                assert!(!result.is_empty());
            }
        }
    }
}
