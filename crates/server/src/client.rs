//! The typed client: a thin request/response wrapper over the unix socket,
//! plus [`RemoteSession`] — the in-process query walk run over a daemon
//! session.
//!
//! [`RemoteSession`] holds no traversal code of its own.  It runs
//! [`subzero::query::QueryWalk`], the walk `QuerySession` runs, over a
//! backend that answers stored steps with one wire `Lookup` per step.  The
//! walk derives the same DAG plan, seeds the same frontier, skips the same
//! all-empty edges and makes the same per-query choice, so daemon answers
//! are byte-identical to a local `QuerySession` over the same lineage:
//!
//! * an operator the daemon stores (per the strategies the [`Client`]
//!   recorded when it opened the session) answers from its stored lineage;
//! * an operator it does not store answers through its mapping functions,
//!   or the entire-array shortcut, both computed client-side from the
//!   `Workflow`;
//! * a step that would need re-execution fails with
//!   [`QueryError::NeedsReexecution`], because the daemon holds no arrays
//!   to re-run an operator on.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use subzero::datastore::LookupOutcome;
use subzero::model::{Direction, StorageStrategy};
use subzero::query::{QueryBackend, QueryError, QuerySpec, QueryWalk};
use subzero_array::{CellSet, Coord};
use subzero_engine::lineage::RegionPair;
use subzero_engine::paths::ArrayNode;
use subzero_engine::workflow::{OpId, Workflow};
use subzero_engine::OpMeta;

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, LookupStep, OpSpec, ProtocolError,
    Request, Response, ServerStats, WireOutcome,
};

/// Anything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon sent something this client cannot decode.
    Protocol(ProtocolError),
    /// The daemon answered with an error response.
    Server(String),
    /// The daemon answered with the wrong response kind or outcome count.
    Unexpected(String),
    /// A [`RemoteSession`] query failed client-side: its traversal could
    /// not be derived, or a step needs re-execution.
    Query(QueryError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "client protocol error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected: {m}"),
            ClientError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<QueryError> for ClientError {
    fn from(e: QueryError) -> Self {
        ClientError::Query(e)
    }
}

/// Acknowledgement of one ingest batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchAck {
    /// Whether the batch was admitted (`false` means the daemon's
    /// `DropNewest` policy shed it; resend or accept the lineage hole).
    pub accepted: bool,
    /// The connection's running shed count.
    pub shed_total: u64,
}

/// Connection and request resilience knobs for [`Client::connect_with`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Connection attempts before giving up (clamped to at least 1).
    /// Useful against a daemon that is still binding its socket.
    pub connect_attempts: u32,
    /// Backoff before the second connection attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Socket read/write timeout per request round-trip.  `None` (the
    /// default) blocks indefinitely, which is the right call for ingest
    /// under a `Block` admission policy — back-pressure is not a failure.
    pub request_timeout: Option<Duration>,
    /// Reconnect-and-resend attempts after a transport failure, applied
    /// only to idempotent requests (session open/lookup/stats/close).
    /// Ingest batches and commits are never resent: the daemon may have
    /// applied them before the connection died, and replaying them would
    /// double lineage or double-commit.
    pub request_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_attempts: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            request_timeout: None,
            request_retries: 0,
        }
    }
}

/// Whether a request can be safely resent on a fresh connection.
fn is_idempotent(request: &Request) -> bool {
    match request {
        // Re-opening a session reattaches; lookups and stats are reads;
        // closing an already-closed session fails loudly but mutates
        // nothing beyond the first attempt.
        Request::OpenSession { .. }
        | Request::Lookup { .. }
        | Request::Stats
        | Request::CloseSession { .. } => true,
        // A replayed batch would double lineage; a replayed finish would
        // commit whatever happens to be staged at the time; a replayed
        // shutdown races the socket teardown.
        Request::StoreBatch { .. } | Request::FinishSession { .. } | Request::Shutdown => false,
    }
}

fn connect_stream(socket_path: &Path, policy: &RetryPolicy) -> io::Result<UnixStream> {
    let attempts = policy.connect_attempts.max(1);
    let mut delay = policy.base_delay.min(policy.max_delay);
    for attempt in 1..=attempts {
        match UnixStream::connect(socket_path) {
            Ok(stream) => {
                stream.set_read_timeout(policy.request_timeout)?;
                stream.set_write_timeout(policy.request_timeout)?;
                return Ok(stream);
            }
            Err(e) if attempt == attempts => return Err(e),
            Err(_) => {
                subzero::sync::thread::sleep(delay);
                delay = (delay * 2).min(policy.max_delay);
            }
        }
    }
    unreachable!("connect loop returns on the last attempt")
}

/// A blocking client for one daemon connection.
///
/// ```
/// use subzero::model::{Direction, StorageStrategy};
/// use subzero_array::{CellSet, Coord, Shape};
/// use subzero_engine::lineage::RegionPair;
/// use subzero_server::{Client, LookupStep, OpSpec, Server};
///
/// // An in-process daemon on a scratch socket (in-memory stores).
/// let dir = std::env::temp_dir().join(format!("subzero-client-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let socket = dir.join("daemon.sock");
/// let server = Server::start(&socket, Default::default()).unwrap();
///
/// let shape = Shape::d2(4, 4);
/// let mut client = Client::connect(&socket).unwrap();
/// let session = client
///     .open_session(
///         "client-doc",
///         vec![OpSpec {
///             op_id: 0,
///             input_shapes: vec![shape],
///             output_shape: shape,
///             strategies: vec![StorageStrategy::full_one()],
///         }],
///     )
///     .unwrap();
///
/// // Store one region pair: output (1, 2) came from input (2, 1).
/// let ack = client
///     .store_batch(
///         session,
///         0,
///         vec![RegionPair::Full {
///             outcells: vec![Coord::d2(1, 2)],
///             incells: vec![vec![Coord::d2(2, 1)]],
///         }],
///     )
///     .unwrap();
/// assert!(ack.accepted);
/// client.finish_session(session).unwrap();
///
/// // Trace the output cell backward over the wire.
/// let outcomes = client
///     .lookup(
///         session,
///         vec![LookupStep {
///             op_id: 0,
///             direction: Direction::Backward,
///             input_idx: 0,
///             queries: vec![CellSet::from_coords(shape, [Coord::d2(1, 2)])],
///         }],
///     )
///     .unwrap();
/// assert_eq!(outcomes[0][0].result.to_coords(), vec![Coord::d2(2, 1)]);
///
/// drop(client);
/// server.shutdown_and_wait();
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct Client {
    stream: UnixStream,
    socket_path: PathBuf,
    policy: RetryPolicy,
    /// The storage strategies of every operator this client opened, per
    /// session handle: what a [`RemoteSession`] over the handle may look up.
    opened: HashMap<u64, HashMap<OpId, Vec<StorageStrategy>>>,
}

impl Client {
    /// Connects to a daemon's unix socket in one attempt, with no request
    /// timeout and no retries (the [`RetryPolicy`] fields governing those
    /// are zeroed; see [`connect_with`](Client::connect_with)).
    pub fn connect(socket_path: impl AsRef<Path>) -> io::Result<Client> {
        Client::connect_with(
            socket_path,
            RetryPolicy {
                connect_attempts: 1,
                ..RetryPolicy::default()
            },
        )
    }

    /// Connects with bounded-exponential-backoff connection retries, a
    /// per-request timeout, and transparent reconnect-and-resend for
    /// idempotent requests — all per `policy`.
    pub fn connect_with(socket_path: impl AsRef<Path>, policy: RetryPolicy) -> io::Result<Client> {
        let socket_path = socket_path.as_ref().to_path_buf();
        let stream = connect_stream(&socket_path, &policy)?;
        Ok(Client {
            stream,
            socket_path,
            policy,
            opened: HashMap::new(),
        })
    }

    fn call_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        match decode_response(&payload)? {
            Response::Error { message } => Err(ClientError::Server(message)),
            resp => Ok(resp),
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut retries_left = if is_idempotent(request) {
            self.policy.request_retries
        } else {
            0
        };
        loop {
            match self.call_once(request) {
                Err(ClientError::Io(_)) if retries_left > 0 => {
                    retries_left -= 1;
                    self.stream = connect_stream(&self.socket_path, &self.policy)?;
                }
                outcome => return outcome,
            }
        }
    }

    /// Opens (or reattaches to) the named session, registering its
    /// operators.  Returns the session handle.
    pub fn open_session(&mut self, name: &str, ops: Vec<OpSpec>) -> Result<u64, ClientError> {
        let strategies: Vec<(OpId, Vec<StorageStrategy>)> = ops
            .iter()
            .map(|spec| (spec.op_id, spec.strategies.clone()))
            .collect();
        match self.call(&Request::OpenSession {
            name: name.to_string(),
            ops,
        })? {
            Response::SessionOpened { session } => {
                // A reattach keeps the operators opened earlier.
                self.opened.entry(session).or_default().extend(strategies);
                Ok(session)
            }
            other => Err(ClientError::Unexpected(format!(
                "expected SessionOpened, got {other:?}"
            ))),
        }
    }

    /// Ingests one batch of region pairs into an operator's datastores.
    pub fn store_batch(
        &mut self,
        session: u64,
        op_id: OpId,
        pairs: Vec<RegionPair>,
    ) -> Result<BatchAck, ClientError> {
        match self.call(&Request::StoreBatch {
            session,
            op_id,
            pairs,
        })? {
            Response::BatchStored {
                accepted,
                shed_total,
            } => Ok(BatchAck {
                accepted,
                shed_total,
            }),
            other => Err(ClientError::Unexpected(format!(
                "expected BatchStored, got {other:?}"
            ))),
        }
    }

    /// Executes lookup steps; `result[i][q]` answers step `i`'s query `q`.
    pub fn lookup(
        &mut self,
        session: u64,
        steps: Vec<LookupStep>,
    ) -> Result<Vec<Vec<WireOutcome>>, ClientError> {
        match self.call(&Request::Lookup { session, steps })? {
            Response::LookupDone { steps } => Ok(steps),
            other => Err(ClientError::Unexpected(format!(
                "expected LookupDone, got {other:?}"
            ))),
        }
    }

    /// Quiesces and persists the session's datastores (the durability
    /// barrier).  Returns the connection's total shed-batch count.
    pub fn finish_session(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.call(&Request::FinishSession { session })? {
            Response::SessionFinished { shed_total } => Ok(shed_total),
            other => Err(ClientError::Unexpected(format!(
                "expected SessionFinished, got {other:?}"
            ))),
        }
    }

    /// Drops the session's in-memory state daemon-side.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::CloseSession { session })? {
            Response::SessionClosed => {
                self.opened.remove(&session);
                Ok(())
            }
            other => Err(ClientError::Unexpected(format!(
                "expected SessionClosed, got {other:?}"
            ))),
        }
    }

    /// Fetches daemon-wide counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Unexpected(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to shut down gracefully (drain, harvest, exit).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }
}

/// A [`RemoteSession`]'s backend: stored steps go to the daemon.
struct DaemonBackend<'a> {
    client: &'a mut Client,
    session: u64,
    workflow: &'a Workflow,
    metas: HashMap<OpId, OpMeta>,
}

impl QueryBackend for DaemonBackend<'_> {
    type Error = ClientError;

    fn workflow(&self) -> &Workflow {
        self.workflow
    }

    fn meta(&self, op: OpId) -> Result<&OpMeta, ClientError> {
        self.metas
            .get(&op)
            .ok_or_else(|| QueryError::Spec(format!("no metadata for operator {op}")).into())
    }

    fn strategies(&self, op: OpId) -> &[StorageStrategy] {
        self.client
            .opened
            .get(&self.session)
            .and_then(|ops| ops.get(&op))
            .map_or(&[], Vec::as_slice)
    }

    fn stored_entries(&mut self, op: OpId) -> Option<usize> {
        // The daemon reports no entry counts.  They only weigh stored
        // lineage against re-execution, which never runs remotely.
        (!self.strategies(op).is_empty()).then_some(0)
    }

    fn lookup_many(
        &mut self,
        op_id: OpId,
        input_idx: usize,
        direction: Direction,
        queries: &[&CellSet],
    ) -> Result<Vec<LookupOutcome>, ClientError> {
        let step = LookupStep {
            op_id,
            direction,
            input_idx: input_idx as u32,
            queries: queries.iter().map(|&q| q.clone()).collect(),
        };
        let outcomes = self
            .client
            .lookup(self.session, vec![step])?
            .pop()
            .ok_or_else(|| ClientError::Unexpected("lookup returned no step results".into()))?;
        if outcomes.len() != queries.len() {
            return Err(ClientError::Unexpected(format!(
                "lookup returned {} outcomes for {} queries",
                outcomes.len(),
                queries.len()
            )));
        }
        Ok(outcomes
            .into_iter()
            .map(|o| LookupOutcome {
                result: o.result,
                covered: o.covered,
                entries_fetched: o.entries_fetched as usize,
                scanned: o.scanned,
            })
            .collect())
    }
}

/// Multi-hop lineage queries over a daemon session.
///
/// Holds the workflow DAG and per-operator shapes (the daemon itself knows
/// operators only by id and shape) and runs the in-process query walk with
/// default [`QueryOptions`](subzero::query::QueryOptions): one batched wire
/// lookup per stored step, mapping functions for the operators the daemon
/// does not store.
pub struct RemoteSession<'a> {
    walk: QueryWalk<'static, DaemonBackend<'a>>,
}

impl<'a> RemoteSession<'a> {
    /// Wraps a session opened through `client`.  `metas` must cover every
    /// operator a traversal can cross.
    pub fn new(
        client: &'a mut Client,
        session: u64,
        workflow: &'a Workflow,
        metas: impl IntoIterator<Item = (OpId, OpMeta)>,
    ) -> Self {
        RemoteSession {
            walk: QueryWalk::new(DaemonBackend {
                client,
                session,
                workflow,
                metas: metas.into_iter().collect(),
            }),
        }
    }

    /// Traces batches of output cells of `from` back to the array `to`;
    /// one result per batch.
    pub fn backward_many(
        &mut self,
        from: OpId,
        to: &ArrayNode,
        batches: &[Vec<Coord>],
    ) -> Result<Vec<CellSet>, ClientError> {
        self.run(&QuerySpec::backward(Vec::new(), from, to.clone()), batches)
    }

    /// Traces batches of cells of the array `from` forward to the output
    /// of `to`; one result per batch.
    pub fn forward_many(
        &mut self,
        from: &ArrayNode,
        to: OpId,
        batches: &[Vec<Coord>],
    ) -> Result<Vec<CellSet>, ClientError> {
        self.run(&QuerySpec::forward(Vec::new(), from.clone(), to), batches)
    }

    fn run(
        &mut self,
        spec: &QuerySpec,
        batches: &[Vec<Coord>],
    ) -> Result<Vec<CellSet>, ClientError> {
        let results = self.walk.query_many(spec, batches)?;
        Ok(results.into_iter().map(|r| r.cells).collect())
    }
}
