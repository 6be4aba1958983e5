//! The two workloads.  Each spawns the server in-process with the shipped
//! defaults, sets it up (several times, for `setup_s`), then drives closed
//! loops over loopback connections: every connection sends its next request
//! only after the previous reply arrived and was checked.

use crate::fixture::{self, stream, Entries, Local, Rng};
use crate::stats::{Latencies, Tally};
use crate::trace::{self, Algorithm, ProbeInputs, TraceData, Tracer, Twins, TWO_HOP};
use matlang_server::{
    Client, ClientError, DeltaWire, SemiringKind, Server, ServerConfig, ServerHandle, Store,
    StoreConfig,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The workload names, in report order.
pub const NAMES: [&str; 2] = ["standing-reads", "mutating-graph"];

/// Set-ups per run, by workload; `setup_s` is their median.  Cheap
/// set-ups repeat more often, so that the median is steady.
const READ_SETUPS: usize = 11;
const MUT_SETUPS: usize = 41;
/// Recoveries per run; `recovery_ms` is their median.
const RECOVERY_REPS: usize = 5;

/// The out-degree vector of the standing-reads graph.
const OUT_DEGREE: &str = "(G * ones(G))";
/// The iterated closure `X ← G·(X + X·G)`, n rounds.
const ITER_CLOSURE: &str = "(for v:n, X:[n,n] = G . (X + (X * G)))";

/// Standing-reads graph: nodes and average degree.
const READ_N: usize = 2000;
const READ_DEGREE: f64 = 8.0;
/// Inputs of the paper's algorithms, which the traced run's probes time.
const DENSE_N: usize = 32;
const FW_N: usize = 16;
const FW_EDGES: usize = 24;
const ITER_N: usize = 200;
const ITER_DEGREE: f64 = 4.0;

/// What a run is asked to do.
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether to make the traced run: an untraced and a traced window,
    /// each half of `seconds`.
    pub trace: bool,
    /// Working directory for the run's data directories.
    pub work: PathBuf,
}

impl Options {
    /// Length of each timed window.
    fn window(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }
}

/// A request class with its own latency metrics.
pub struct Class {
    /// Class name, the prefix of its metric names.
    pub name: &'static str,
    /// The tail quantile reported next to the median.
    pub tail: f64,
}

/// One timed window.
#[derive(Default)]
pub struct Window {
    /// Latencies per class, µs.
    pub lat: Latencies,
    /// Wall length of the window, s.
    pub seconds: f64,
    /// Peak resident memory at its end, MiB.
    pub rss_mb: f64,
}

/// Everything one workload run produced.
pub struct Outcome {
    /// The workload's request classes.
    pub classes: &'static [Class],
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// The untraced window.
    pub untraced: Window,
    /// The traced window, when tracing.
    pub traced: Option<Window>,
    /// Every checked request.
    pub tally: Tally,
    /// Extra end-to-end rows: name, value, unit, samples.
    pub rows: Vec<(&'static str, f64, &'static str, usize)>,
    /// Free-form facts for the report header.
    pub info: Vec<String>,
    /// Per-layer metrics, when tracing.
    pub layers: BTreeMap<&'static str, (f64, &'static str)>,
    /// Spans of the traced window, when tracing.
    pub trace: Option<TraceData>,
    /// Load connections.
    pub connections: usize,
}

/// Runs one workload by name (one of [`NAMES`]).
pub fn run(name: &str, opts: &Options) -> Outcome {
    match name {
        "standing-reads" => standing_reads(opts),
        "mutating-graph" => mutating_graph(opts),
        other => unreachable!("workload `{other}` was validated by the caller"),
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The server's resolved worker count under the default configuration.
pub fn resolved_workers() -> usize {
    matlang_matrix::configured_threads()
}

fn check_connections(connections: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        connections <= nproc,
        "{connections} load connections exceed nproc = {nproc}"
    );
    assert!(
        resolved_workers() >= connections,
        "a session pins a worker: {} workers cannot serve {connections} load connections",
        resolved_workers()
    );
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect over loopback")
}

fn ok<T>(what: &str, r: Result<T, ClientError>) -> T {
    r.unwrap_or_else(|e| panic!("set-up step `{what}` failed: {e}"))
}

/// Sets up `reps` times; keeps the last server.  `make` receives the
/// repetition number and returns the server and whatever the run needs.
fn repeated_setup<T>(
    reps: usize,
    mut make: impl FnMut(usize) -> (ServerHandle, T),
) -> (Vec<f64>, ServerHandle, T) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        if let Some((handle, _)) = last.take() {
            ServerHandle::shutdown(handle);
        }
        let t = Instant::now();
        let made = make(rep);
        times.push(t.elapsed().as_secs_f64());
        last = Some(made);
    }
    let (handle, value) = last.expect("at least one set-up");
    (times, handle, value)
}

fn finish_window(lat: Latencies, started: Instant) -> Window {
    Window {
        lat,
        seconds: started.elapsed().as_secs_f64(),
        rss_mb: peak_rss_mb(),
    }
}

/// Per-connection results of a closed loop.
#[derive(Default)]
struct Loop {
    lat: Latencies,
    tally: Tally,
    trace: TraceData,
}

impl Loop {
    fn merge_into(self, lat: &mut Latencies, tally: &mut Tally, trace: &mut TraceData) {
        lat.merge(self.lat);
        tally.merge(self.tally);
        trace.merge(self.trace);
    }
}

/// A closed loop of `EXEC`s of one prepared statement.
fn exec_loop(
    addr: std::net::SocketAddr,
    deadline: Instant,
    class: &'static str,
    qid: usize,
    expected: &Entries,
    tracer: Option<&Tracer>,
) -> Loop {
    // Replay about one in a thousand microseconds of wire time: every
    // request of a slow class, a sample of a fast one.
    let every = if class == "exec_scalar" { 16 } else { 1 };
    let mut out = Loop::default();
    let mut client = Client::connect(addr).expect("load connection");
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let reply = client.exec("g", qid);
        let t1 = Instant::now();
        out.lat.add(class, (t1 - t0).as_secs_f64() * 1e6);
        out.tally.check(
            class,
            reply.as_ref().map(|r| r.entries.as_slice()),
            expected,
        );
        if let (Some(tracer), Ok(reply)) = (tracer, &reply) {
            if out.trace.sample(every) {
                let r = tracer.replay_exec(&mut out.trace, class, "g", qid, (t0, t1), reply);
                out.tally.record(r);
            }
        }
    }
    client.quit().expect("quit load connection");
    out
}

// ---------------------------------------------------------------------------
// Shared fixtures of the traced run.
// ---------------------------------------------------------------------------

/// The inputs of the paper's algorithms for one seed.
pub struct PaperInputs {
    matrix: Entries,
    fw_graph: Entries,
    iter_graph: Entries,
    locals: [Box<dyn Local>; 3],
}

impl PaperInputs {
    fn new(seed: u64) -> PaperInputs {
        let matrix = fixture::dominant_matrix(DENSE_N, &mut Rng::new(seed, stream::MATRIX));
        let fw_graph = fixture::random_graph(FW_N, FW_EDGES, &mut Rng::new(seed, stream::FW_GRAPH));
        let iter_graph = fixture::erdos_renyi(ITER_N, ITER_DEGREE, gen_seed(seed, 3));
        let locals = [
            fixture::real_dense(DENSE_N, &matrix),
            fixture::bool_dense(FW_N, &fw_graph),
            fixture::bool_adaptive(ITER_N, &iter_graph),
        ];
        PaperInputs {
            matrix,
            fw_graph,
            iter_graph,
            locals,
        }
    }

    fn algorithms(&self) -> Vec<Algorithm<'_>> {
        use matlang_algorithms::{csanky, graphs, lu};
        let [real, fw, iter] = &self.locals;
        vec![
            Algorithm {
                kind: "query_inverse",
                instance: "m",
                text: csanky::inverse("A", "n").to_string(),
                local: real.as_ref(),
            },
            Algorithm {
                kind: "query_lu",
                instance: "m",
                text: lu::upper_factor("A", "n").to_string(),
                local: real.as_ref(),
            },
            Algorithm {
                kind: "query_fw_closure",
                instance: "f",
                text: graphs::transitive_closure_fw("G", "n").to_string(),
                local: fw.as_ref(),
            },
            Algorithm {
                kind: "query_iter_closure",
                instance: "r",
                text: ITER_CLOSURE.to_string(),
                local: iter.as_ref(),
            },
        ]
    }

    /// Loads the three instances into an in-process store.
    fn load_store(&self, s: &Store) {
        let e = |r: Result<_, matlang_server::ServerError>| r.expect("probe store set-up");
        e(s.create_instance_with("m", false, SemiringKind::Real));
        e(s.set_dim("m", "n", DENSE_N));
        e(
            s.load_matrix("m", "A", DENSE_N, DENSE_N, self.matrix.clone())
                .map(drop),
        );
        e(s.create_instance_with("f", false, SemiringKind::Boolean));
        e(s.set_dim("f", "n", FW_N));
        e(s.load_matrix("f", "G", FW_N, FW_N, self.fw_graph.clone())
            .map(drop));
        e(s.create_instance_with("r", true, SemiringKind::Boolean));
        e(s.set_dim("r", "n", ITER_N));
        e(
            s.load_matrix("r", "G", ITER_N, ITER_N, self.iter_graph.clone())
                .map(drop),
        );
    }
}

/// The `GEN` seed of graph `which` for benchmark seed `seed`.
fn gen_seed(seed: u64, which: u64) -> u64 {
    Rng::new(seed, stream::GEN ^ (which << 8)).next_u64() >> 1
}

/// The traced run's shared fixtures: the twins and the probe inputs.
struct TraceFixtures {
    seed: u64,
    twins: Twins,
    paper: PaperInputs,
    paper_store: Store,
    dense: matlang_matrix::Matrix<matlang_semiring::Real>,
}

impl TraceFixtures {
    fn build(opts: &Options) -> TraceFixtures {
        let twins = Twins::build(opts.seed, gen_seed(opts.seed, 2), &opts.work.join("twins"));
        let paper = PaperInputs::new(opts.seed);
        let paper_store = Store::with_config(StoreConfig::builder().no_data_dir().build());
        paper.load_store(&paper_store);
        let dense = fixture::real_matrix(DENSE_N, &paper.matrix);
        TraceFixtures {
            seed: opts.seed,
            twins,
            paper,
            paper_store,
            dense,
        }
    }
}

const ALGORITHMS: [&str; 4] = [
    "query_inverse",
    "query_lu",
    "query_fw_closure",
    "query_iter_closure",
];

/// Checks the paper's algorithms as the in-process store answers them:
/// each against `matlang_core::evaluate`, and Floyd–Warshall also against
/// `baseline::transitive_closure`.
fn check_paper(fx: &TraceFixtures, algorithms: &[Algorithm], tally: &mut Tally) {
    let baseline = fixture::baseline_closure(FW_N, &fx.paper.fw_graph);
    for a in algorithms {
        let served = fx.paper_store.query(a.instance, &a.text);
        let served = served.as_ref().map(|r| r.entries.as_slice());
        tally.check(a.kind, served, &a.local.evaluate(&a.text));
        if a.kind == "query_fw_closure" {
            tally.check("fw vs baseline", served, &baseline);
        }
    }
}

/// Checks and probes, then the per-layer metrics.  `recovery` is `Some`
/// when the workload measured `Store::open` on its own data directory.
#[allow(clippy::too_many_arguments)]
fn finish_trace(
    tracer: &Tracer,
    mut data: TraceData,
    tally: &mut Tally,
    fx: &TraceFixtures,
    graphs: Vec<matlang_matrix::SparseMatrix<matlang_semiring::Boolean>>,
    connections: usize,
    addr: std::net::SocketAddr,
    recovery: Option<(Vec<f64>, f64)>,
) -> (BTreeMap<&'static str, (f64, &'static str)>, TraceData) {
    let algorithms = fx.paper.algorithms();
    check_paper(fx, &algorithms, tally);
    let inputs = ProbeInputs {
        graphs,
        dense: fx.dense.clone(),
        paper: (&fx.paper_store, &algorithms),
        connections,
        addr,
    };
    trace::run_probes(tracer, &mut data, &inputs);
    let (recover_ms, wal_bytes) = recovery.unwrap_or_else(|| {
        let per_update = fx.twins.fix_recovery_input(fx.seed);
        (
            trace::probe_recovery(&fx.twins.dir, RECOVERY_REPS),
            per_update,
        )
    });
    let layers = trace::layer_metrics(&data, &ALGORITHMS, &recover_ms, wal_bytes);
    (layers, data)
}

// ---------------------------------------------------------------------------
// standing-reads
// ---------------------------------------------------------------------------

static READ_CLASSES: [Class; 2] = [
    Class {
        name: "exec_scalar",
        tail: 0.99,
    },
    Class {
        name: "exec_vector",
        tail: 0.90,
    },
];

fn standing_reads(opts: &Options) -> Outcome {
    let connections = 2;
    check_connections(connections);
    let seed = gen_seed(opts.seed, 1);
    let (setup_s, handle, (qa, qb, warm)) = repeated_setup(READ_SETUPS, |_| {
        let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
        let mut c = connect(&handle);
        ok(
            "INSTANCE",
            c.create_instance_with("g", true, SemiringKind::Nat),
        );
        ok("DIM", c.set_dim("g", "n", READ_N));
        ok("GEN", c.gen_erdos_renyi("g", "G", "n", READ_DEGREE, seed));
        let qa = ok("PREPARE scalar", c.prepare("g", TWO_HOP));
        let qb = ok("PREPARE vector", c.prepare("g", OUT_DEGREE));
        let warm = (c.exec("g", qa), c.exec("g", qb));
        ok("QUIT", c.quit());
        (handle, (qa, qb, warm))
    });
    let graph = fixture::erdos_renyi(READ_N, READ_DEGREE, seed);
    let local = fixture::nat_adaptive(READ_N, &graph);
    let expect_a = local.evaluate(TWO_HOP);
    let expect_b = local.evaluate(OUT_DEGREE);
    let mut tally = Tally::default();
    tally.check(
        "warm scalar",
        warm.0.as_ref().map(|r| r.entries.as_slice()),
        &expect_a,
    );
    tally.check(
        "warm vector",
        warm.1.as_ref().map(|r| r.entries.as_slice()),
        &expect_b,
    );

    let addr = handle.addr();
    let window = |tracer: Option<&Tracer>, tally: &mut Tally| -> (Window, TraceData) {
        let started = Instant::now();
        let deadline = started + opts.window();
        let loops = std::thread::scope(|s| {
            let a = s.spawn(|| exec_loop(addr, deadline, "exec_scalar", qa, &expect_a, tracer));
            let b = s.spawn(|| exec_loop(addr, deadline, "exec_vector", qb, &expect_b, tracer));
            [a.join().expect("loop A"), b.join().expect("loop B")]
        });
        let (mut lat, mut data) = (Latencies::default(), TraceData::default());
        for l in loops {
            l.merge_into(&mut lat, tally, &mut data);
        }
        (finish_window(lat, started), data)
    };
    let (untraced, _) = window(None, &mut tally);
    let mut outcome = Outcome {
        classes: &READ_CLASSES,
        setup_s,
        untraced,
        traced: None,
        tally: Tally::default(),
        rows: Vec::new(),
        info: vec![format!(
            "graph n={READ_N} nnz={} semiring=nat backend=adaptive",
            graph.len()
        )],
        layers: BTreeMap::new(),
        trace: None,
        connections,
    };
    if opts.trace {
        let fx = TraceFixtures::build(opts);
        let tracer = Tracer::new(handle.store(), &fx.twins);
        let (traced, data) = window(Some(&tracer), &mut tally);
        outcome.traced = Some(traced);
        let graphs = vec![fixture::bool_sparse(READ_N, &graph)];
        let (layers, data) = finish_trace(
            &tracer,
            data,
            &mut tally,
            &fx,
            graphs,
            connections,
            addr,
            None,
        );
        outcome.layers = layers;
        outcome.trace = Some(data);
    }
    handle.shutdown();
    outcome.tally = tally;
    outcome
}

// ---------------------------------------------------------------------------
// mutating-graph
// ---------------------------------------------------------------------------

static MUT_CLASSES: [Class; 2] = [
    Class {
        name: "exec_scalar",
        tail: 0.99,
    },
    Class {
        name: "update",
        tail: 0.99,
    },
];

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        store: StoreConfig::builder().data_dir(dir).build(),
        ..ServerConfig::default()
    }
}

/// The writer's period: it sends one `UPDATE` per period, each after the
/// previous reply (a closed loop with think time).  Every insert grows the
/// graph, and an update costs more on a denser graph, so a writer that ran
/// flat out made more updates in a faster run and its latency rose through
/// the window (~270 to ~370 µs); a fixed rate gives every run the same
/// number of updates and the same growth.  It also keeps the reader's
/// median on the unblocked path: a durable update holds the instance lock
/// through its fsync, and back to back the writer held it most of the time,
/// so the reader's median flipped between runs from "no wait" (~17 µs) to
/// "waited for an fsync" (~140 µs).  The waits show in the reader's p99 and
/// in `exec_scalar_blocked_share`.
const WRITER_PERIOD: Duration = Duration::from_millis(2);

/// A read slower than this waited for the writer.  An unblocked read
/// takes ~30 µs, one that waited for a durable update ~140 µs or more.
const BLOCKED_US: f64 = 100.0;

/// A statement whose answer depends on every edge.  Over `bool` the
/// two-hop count saturates at 1, so it cannot tell a stale memo entry or a
/// lost update from a correct answer; this one can.
const TWO_HOP_MATRIX: &str = "(G * G)";

/// Checks the served graph against `edges`: the two-hop `EXEC` and a
/// `QUERY` of the whole graph.  Returns the two-hop answer.
fn check_graph(
    c: &mut Client,
    tally: &mut Tally,
    when: &str,
    edges: &Entries,
    qid: usize,
) -> Entries {
    let local = fixture::bool_adaptive(trace::MUT_N, &dedup(edges.clone()));
    let exec = c.exec("g", qid);
    tally.check(
        &format!("exec {when}"),
        exec.as_ref().map(|r| r.entries.as_slice()),
        &local.evaluate(TWO_HOP),
    );
    let graph = c.query("g", "G");
    tally.check(
        &format!("graph read-back {when}"),
        graph.as_ref().map(|r| r.entries.as_slice()),
        &local.evaluate("G"),
    );
    exec.map(|r| r.entries).unwrap_or_default()
}

fn mutating_graph(opts: &Options) -> Outcome {
    let connections = 2;
    check_connections(connections);
    let seed = gen_seed(opts.seed, 2);
    let n = trace::MUT_N;
    let (setup_s, handle, (dir, qid, warm)) = repeated_setup(MUT_SETUPS, |rep| {
        let dir = opts.work.join(format!("served-{rep}"));
        let handle = Server::spawn(durable_config(&dir)).expect("spawn server");
        let mut c = connect(&handle);
        ok(
            "INSTANCE",
            c.create_instance_with("g", true, SemiringKind::Boolean),
        );
        ok("DIM", c.set_dim("g", "n", n));
        ok(
            "GEN",
            c.gen_erdos_renyi("g", "G", "n", trace::MUT_DEGREE, seed),
        );
        ok("PERSIST", c.set_persist("g", true));
        let qid = ok("PREPARE", c.prepare("g", TWO_HOP));
        let warm = c.exec("g", qid);
        ok("QUIT", c.quit());
        (handle, (dir, qid, warm))
    });
    let base = fixture::erdos_renyi(n, trace::MUT_DEGREE, seed);
    let expected = fixture::bool_adaptive(n, &base).evaluate(TWO_HOP);
    let mut tally = Tally::default();
    tally.check(
        "warm exec",
        warm.as_ref().map(|r| r.entries.as_slice()),
        &expected,
    );

    let addr = handle.addr();
    let updates = Mutex::new(Rng::new(opts.seed, stream::UPDATES));
    let applied_edges = Mutex::new(Vec::new());
    let window = |tracer: Option<&Tracer>, tally: &mut Tally| -> (Window, TraceData) {
        let started = Instant::now();
        let deadline = started + opts.window();
        if let Some(t) = tracer {
            t.writer_active.store(true, Ordering::Relaxed);
        }
        let (writer, reader) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut out = Loop::default();
                let mut client = Client::connect(addr).expect("writer connection");
                let mut rng = updates.lock().expect("update stream");
                let mut edges = applied_edges.lock().expect("applied edges");
                let mut last_records = None;
                let mut slot = Instant::now();
                while Instant::now() < deadline {
                    // The next slot, or now if the writer fell behind.
                    slot = (slot + WRITER_PERIOD).max(Instant::now());
                    std::thread::sleep(slot.saturating_duration_since(Instant::now()));
                    let e = fixture::edge(&mut rng, n);
                    let t0 = Instant::now();
                    let reply = client.update("g", "G", &[e]);
                    let t1 = Instant::now();
                    out.lat.add("update", (t1 - t0).as_secs_f64() * 1e6);
                    out.tally.record(match &reply {
                        Ok(r) if r.applied == 1 => Ok(()),
                        Ok(r) => Err(format!("update applied {} entries", r.applied)),
                        Err(e) => Err(format!("update: {e}")),
                    });
                    if reply.is_err() {
                        continue;
                    }
                    edges.push(e);
                    if let Some(tracer) = tracer {
                        if out.trace.sample(2) {
                            let r = tracer.replay_update(&mut out.trace, e, Some((t0, t1)));
                            out.tally.record(r);
                            let records = tracer.store.walstat("g").expect("walstat").records;
                            if last_records.is_some_and(|last| records < last) {
                                out.trace.compactions += 1;
                            }
                            last_records = Some(records);
                        }
                    }
                }
                if let Some(t) = tracer {
                    t.writer_active.store(false, Ordering::Relaxed);
                }
                client.quit().expect("quit writer");
                out
            });
            let reader =
                s.spawn(|| exec_loop(addr, deadline, "exec_scalar", qid, &expected, tracer));
            (
                writer.join().expect("writer loop"),
                reader.join().expect("reader loop"),
            )
        });
        let (mut lat, mut data) = (Latencies::default(), TraceData::default());
        writer.merge_into(&mut lat, tally, &mut data);
        reader.merge_into(&mut lat, tally, &mut data);
        (finish_window(lat, started), data)
    };
    let (untraced, _) = window(None, &mut tally);
    let fx = opts.trace.then(|| TraceFixtures::build(opts));
    let traced = fx.as_ref().map(|fx| {
        let tracer = Tracer::new(handle.store(), &fx.twins);
        let (w, mut data) = window(Some(&tracer), &mut tally);
        // This workload has no large reply of its own: read the graph back.
        let mut c = connect(&handle);
        for _ in 0..20 {
            let t0 = Instant::now();
            let reply = c.query("g", "G");
            let t1 = Instant::now();
            match reply {
                Ok(reply) => {
                    let r = tracer.replay_query(
                        &mut data,
                        "probe_readback",
                        "g",
                        "G",
                        None,
                        Some((t0, t1)),
                        Some(&reply),
                    );
                    tally.record(r);
                }
                Err(e) => tally.record(Err(format!("readback: {e}"))),
            }
        }
        ok("QUIT", c.quit());
        (w, data)
    });

    // Now that the writer has stopped: the reader's answer and the whole
    // graph against the final graph.
    let mut c = connect(&handle);
    let mut final_graph = base.clone();
    final_graph.extend(applied_edges.into_inner().expect("applied edges"));
    check_graph(&mut c, &mut tally, "after the window", &final_graph, qid);

    // Fix the recovery input: regenerate the graph (a fresh snapshot, an
    // empty WAL), then log exactly RECOVERY_RECORDS single-edge updates.
    // They also patch a warm `TWO_HOP_MATRIX` memo entry, checked after.
    ok(
        "GEN reset",
        c.gen_erdos_renyi("g", "G", "n", trace::MUT_DEGREE, seed),
    );
    let qm = ok("PREPARE memo check", c.prepare("g", TWO_HOP_MATRIX));
    let cold = c.exec("g", qm);
    tally.check(
        "memo check, cold",
        cold.as_ref().map(|r| r.entries.as_slice()),
        &fixture::bool_adaptive(n, &base).evaluate(TWO_HOP_MATRIX),
    );
    let mut rng = Rng::new(opts.seed, stream::RECOVERY);
    let mut fixed = base.clone();
    let mut patched = 0;
    for _ in 0..trace::RECOVERY_RECORDS {
        let e = fixture::edge(&mut rng, n);
        let r = c.update("g", "G", &[e]);
        if let Ok(r) = &r {
            patched += matches!(r.delta, DeltaWire::Applied { .. }) as usize;
        }
        tally.record(r.map(drop).map_err(|e| format!("recovery update: {e}")));
        fixed.push(e);
    }
    let stat = ok("WALSTAT", c.walstat("g"));
    let patched_answer = c.exec("g", qm);
    tally.check(
        "memo check, patched",
        patched_answer.as_ref().map(|r| r.entries.as_slice()),
        &fixture::bool_adaptive(n, &dedup(fixed.clone())).evaluate(TWO_HOP_MATRIX),
    );
    let before = check_graph(&mut c, &mut tally, "before shutdown", &fixed, qid);
    ok("QUIT", c.quit());
    handle.shutdown();
    tally.record(if stat.records as usize == trace::RECOVERY_RECORDS {
        Ok(())
    } else {
        Err(format!("recovery WAL holds {} records", stat.records))
    });

    // recovery_ms: Store::open inside Server::spawn, then the first EXEC.
    // That EXEC must equal the last one before shutdown; the untimed
    // read-back after it checks that no WAL record was lost.
    let mut recovery_ms = Vec::new();
    for _ in 0..RECOVERY_REPS {
        let t = Instant::now();
        let handle = Server::spawn(durable_config(&dir)).expect("respawn server");
        let mut c = connect(&handle);
        let qid = ok("PREPARE after recovery", c.prepare("g", TWO_HOP));
        let reply = c.exec("g", qid);
        recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(
            "exec after recovery",
            reply.as_ref().map(|r| r.entries.as_slice()),
            &before,
        );
        check_graph(&mut c, &mut tally, "after recovery", &fixed, qid);
        ok("QUIT", c.quit());
        handle.shutdown();
    }

    let reads = untraced.lat.samples("exec_scalar");
    let blocked = reads.iter().filter(|&&us| us > BLOCKED_US).count();
    let mut outcome = Outcome {
        classes: &MUT_CLASSES,
        setup_s,
        traced: None,
        tally: Tally::default(),
        rows: vec![
            ("recovery_ms", crate::stats::median(&recovery_ms), "ms", recovery_ms.len()),
            (
                "exec_scalar_blocked_share",
                blocked as f64 / reads.len().max(1) as f64,
                "ratio",
                reads.len(),
            ),
        ],
        untraced,
        info: vec![
            format!(
                "graph n={n} nnz={} semiring=bool backend=adaptive persist=on wal_compact={}",
                base.len(),
                stat.compact_threshold
            ),
            format!(
                "recovery input: snapshot + {} WAL records ({} bytes), no compaction since the snapshot",
                stat.records, stat.wal_bytes
            ),
            format!(
                "memo check: {patched} of {} updates patched the warm {TWO_HOP_MATRIX} entry",
                trace::RECOVERY_RECORDS
            ),
            format!("exec_scalar_blocked_share counts reads above {BLOCKED_US} us"),
        ],
        layers: BTreeMap::new(),
        trace: None,
        connections,
    };
    if let (Some(fx), Some((w, data))) = (fx.as_ref(), traced) {
        outcome.traced = Some(w);
        // The tracer's served store is gone; probes that need a server get
        // a fresh one on the recovered directory.
        let recover = trace::probe_recovery(&dir, RECOVERY_REPS);
        let handle = Server::spawn(durable_config(&dir)).expect("respawn for probes");
        let tracer = Tracer::new(handle.store(), &fx.twins);
        let per_update = stat.wal_bytes as f64 / stat.records.max(1) as f64;
        let graphs = vec![fixture::bool_sparse(n, &base)];
        let (layers, data) = finish_trace(
            &tracer,
            data,
            &mut tally,
            fx,
            graphs,
            connections,
            handle.addr(),
            Some((recover, per_update)),
        );
        handle.shutdown();
        outcome.layers = layers;
        outcome.trace = Some(data);
    }
    outcome.tally = tally;
    outcome
}

/// Drops repeated edges; the result is sorted row-major.
fn dedup(entries: Entries) -> Entries {
    let set: std::collections::BTreeMap<(usize, usize), f64> =
        entries.into_iter().map(|(i, j, v)| ((i, j), v)).collect();
    set.into_iter().map(|((i, j), v)| (i, j, v)).collect()
}
