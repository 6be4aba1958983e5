//! The traced run: replay of sampled requests through each layer's public
//! functions, probes for the layers a workload's own requests never reach,
//! and the per-layer metrics computed from the resulting spans.
//!
//! A sampled request's wire call is the parent span.  Its children are the
//! in-process calls for the same request, made after the reply arrived
//! (right after it, or after the window for the long `QUERY`s):
//! `Request::parse` of the request line, the served `Store` call (through
//! `ServerHandle::store()`), and `write_result` / `read_result` on an
//! in-memory buffer.  A child's duration is measured; its position is
//! modelled: children are laid end to end from the parent's start, in the
//! order the server runs them.  The wire call's self time is then what the
//! session loop, the socket and any write stall cost.  The session loop
//! itself needs a `TcpStream`, so it is only ever seen in that self time.

use crate::fixture::{edge, Local, QueryReplay, Rng};
use crate::stats::{geomean, median, Span, SpanLog};
use matlang_server::persist::{Wal, WalRecord};
use matlang_server::protocol::{read_result, write_result, Request};
use matlang_server::{DeltaDisposition, SemiringKind, Store, StoreConfig, WireResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Replies above this many bytes are "large": they outgrow the session's
/// 8 KiB write buffer.
pub const LARGE_REPLY: usize = 8 * 1024;

/// The standing two-hop count, a 1×1 result.
pub const TWO_HOP: &str = "(transpose(ones(G)) * ((G * G) * ones(G)))";

/// The mutating-graph shape: nodes and average degree.
pub const MUT_N: usize = 1000;
/// Average out-degree of the mutating graph.
pub const MUT_DEGREE: f64 = 8.0;
/// Single-edge records in the WAL that recovery replays.
pub const RECOVERY_RECORDS: usize = 1000;

/// Runs `f` inside an obs trace labelled `line`, as the session does for
/// every request that parses, plans or executes, and times it.
fn served<T>(line: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let _trace = matlang_obs::enabled()
        .then(|| matlang_obs::trace::begin(matlang_obs::trace::next_id(), line));
    timed(f)
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Times `f`, returning its value and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_nanos() as u64)
}

/// Metadata of one replayed request.
#[derive(Clone, Debug)]
pub struct RequestMeta {
    /// Request id shared by its spans.
    pub id: u64,
    /// Request class (`exec_scalar`, `query_lu`, `update`, `probe`, …).
    pub kind: &'static str,
    /// Index of the wire span, if the request went over the wire.
    pub wire: Option<usize>,
    /// Encoded reply size, for result replies.
    pub reply_bytes: Option<usize>,
}

/// Everything the traced run records.  One per thread, merged at the end.
#[derive(Default)]
pub struct TraceData {
    /// All spans.
    pub log: SpanLog,
    /// One entry per replayed request.
    pub requests: Vec<RequestMeta>,
    /// Memo-cache hits and misses reported by the sampled wire replies.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Query replays through parser, planner and executor, by class.
    pub queries: Vec<(&'static str, QueryReplay)>,
    /// Replayed updates on the non-durable twin: (delta applied, patched).
    pub updates: Vec<(bool, u64)>,
    /// WAL compactions seen.
    pub compactions: u64,
    /// `Client::ping` round trips, ns.
    pub pings: Vec<f64>,
    /// Free-standing measurements (probes), by metric name.
    pub probes: BTreeMap<&'static str, Vec<f64>>,
    seen: u64,
}

impl TraceData {
    /// Merges another thread's data.
    pub fn merge(&mut self, other: TraceData) {
        let base = self.log.spans().len();
        self.log.append(other.log);
        self.requests
            .extend(other.requests.into_iter().map(|mut r| {
                r.wire = r.wire.map(|w| w + base);
                r
            }));
        self.hits += other.hits;
        self.misses += other.misses;
        self.queries.extend(other.queries);
        self.updates.extend(other.updates);
        self.compactions += other.compactions;
        self.pings.extend(other.pings);
        for (name, values) in other.probes {
            self.probes.entry(name).or_default().extend(values);
        }
    }

    /// Whether the request that just completed should be replayed: every
    /// `every`-th one.  Counting requests, not time, keeps slow requests
    /// from being over-sampled.
    pub fn sample(&mut self, every: u64) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(every)
    }

    fn count(&self, name: &str) -> usize {
        self.log.spans().iter().filter(|s| s.name == name).count()
    }
}

/// The non-durable and durable twins of the mutating graph, which absorb
/// replayed `UPDATE`s (so no update reaches the served instance twice),
/// plus a spare WAL for timing `Wal::append` alone.
pub struct Twins {
    /// Persistence off.
    pub off: Store,
    /// Persistence on, under `dir`.
    pub on: Store,
    /// The durable twin's data directory.
    pub dir: PathBuf,
    /// The prepared two-hop statement (same id on both twins).
    pub qid: usize,
    gen_seed: u64,
    wal: Mutex<Wal>,
    updates: Mutex<Rng>,
}

impl Twins {
    /// Builds both twins with the mutating graph of `seed`.
    pub fn build(seed: u64, gen_seed: u64, dir: &Path) -> Twins {
        std::fs::create_dir_all(dir).expect("create twin directory");
        let off = Store::with_config(StoreConfig::builder().no_data_dir().build());
        let on = Store::with_config(StoreConfig::builder().data_dir(dir).build());
        let mut qid = 0;
        for (store, persist) in [(&off, false), (&on, true)] {
            store
                .create_instance_with("g", true, SemiringKind::Boolean)
                .expect("twin instance");
            store.set_dim("g", "n", MUT_N).expect("twin dim");
            store
                .generate_matrix(
                    "g",
                    "G",
                    "n",
                    matlang_server::GenKind::ErdosRenyi {
                        avg_degree: MUT_DEGREE,
                        seed: gen_seed,
                    },
                )
                .expect("twin graph");
            if persist {
                store.set_persist("g", true).expect("twin persistence");
            }
            qid = store.prepare("g", TWO_HOP).expect("twin prepare").qid;
            store.exec("g", &[qid]).expect("twin warm exec");
        }
        let (wal, _) = Wal::open(&dir.join("probe.wal")).expect("probe WAL");
        Twins {
            off,
            on,
            dir: dir.to_path_buf(),
            qid,
            gen_seed,
            wal: Mutex::new(wal),
            updates: Mutex::new(Rng::new(seed, crate::fixture::stream::UPDATES ^ 0xface)),
        }
    }

    /// The next edge of the twins' own update stream (for probes).
    pub fn next_edge(&self) -> (usize, usize, f64) {
        edge(&mut self.updates.lock().expect("rng lock"), MUT_N)
    }

    /// Resets the durable twin to its generated graph (a fresh snapshot
    /// and an empty WAL), then logs exactly [`RECOVERY_RECORDS`] single-edge
    /// updates, so recovery always reads the same shape of input.
    /// Returns the WAL bytes per record.
    pub fn fix_recovery_input(&self, seed: u64) -> f64 {
        self.on
            .generate_matrix(
                "g",
                "G",
                "n",
                matlang_server::GenKind::ErdosRenyi {
                    avg_degree: MUT_DEGREE,
                    seed: self.gen_seed,
                },
            )
            .expect("reset twin graph");
        let mut rng = Rng::new(seed, crate::fixture::stream::RECOVERY);
        for _ in 0..RECOVERY_RECORDS {
            let e = edge(&mut rng, MUT_N);
            self.on.update("g", "G", &[e]).expect("recovery update");
        }
        let stat = self.on.walstat("g").expect("twin walstat");
        assert_eq!(stat.records as usize, RECOVERY_RECORDS, "fixed WAL records");
        stat.wal_bytes as f64 / stat.records as f64
    }
}

/// Shared state of a traced window.
pub struct Tracer<'a> {
    /// Span clock origin.
    pub epoch: Instant,
    /// The served store.
    pub store: &'a Store,
    /// Twins that absorb replayed updates.
    pub twins: &'a Twins,
    /// Set while a connection is sending `UPDATE`s to the served instance.
    pub writer_active: AtomicBool,
}

/// Request ids, unique across every tracer of the run.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

impl<'a> Tracer<'a> {
    /// A tracer over the served store.
    pub fn new(store: &'a Store, twins: &'a Twins) -> Tracer<'a> {
        Tracer {
            epoch: Instant::now(),
            store,
            twins,
            writer_active: AtomicBool::new(false),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        ns_between(self.epoch, at)
    }

    fn begin(
        &self,
        data: &mut TraceData,
        kind: &'static str,
        wire: Option<(Instant, Instant)>,
    ) -> (u64, Option<usize>, u64) {
        let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
        let (span, cursor) = match wire {
            Some((t0, t1)) => {
                let span = data.log.push(Span {
                    name: "wire",
                    request: id,
                    parent: None,
                    start: self.ns(t0),
                    end: self.ns(t1),
                });
                (Some(span), self.ns(t0))
            }
            None => (None, self.ns(Instant::now())),
        };
        data.requests.push(RequestMeta {
            id,
            kind,
            wire: span,
            reply_bytes: None,
        });
        (id, span, cursor)
    }

    /// Replays an `EXEC`/`QUERY` result through the codec and checks that
    /// the served store's answer equals the wire answer.
    #[allow(clippy::too_many_arguments)]
    fn codec(
        &self,
        data: &mut TraceData,
        id: u64,
        parent: Option<usize>,
        cursor: &mut u64,
        served: &WireResult,
        wire: &WireResult,
    ) -> Result<(), String> {
        data.hits += wire.stats.cache_hits;
        data.misses += wire.stats.cache_misses;
        let mut bytes = Vec::new();
        let ((), encode_ns) = timed(|| write_result(&mut bytes, served).expect("encode"));
        place(data, "protocol.encode", id, parent, cursor, encode_ns);
        let header_len = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
        let header = std::str::from_utf8(&bytes[..header_len - 1]).expect("utf8 header");
        let (decoded, decode_ns) = timed(|| read_result(header, &mut &bytes[header_len..]));
        place(data, "protocol.decode", id, parent, cursor, decode_ns);
        data.requests.last_mut().expect("begun").reply_bytes = Some(bytes.len());
        let decoded = decoded.map_err(|e| format!("replayed decode: {e}"))?;
        if !crate::stats::same_entries(&decoded.entries, &served.entries)
            || !crate::stats::same_entries(&served.entries, &wire.entries)
        {
            return Err("replayed store answer differs from the wire answer".into());
        }
        Ok(())
    }

    /// Replays an `EXEC` of `qid` on `instance`.
    pub fn replay_exec(
        &self,
        data: &mut TraceData,
        kind: &'static str,
        instance: &str,
        qid: usize,
        wire: (Instant, Instant),
        reply: &WireResult,
    ) -> Result<(), String> {
        let (id, parent, mut cursor) = self.begin(data, kind, Some(wire));
        let line = format!("EXEC {instance} {qid}");
        let (_, parse_ns) = timed(|| std::hint::black_box(Request::parse(&line)));
        place(data, "protocol.parse", id, parent, &mut cursor, parse_ns);
        let name = if self.writer_active.load(Ordering::Relaxed) {
            "store.exec_contended"
        } else {
            "store.exec"
        };
        let (served, exec_ns) = served(&line, || self.store.exec(instance, &[qid]));
        place(data, name, id, parent, &mut cursor, exec_ns);
        let served = served.map_err(|e| format!("replayed exec: {e}"))?;
        self.codec(data, id, parent, &mut cursor, &served[0], reply)
    }

    /// Replays a `QUERY`: the served `Store::query`, and inside it the
    /// parser, the planner and a cold executor on `local` (skipped when
    /// `local` is `None`).
    #[allow(clippy::too_many_arguments)]
    pub fn replay_query(
        &self,
        data: &mut TraceData,
        kind: &'static str,
        instance: &str,
        text: &str,
        local: Option<&dyn Local>,
        wire: Option<(Instant, Instant)>,
        reply: Option<&WireResult>,
    ) -> Result<(), String> {
        let (id, parent, mut cursor) = self.begin(data, kind, wire);
        let line = format!("QUERY {instance} {text}");
        if wire.is_some() {
            let (_, parse_ns) = timed(|| std::hint::black_box(Request::parse(&line)));
            place(data, "protocol.parse", id, parent, &mut cursor, parse_ns);
        }
        let (served, query_ns) = served(&line, || self.store.query(instance, text));
        let query_start = cursor;
        let query_span = place(data, "store.query", id, parent, &mut cursor, query_ns);
        let served = served.map_err(|e| format!("replayed query: {e}"))?;
        if let Some(local) = local {
            let replay = local.replay_query(text);
            let mut inner = query_start;
            let q = Some(query_span);
            place(data, "parser.parse", id, q, &mut inner, replay.parse_ns);
            place(data, "planner.plan", id, q, &mut inner, replay.plan_ns);
            place(data, "exec.run", id, q, &mut inner, replay.run_ns);
            data.queries.push((kind, replay));
        }
        match reply {
            Some(reply) => self.codec(data, id, parent, &mut cursor, &served, reply),
            None => Ok(()),
        }
    }

    /// Replays a single-edge `UPDATE` on both twins: the durable update
    /// stands for the served one; inside it sit the non-durable update and
    /// a bare `Wal::append` of the same record.
    pub fn replay_update(
        &self,
        data: &mut TraceData,
        entry: (usize, usize, f64),
        wire: Option<(Instant, Instant)>,
    ) -> Result<(), String> {
        let (id, parent, mut cursor) = self.begin(data, "update", wire);
        let line = format!("UPDATE g G {} {} {}", entry.0, entry.1, entry.2);
        if wire.is_some() {
            let (_, parse_ns) = timed(|| std::hint::black_box(Request::parse(&line)));
            place(data, "protocol.parse", id, parent, &mut cursor, parse_ns);
        }
        let twins = self.twins;
        let (durable, durable_ns) = served(&line, || twins.on.update("g", "G", &[entry]));
        let durable_start = cursor;
        let durable_span = place(
            data,
            "persist.update_durable",
            id,
            parent,
            &mut cursor,
            durable_ns,
        );
        durable.map_err(|e| format!("durable twin update: {e}"))?;
        let (plain, plain_ns) = timed(|| twins.off.update("g", "G", &[entry]));
        let plain = plain.map_err(|e| format!("twin update: {e}"))?;
        let mut wal = twins.wal.lock().expect("probe WAL lock");
        let record = WalRecord {
            seq: wal.last_seq + 1,
            var: "G".into(),
            entries: vec![(entry.0 as u64, entry.1 as u64, entry.2)],
        };
        let (appended, wal_ns) = timed(|| wal.append(&record));
        appended.map_err(|e| format!("WAL append: {e}"))?;
        drop(wal);
        let mut inner = durable_start;
        let d = Some(durable_span);
        place(data, "store.update", id, d, &mut inner, plain_ns);
        place(data, "persist.wal_append", id, d, &mut inner, wal_ns);
        data.updates.push(match plain.delta {
            DeltaDisposition::Applied { patched } => (true, patched),
            DeltaDisposition::Fallback { .. } => (false, 0),
        });
        Ok(())
    }
}

/// Records a child span of `duration` at `cursor` and advances the cursor.
fn place(
    data: &mut TraceData,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    cursor: &mut u64,
    duration: u64,
) -> usize {
    let start = *cursor;
    *cursor += duration;
    data.log.push(Span {
        name,
        request,
        parent,
        start,
        end: *cursor,
    })
}

/// One of the paper's algorithms as served: its class, instance and text.
pub struct Algorithm<'a> {
    /// Request class (`query_inverse`, …).
    pub kind: &'static str,
    /// Instance name.
    pub instance: &'static str,
    /// Query text.
    pub text: String,
    /// Local twin of the instance, for the parser/planner/executor replay.
    pub local: &'a dyn Local,
}

/// Inputs of the probes that stand in for layers a workload's own
/// requests do not reach.
pub struct ProbeInputs<'a> {
    /// The workload's graph(s), for the sparse-kernel probe.
    pub graphs: Vec<matlang_matrix::SparseMatrix<matlang_semiring::Boolean>>,
    /// A 32×32 dense real matrix, for the dense-kernel probe.
    pub dense: matlang_matrix::Matrix<matlang_semiring::Real>,
    /// A store holding the paper's instances, with its algorithms.
    pub paper: (&'a Store, &'a [Algorithm<'a>]),
    /// Load connections of the workload, for the ping probe.
    pub connections: usize,
    /// The served address.
    pub addr: std::net::SocketAddr,
}

/// Measures every layer the traced window left without samples, plus the
/// free-standing probes every workload gets (ping, trace cycle, kernels).
pub fn run_probes(tracer: &Tracer, data: &mut TraceData, inputs: &ProbeInputs) {
    let twins = tracer.twins;
    // transport: ping round trips on the workload's own connection count.
    let deadline = Instant::now() + Duration::from_millis(500);
    let pings: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..inputs.connections)
            .map(|_| {
                s.spawn(|| {
                    let mut client =
                        matlang_server::Client::connect(inputs.addr).expect("ping connect");
                    let mut rtts = Vec::new();
                    while Instant::now() < deadline {
                        let ((), ns) = timed(|| client.ping().expect("ping"));
                        rtts.push(ns as f64);
                    }
                    client.quit().expect("ping quit");
                    rtts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping thread"))
            .collect()
    });
    data.pings = pings.into_iter().flatten().collect();

    // obs: one trace begin plus the guard's drop, timed in batches.
    let mut cycle = Vec::new();
    for _ in 0..50 {
        let ((), ns) = timed(|| {
            for _ in 0..1000 {
                let guard = matlang_obs::trace::begin(matlang_obs::trace::next_id(), "probe");
                drop(std::hint::black_box(guard));
            }
        });
        cycle.push(ns as f64 / 1000.0);
    }
    data.probes.insert("obs.trace_cycle_ns", cycle);

    // matrix: the sparse product on the workload's graphs, the 32×32 dense
    // product.
    let mut spmm = Vec::new();
    for graph in &inputs.graphs {
        let (reps, ns) = timed(|| {
            let mut reps = 0;
            let t = Instant::now();
            while reps < 3 || t.elapsed() < Duration::from_millis(100) {
                std::hint::black_box(graph.matmul(graph).expect("spmm"));
                reps += 1;
            }
            reps
        });
        spmm.push(ns as f64 / reps as f64);
    }
    data.probes
        .insert("matrix.spmm_us", vec![spmm.iter().sum::<f64>() / 1e3]);
    let mut dense = Vec::new();
    for _ in 0..200 {
        let (_, ns) = timed(|| std::hint::black_box(inputs.dense.matmul(&inputs.dense)));
        dense.push(ns as f64);
    }
    data.probes.insert("matrix.dense_matmul_us", dense);

    // store: warm exec on the quiet twin when the workload has no EXEC.
    if data.count("store.exec") == 0 {
        for _ in 0..500 {
            let (r, ns) = timed(|| twins.off.exec("g", &[twins.qid]));
            r.expect("twin exec");
            data.probes.entry("store.exec").or_default().push(ns as f64);
        }
    }
    // store: exec while a second thread updates the same instance.
    if data.count("store.exec_contended") == 0 {
        let stop = AtomicBool::new(false);
        let samples = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    twins
                        .off
                        .update("g", "G", &[twins.next_edge()])
                        .expect("contending update");
                }
            });
            let mut samples = Vec::new();
            for _ in 0..500 {
                let (r, ns) = timed(|| twins.off.exec("g", &[twins.qid]));
                r.expect("contended exec");
                samples.push(ns as f64);
            }
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("contending writer");
            samples
        });
        data.probes.insert("store.exec_contended", samples);
    }
    // store / persist / delta: updates on the twins.
    if data.count("store.update") == 0 {
        for _ in 0..200 {
            tracer
                .replay_update(data, twins.next_edge(), None)
                .expect("probe update");
        }
    }
    // store / parser / planner / exec: one round of the paper's algorithms
    // on an in-process store.
    if data.queries.is_empty() {
        let (store, algorithms) = inputs.paper;
        let probe = Tracer::new(store, twins);
        for _ in 0..2 {
            for a in algorithms {
                probe
                    .replay_query(data, a.kind, a.instance, &a.text, Some(a.local), None, None)
                    .expect("probe query");
            }
        }
    }
}

/// Recovery of the durable twin's fixed input, when the workload has no
/// recovery of its own: `Store::open` on its data directory.
pub fn probe_recovery(dir: &Path, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let (store, ns) = timed(|| Store::open(dir));
            assert!(
                store.walstat("g").is_ok(),
                "recovered store holds the instance"
            );
            ns as f64 / 1e6
        })
        .collect()
}

/// The per-layer metrics, by name, with their units.
pub fn layer_metrics(
    data: &TraceData,
    algorithms: &[&'static str],
    recover_ms: &[f64],
    wal_bytes_per_update: f64,
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let log = &data.log;
    let med = |name: &str, scale: f64| -> f64 {
        let mut values = log.durations(name);
        if let Some(probe) = data.probes.get(name) {
            values.extend(probe);
        }
        median(&values) / scale
    };
    let self_time = |large: bool| -> f64 {
        let values: Vec<f64> = data
            .requests
            .iter()
            .filter_map(|r| match (r.wire, r.reply_bytes) {
                (Some(w), Some(bytes)) if (bytes > LARGE_REPLY) == large => {
                    Some(log.self_time(w) as f64)
                }
                _ => None,
            })
            .collect();
        median(&values) / 1e3
    };
    // Per-algorithm medians of a span, combined by geometric mean so each
    // algorithm weighs the same.
    let kind_of: BTreeMap<u64, &'static str> =
        data.requests.iter().map(|r| (r.id, r.kind)).collect();
    let per_algorithm = |name: &str| -> f64 {
        let medians: Vec<f64> = algorithms
            .iter()
            .map(|&kind| {
                let values: Vec<f64> = log
                    .spans()
                    .iter()
                    .filter(|s| s.name == name && kind_of.get(&s.request) == Some(&kind))
                    .map(|s| s.duration() as f64)
                    .collect();
                median(&values)
            })
            .collect();
        geomean(&medians) / 1e6
    };
    let reply_bytes: Vec<f64> = data
        .requests
        .iter()
        .filter_map(|r| r.reply_bytes.map(|b| b as f64))
        .collect();
    let applied = data.updates.iter().filter(|u| u.0).count();
    let patched: u64 = data.updates.iter().map(|u| u.1).sum();
    let query_mean = |f: fn(&QueryReplay) -> f64| -> f64 {
        let relevant: Vec<f64> = data
            .queries
            .iter()
            .filter(|(kind, _)| algorithms.contains(kind))
            .map(|(_, q)| f(q))
            .collect();
        relevant.iter().sum::<f64>() / relevant.len() as f64
    };
    let mut m = BTreeMap::new();
    m.insert("transport.ping_rtt_us", (median(&data.pings) / 1e3, "us"));
    m.insert("transport.self_small_reply_us", (self_time(false), "us"));
    m.insert("transport.self_large_reply_us", (self_time(true), "us"));
    m.insert(
        "protocol.request_parse_ns",
        (med("protocol.parse", 1.0), "ns"),
    );
    m.insert("protocol.encode_us", (med("protocol.encode", 1e3), "us"));
    m.insert("protocol.decode_us", (med("protocol.decode", 1e3), "us"));
    m.insert("protocol.reply_bytes", (median(&reply_bytes), "bytes"));
    m.insert("store.exec_us", (med("store.exec", 1e3), "us"));
    m.insert(
        "store.exec_contended_us",
        (med("store.exec_contended", 1e3), "us"),
    );
    m.insert("store.update_us", (med("store.update", 1e3), "us"));
    m.insert("store.query_ms", (per_algorithm("store.query"), "ms"));
    m.insert(
        "obs.trace_cycle_ns",
        (median(&data.probes["obs.trace_cycle_ns"]), "ns"),
    );
    m.insert(
        "persist.update_durable_us",
        (med("persist.update_durable", 1e3), "us"),
    );
    m.insert(
        "persist.wal_append_us",
        (med("persist.wal_append", 1e3), "us"),
    );
    m.insert("persist.compactions", (data.compactions as f64, "count"));
    m.insert(
        "persist.wal_bytes_per_update",
        (wal_bytes_per_update, "bytes"),
    );
    m.insert("persist.recover_ms", (median(recover_ms), "ms"));
    m.insert(
        "delta.applied_ratio",
        (applied as f64 / data.updates.len() as f64, "ratio"),
    );
    m.insert(
        "delta.patched_nodes",
        (patched as f64 / data.updates.len() as f64, "count"),
    );
    m.insert(
        "exec.cache_hit_ratio",
        (
            data.hits as f64 / (data.hits + data.misses).max(1) as f64,
            "ratio",
        ),
    );
    m.insert("exec.run_ms", (per_algorithm("exec.run"), "ms"));
    m.insert(
        "exec.parallel_products",
        (query_mean(|q| q.parallel_products as f64), "count"),
    );
    m.insert("planner.plan_ms", (per_algorithm("planner.plan"), "ms"));
    m.insert(
        "planner.plan_nodes",
        (query_mean(|q| q.plan_nodes as f64), "count"),
    );
    m.insert("parser.parse_ms", (per_algorithm("parser.parse"), "ms"));
    m.insert("matrix.spmm_us", (data.probes["matrix.spmm_us"][0], "us"));
    m.insert(
        "matrix.dense_matmul_us",
        (med("matrix.dense_matmul_us", 1e3), "us"),
    );
    m
}
