//! Seeded inputs, the in-process twins of the served instances, and the
//! `matlang_core::evaluate` oracle.
//!
//! The server only ever receives generated inputs (a `GEN` seed or
//! explicit `LOAD` entries); the same inputs are rebuilt here so every
//! reply can be compared with the tree evaluator on identical data.

use matlang_core::{evaluate, FunctionRegistry, Instance};
use matlang_engine::{Engine, Executor};
use matlang_matrix::{sparse_erdos_renyi, Matrix, MatrixRepr, MatrixStorage, SparseMatrix};
use matlang_semiring::{Boolean, Nat, Real, Semiring};
use std::time::Instant;

/// SplitMix64: a tiny seeded generator for benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one benchmark seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Input streams derived from the benchmark seed.
pub mod stream {
    /// `GEN` seeds.
    pub const GEN: u64 = 1;
    /// Dense matrix entries.
    pub const MATRIX: u64 = 2;
    /// The small Floyd–Warshall graph.
    pub const FW_GRAPH: u64 = 3;
    /// The timed update stream.
    pub const UPDATES: u64 = 4;
    /// The fixed update batch written before recovery.
    pub const RECOVERY: u64 = 5;
}

/// Entries `(row, col, value)` in row-major order, as on the wire.
pub type Entries = Vec<(usize, usize, f64)>;

/// The entries of a `GEN … er` graph, exactly as the server generates it.
pub fn erdos_renyi(n: usize, avg_degree: f64, seed: u64) -> Entries {
    let graph: SparseMatrix<Real> = sparse_erdos_renyi(n, avg_degree, seed);
    graph.iter_entries().map(|(i, j, v)| (i, j, v.0)).collect()
}

/// A diagonally dominant `n × n` real matrix (LU needs no pivoting and the
/// inverse exists).  Values are multiples of 1/64, so they print short.
pub fn dominant_matrix(n: usize, rng: &mut Rng) -> Entries {
    let mut entries = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                n as f64 + (rng.below(64) + 1) as f64 / 64.0
            } else {
                (rng.below(129) as f64 - 64.0) / 64.0
            };
            if v != 0.0 {
                entries.push((i, j, v));
            }
        }
    }
    entries
}

/// A directed 0/1 graph on `n` nodes with exactly `edges` distinct
/// non-loop edges, sorted row-major.
pub fn random_graph(n: usize, edges: usize, rng: &mut Rng) -> Entries {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < edges {
        let (i, j) = (rng.below(n), rng.below(n));
        if i != j {
            set.insert((i, j));
        }
    }
    set.into_iter().map(|(i, j)| (i, j, 1.0)).collect()
}

/// One single-edge insert of an update stream.
pub fn edge(rng: &mut Rng, n: usize) -> (usize, usize, f64) {
    loop {
        let (i, j) = (rng.below(n), rng.below(n));
        if i != j {
            return (i, j, 1.0);
        }
    }
}

/// Timings of one in-process replay of a `QUERY` through the parser,
/// the planner and a cold executor.
#[derive(Clone, Copy, Debug)]
pub struct QueryReplay {
    /// `matlang_parser::parse`, ns.
    pub parse_ns: u64,
    /// `Engine::plan`, ns.
    pub plan_ns: u64,
    /// Plan DAG nodes.
    pub plan_nodes: usize,
    /// Cold `Executor::run`, ns.
    pub run_ns: u64,
    /// Products dispatched to the threaded kernels.
    pub parallel_products: u64,
}

/// An in-process instance holding the same data as a served one.
pub trait Local: Send + Sync {
    /// The oracle: `matlang_core::evaluate` of `text`, as wire entries.
    fn evaluate(&self, text: &str) -> Entries;
    /// Replays a query through the parser, the planner and a cold
    /// executor, timing each.
    fn replay_query(&self, text: &str) -> QueryReplay;
}

/// A local instance over semiring `K` with storage `M`.
pub struct LocalInstance<K: Semiring, M: MatrixStorage<Elem = K>> {
    instance: Instance<K, M>,
    registry: FunctionRegistry<K>,
    engine: Engine,
}

impl<K: Semiring, M: MatrixStorage<Elem = K>> LocalInstance<K, M> {
    /// One `n × n` matrix `var` over dimension `n`, converted from wire
    /// entries exactly as the server converts `LOAD` and `GEN` data.
    pub fn square(
        var: &str,
        n: usize,
        entries: &[(usize, usize, f64)],
        registry: FunctionRegistry<K>,
    ) -> Self {
        let triplets = entries
            .iter()
            .map(|&(i, j, v)| (i, j, K::from_f64(v)))
            .collect();
        let matrix = SparseMatrix::from_triplets(n, n, triplets).expect("entries in bounds");
        LocalInstance {
            instance: Instance::new()
                .with_dim("n", n)
                .with_matrix(var, M::from_sparse(matrix)),
            registry,
            engine: Engine::new(),
        }
    }
}

impl<K: Semiring, M: MatrixStorage<Elem = K> + Send + Sync> Local for LocalInstance<K, M> {
    fn evaluate(&self, text: &str) -> Entries {
        let expr = matlang_parser::parse(text).expect("benchmark query parses");
        let value = evaluate(&expr, &self.instance, &self.registry).expect("oracle evaluates");
        value
            .nonzero_entries()
            .into_iter()
            .map(|(i, j, v)| (i, j, v.to_f64()))
            .collect()
    }

    fn replay_query(&self, text: &str) -> QueryReplay {
        let t = Instant::now();
        let expr = matlang_parser::parse(text).expect("benchmark query parses");
        let parse_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let plan = self
            .engine
            .plan(std::slice::from_ref(&expr), &self.instance);
        let plan_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let mut exec = Executor::new(
            &plan,
            &self.instance,
            &self.registry,
            self.engine.exec_options,
        );
        let value = exec.run(plan.roots()[0]).expect("replay evaluates");
        let run_ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(value);
        QueryReplay {
            parse_ns,
            plan_ns,
            plan_nodes: plan.nodes().len(),
            run_ns,
            parallel_products: exec.stats().parallel_products,
        }
    }
}

/// An adaptive ℕ instance (the standing-reads graph).
pub fn nat_adaptive(n: usize, entries: &[(usize, usize, f64)]) -> Box<dyn Local> {
    Box::new(LocalInstance::<Nat, MatrixRepr<Nat>>::square(
        "G",
        n,
        entries,
        FunctionRegistry::new(),
    ))
}

/// An adaptive 𝔹 instance (the mutating graph, the iterated closure).
pub fn bool_adaptive(n: usize, entries: &[(usize, usize, f64)]) -> Box<dyn Local> {
    Box::new(LocalInstance::<Boolean, MatrixRepr<Boolean>>::square(
        "G",
        n,
        entries,
        FunctionRegistry::new(),
    ))
}

/// A dense 𝔹 instance (the Floyd–Warshall graph).
pub fn bool_dense(n: usize, entries: &[(usize, usize, f64)]) -> Box<dyn Local> {
    Box::new(LocalInstance::<Boolean, Matrix<Boolean>>::square(
        "G",
        n,
        entries,
        FunctionRegistry::new(),
    ))
}

/// A dense ℝ instance with the standard pointwise functions (the LU and
/// inverse input).
pub fn real_dense(n: usize, entries: &[(usize, usize, f64)]) -> Box<dyn Local> {
    Box::new(LocalInstance::<Real, Matrix<Real>>::square(
        "A",
        n,
        entries,
        FunctionRegistry::standard_field(),
    ))
}

/// `baseline::transitive_closure` of a 0/1 graph, as wire entries.
pub fn baseline_closure(n: usize, entries: &[(usize, usize, f64)]) -> Entries {
    let mut adjacency: Matrix<Boolean> = Matrix::zeros(n, n);
    for &(i, j, _) in entries {
        adjacency.set(i, j, Boolean(true)).expect("in bounds");
    }
    matlang_algorithms::baseline::transitive_closure(&adjacency, false)
        .nonzero_entries()
        .into_iter()
        .map(|(i, j, v)| (i, j, v.to_f64()))
        .collect()
}

/// A sparse 𝔹 copy of a graph, for the kernel probe.
pub fn bool_sparse(n: usize, entries: &[(usize, usize, f64)]) -> SparseMatrix<Boolean> {
    SparseMatrix::from_triplets(
        n,
        n,
        entries
            .iter()
            .map(|&(i, j, _)| (i, j, Boolean(true)))
            .collect(),
    )
    .expect("entries in bounds")
}

/// A dense ℝ matrix from wire entries, for the kernel probe.
pub fn real_matrix(n: usize, entries: &[(usize, usize, f64)]) -> Matrix<Real> {
    let mut m = Matrix::zeros(n, n);
    for &(i, j, v) in entries {
        m.set(i, j, Real(v)).expect("in bounds");
    }
    m
}
