//! Copies of a rank share its structure.
//!
//! Each rank's matrix, ghost layer and topology live in one immutable
//! `LocalShape` behind an `Arc`, and its local-solver setup (multicolor
//! order, Cholesky factor) behind another. So a copy of a built rank —
//! what a fused panel makes once per column, and what its cached run
//! keeps — allocates exactly its per-solve buffers, and every panel
//! column points at its session rank's shape.
//!
//! A counting global allocator measures the clones. Its counters are
//! per thread, so tests running in parallel do not see each other's
//! allocations.

use distributed_southwell::core::dist::{
    DistOptions, DsConfig, LocalSolver, LocalSystem, Method, SolveSession, TenantSession, WarmStart,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::sparse::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result with the allocations and bytes it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

const METHODS: [Method; 3] = [
    Method::BlockJacobi,
    Method::ParallelSouthwell,
    Method::DistributedSouthwell,
];

const SOLVERS: [LocalSolver; 3] = [
    LocalSolver::GaussSeidel,
    LocalSolver::MulticolorGaussSeidel,
    LocalSolver::Exact,
];

/// 12×12 Poisson over 9 ranks in 4×4-point blocks, so interior ranks
/// have four neighbors and every rank has ghosts.
fn session(method: Method, solver: LocalSolver) -> TenantSession {
    let a = gen::grid2d_poisson(12, 12);
    let n = a.nrows();
    let part = Partition::new(9, (0..n).map(|i| (i / 12 / 4) * 3 + (i % 12) / 4).collect());
    let b = gen::random_rhs(n, 3);
    let x0 = vec![0.0; n];
    let opts = DistOptions {
        ds_config: DsConfig {
            local_solver: solver,
            ..DsConfig::default()
        },
        ..DistOptions::default()
    };
    TenantSession::build(method, a, &b, &x0, &part, &opts)
}

/// Clones every rank of `s` and checks each clone made `per_solve(ls)`
/// allocations of `(count, bytes)` and shares the original's shape.
fn check_clones<R: WarmStart + Clone>(
    s: &SolveSession<R>,
    what: &str,
    per_solve: impl Fn(&LocalSystem) -> (u64, u64),
) {
    for r in s.ranks() {
        let (copy, allocs, bytes) = counted(|| r.clone());
        let ls = r.local();
        let (want_allocs, want_bytes) = per_solve(ls);
        assert_eq!(
            (allocs, bytes),
            (want_allocs, want_bytes),
            "{what}: cloning rank {} allocated beyond its per-solve buffers",
            ls.rank
        );
        assert!(Arc::ptr_eq(&copy.local().shape, &ls.shape), "{what}");
    }
}

#[test]
fn cloning_a_rank_allocates_only_its_per_solve_buffers() {
    const F64: u64 = 8;
    for method in METHODS {
        for solver in SOLVERS {
            let what = format!("{method:?} / {solver:?}");
            // m owned rows, g ghost slots, nb neighbors.
            let dims = |ls: &LocalSystem| {
                let m = ls.nrows() as u64;
                (m, ls.ext_cols.len() as u64, ls.nneighbors() as u64)
            };
            match session(method, solver) {
                // b, x, r and ghost_dr.
                TenantSession::Bj(s) => check_clones(&s, &what, |ls| {
                    let (m, g, _) = dims(ls);
                    (4, F64 * (3 * m + g))
                }),
                // b, x, r, Γ and ghost_dr.
                TenantSession::Ps(s) => check_clones(&s, &what, |ls| {
                    let (m, g, nb) = dims(ls);
                    (5, F64 * (3 * m + nb + g))
                }),
                // b, x, r, Γ, Γ̃, z, the sent flags, ghost_dr and the
                // pending deltas; no link state with recovery off.
                TenantSession::Ds(s) => check_clones(&s, &what, |ls| {
                    let (m, g, nb) = dims(ls);
                    (9, F64 * (3 * m + 2 * nb + 3 * g) + nb)
                }),
            }
        }
    }
}

/// Every column of the session's panel shares its session rank's shape,
/// and nothing else holds it: `k` columns plus the session rank.
fn check_panel_shares<R: WarmStart + Clone>(s: &SolveSession<R>, k: usize, at: &str) {
    let panel = s.panel_ranks().expect("a panel run");
    for (base, pr) in s.ranks().iter().zip(panel) {
        let shape = &base.local().shape;
        for c in 0..k {
            assert!(
                Arc::ptr_eq(&pr.col(c).local().shape, shape),
                "{at}: rank {} column {c} holds its own copy of the shape",
                shape.rank
            );
        }
        assert_eq!(Arc::strong_count(shape), k + 1, "{at}: rank {}", shape.rank);
    }
}

fn panel_lifecycle<R: WarmStart + Clone>(s: &mut SolveSession<R>, n: usize) {
    let k = 3;
    let batch = |seed: u64| -> Vec<Vec<f64>> {
        (0..k as u64)
            .map(|c| gen::random_rhs(n, seed + c))
            .collect()
    };
    assert!(s.panel_ranks().is_none());
    s.begin(&batch(10));
    check_panel_shares(s, k, "fresh panel");
    while !s.step(8) {}
    s.finish();
    check_panel_shares(s, k, "after adoption");
    s.begin(&batch(20));
    check_panel_shares(s, k, "cached reseed");
    while !s.step(8) {}
    s.finish();
    check_panel_shares(s, k, "after the second adoption");
}

#[test]
fn panel_columns_share_their_session_ranks_shape() {
    let n = 144;
    for method in METHODS {
        match session(method, LocalSolver::GaussSeidel) {
            TenantSession::Bj(mut s) => panel_lifecycle(&mut s, n),
            TenantSession::Ps(mut s) => panel_lifecycle(&mut s, n),
            TenantSession::Ds(mut s) => panel_lifecycle(&mut s, n),
        }
    }
}
