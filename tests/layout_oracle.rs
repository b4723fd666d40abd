//! Oracle for `distribute`: every field of every `LocalSystem` is checked
//! against a definition computed here, straight from the global matrix and
//! the partition's assignment, with no code shared with the layout.
//!
//! Inputs cover 2-D and 3-D Poisson, a 2-D clique assembly and a tiny
//! Flan_1565 stand-in, each split by strip, multilevel and seeded
//! random-assignment partitions (all parts non-empty). The error paths
//! pin the variant and message of an empty part and of a zero, missing
//! or non-finite diagonal, including which one wins when both occur.

use dsw_core::dist::{distribute, LocalSystem};
use dsw_partition::{partition_multilevel, partition_strip, Graph, MultilevelOptions, Partition};
use dsw_sparse::gen::{self, CliqueOptions};
use dsw_sparse::{suite, CooBuilder, CsrMatrix, SparseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    let flan = suite::by_name("Flan_1565")
        .expect("Flan_1565 is in the suite")
        .build_small(0.1);
    vec![
        ("poisson2d", gen::grid2d_poisson(13, 9)),
        ("poisson3d", gen::grid3d_poisson(6, 5, 4)),
        (
            "clique2d",
            gen::clique_grid2d(9, 8, CliqueOptions::default()),
        ),
        ("flan", flan),
    ]
}

/// Every row assigned uniformly at random, then one row per part pinned
/// so no part is empty.
fn random_partition(n: usize, nparts: usize, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment: Vec<usize> = (0..n).map(|_| rng.gen_range(0..nparts)).collect();
    for q in 0..nparts {
        assignment[q * n / nparts] = q;
    }
    Partition::new(nparts, assignment)
}

fn partitions(a: &CsrMatrix) -> Vec<(String, Partition)> {
    let n = a.nrows();
    let g = Graph::from_matrix(a);
    let mut out = Vec::new();
    for p in [1, 3, 7] {
        out.push((format!("strip{p}"), partition_strip(n, p)));
    }
    for p in [4, 9] {
        out.push((
            format!("multilevel{p}"),
            partition_multilevel(&g, p, MultilevelOptions::default()),
        ));
    }
    for (p, seed) in [(5, 11), (16, 12)] {
        out.push((format!("random{p}"), random_partition(n, p, seed)));
    }
    for (name, part) in &out {
        assert!(part.all_parts_nonempty(), "{name} has an empty part");
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks one rank's piece against the definitions.
fn check_local(
    ctx: &str,
    ls: &LocalSystem,
    p: usize,
    a: &CsrMatrix,
    owner: &[usize],
    (b, x0, r): (&[f64], &[f64], &[f64]),
) {
    let rows: Vec<usize> = (0..a.nrows()).filter(|&g| owner[g] == p).collect();
    let m = rows.len();
    assert_eq!(ls.rank, p, "{ctx}: rank");
    assert_eq!(ls.rows, rows, "{ctx}: rows");
    assert_eq!(ls.nrows(), m, "{ctx}: nrows");

    // Interior block: the principal submatrix on the owned rows.
    assert_eq!(ls.a_int, a.principal_submatrix(&rows), "{ctx}: a_int");

    // Ghost columns: every off-part column of an owned row, sorted, unique.
    let ext: BTreeSet<usize> = rows
        .iter()
        .flat_map(|&g| a.row_cols(g).iter().copied())
        .filter(|&c| owner[c] != p)
        .collect();
    let ext: Vec<usize> = ext.into_iter().collect();
    assert!(
        ls.ext_cols.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: ext_cols sorted unique"
    );
    assert_eq!(ls.ext_cols, ext, "{ctx}: ext_cols");

    // External entries, row by row, in CSR order.
    assert_eq!(ls.a_ext_ptr.len(), m + 1, "{ctx}: a_ext_ptr length");
    assert_eq!(ls.a_ext_ptr[0], 0, "{ctx}: a_ext_ptr start");
    assert_eq!(ls.a_ext_ptr[m], ls.a_ext_idx.len(), "{ctx}: a_ext_ptr end");
    assert_eq!(
        ls.a_ext_idx.len(),
        ls.a_ext_val.len(),
        "{ctx}: a_ext lengths"
    );
    for (li, &g) in rows.iter().enumerate() {
        let want: Vec<(usize, u64)> = a
            .row(g)
            .filter(|&(c, _)| owner[c] != p)
            .map(|(c, v)| (c, v.to_bits()))
            .collect();
        let got: Vec<(usize, u64)> = (ls.a_ext_ptr[li]..ls.a_ext_ptr[li + 1])
            .map(|k| {
                (
                    ls.ext_cols[ls.a_ext_idx[k] as usize],
                    ls.a_ext_val[k].to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "{ctx}: external entries of row {g}");
    }

    // Neighbours: the owners of the ghost columns, sorted, unique.
    let nbrs: BTreeSet<usize> = ext.iter().map(|&c| owner[c]).collect();
    let nbrs: Vec<usize> = nbrs.into_iter().collect();
    assert_eq!(ls.neighbors, nbrs, "{ctx}: neighbors");
    assert_eq!(ls.nneighbors(), nbrs.len(), "{ctx}: nneighbors");

    // Per neighbour: its ghost slots, and the owned rows adjacent to it,
    // both in increasing global order.
    assert_eq!(ls.ghosts_of.len(), nbrs.len(), "{ctx}: ghosts_of slots");
    assert_eq!(
        ls.boundary_rows_to.len(),
        nbrs.len(),
        "{ctx}: boundary slots"
    );
    for (s, &q) in nbrs.iter().enumerate() {
        assert_eq!(ls.neighbor_slot(q), s, "{ctx}: neighbor_slot({q})");
        let ghosts: Vec<u32> = (0..ext.len())
            .filter(|&k| owner[ext[k]] == q)
            .map(|k| k as u32)
            .collect();
        assert_eq!(&ls.ghosts_of[s], &ghosts[..], "{ctx}: ghosts_of[{s}]");
        let boundary: Vec<u32> = (0..m)
            .filter(|&li| a.row_cols(rows[li]).iter().any(|&c| owner[c] == q))
            .map(|li| li as u32)
            .collect();
        assert_eq!(
            &ls.boundary_rows_to[s],
            &boundary[..],
            "{ctx}: boundary_rows_to[{s}]"
        );
    }

    // Reciprocal diagonal, bit for bit.
    let inv: Vec<f64> = rows.iter().map(|&g| 1.0 / a.get(g, g)).collect();
    assert_eq!(bits(&ls.inv_diag), bits(&inv), "{ctx}: inv_diag");

    // Vector pieces.
    let piece = |v: &[f64]| -> Vec<u64> { rows.iter().map(|&g| v[g].to_bits()).collect() };
    assert_eq!(bits(&ls.b), piece(b), "{ctx}: b");
    assert_eq!(bits(&ls.x), piece(x0), "{ctx}: x");
    assert_eq!(bits(&ls.r), piece(r), "{ctx}: r");
}

#[test]
fn every_local_system_matches_its_definition() {
    for (mname, a) in matrices() {
        let n = a.nrows();
        let b = gen::random_rhs(n, 3);
        let x0 = gen::random_guess(n, 4);
        let r = a.residual(&b, &x0);
        for (pname, part) in partitions(&a) {
            let locals = distribute(&a, &b, &x0, &part).expect("a valid distribution");
            assert_eq!(locals.len(), part.nparts(), "{mname}/{pname}: part count");
            for (p, ls) in locals.iter().enumerate() {
                let ctx = format!("{mname}/{pname}/rank {p}");
                check_local(&ctx, ls, p, &a, part.assignment(), (&b, &x0, &r));
            }
        }
    }
}

/// A 4×4 grid Poisson matrix whose diagonal entries at `rows` are replaced
/// by `diag` (`None` drops the entry from the pattern).
fn with_diagonal(rows: &[usize], diag: Option<f64>) -> CsrMatrix {
    let a = gen::grid2d_poisson(4, 4);
    let mut bld = CooBuilder::new(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        for (j, v) in a.row(i) {
            if i == j && rows.contains(&i) {
                if let Some(d) = diag {
                    bld.push(i, j, d);
                }
            } else {
                bld.push(i, j, v);
            }
        }
    }
    bld.build().expect("a valid matrix")
}

fn distribute_err(a: &CsrMatrix, part: &Partition) -> SparseError {
    let n = a.nrows();
    match distribute(a, &vec![1.0; n], &vec![0.0; n], part) {
        Ok(_) => panic!("distribution should fail"),
        Err(e) => e,
    }
}

#[test]
fn an_empty_part_is_a_shape_error_naming_it() {
    let a = gen::grid2d_poisson(4, 4);
    let assignment: Vec<usize> = (0..16).map(|i| if i < 8 { 0 } else { 2 }).collect();
    let part = Partition::new(3, assignment);
    assert_eq!(
        distribute_err(&a, &part),
        SparseError::Shape("distribute: part 1 owns no rows".into())
    );
}

#[test]
fn a_bad_diagonal_is_a_numeric_error_naming_the_first_row() {
    let numeric = |g: usize, shown: &str| {
        SparseError::Numeric(format!(
            "distribute: row {g} has a zero or non-finite diagonal ({shown})"
        ))
    };
    let strip = partition_strip(16, 2);
    // Explicit zero, missing entry, NaN and infinity, in the second part.
    assert_eq!(
        distribute_err(&with_diagonal(&[11], Some(0.0)), &strip),
        numeric(11, "0")
    );
    assert_eq!(
        distribute_err(&with_diagonal(&[11], Some(-0.0)), &strip),
        numeric(11, "-0")
    );
    assert_eq!(
        distribute_err(&with_diagonal(&[11], None), &strip),
        numeric(11, "0")
    );
    assert_eq!(
        distribute_err(&with_diagonal(&[9], Some(f64::NAN)), &strip),
        numeric(9, "NaN")
    );
    assert_eq!(
        distribute_err(&with_diagonal(&[2], Some(f64::INFINITY)), &strip),
        numeric(2, "inf")
    );
    // Two bad rows in one part: the lower global row is named.
    assert_eq!(
        distribute_err(&with_diagonal(&[5, 3], Some(0.0)), &strip),
        numeric(3, "0")
    );
    // Bad rows in two parts: the lower part is named first.
    assert_eq!(
        distribute_err(&with_diagonal(&[12, 6], None), &strip),
        numeric(6, "0")
    );
}

#[test]
fn parts_fail_in_order_when_both_errors_occur() {
    // Part 0 holds a zero diagonal and part 1 is empty: part 0 fails first.
    let a = with_diagonal(&[4], Some(0.0));
    let assignment: Vec<usize> = (0..16).map(|i| if i < 8 { 0 } else { 2 }).collect();
    let part = Partition::new(3, assignment);
    assert_eq!(
        distribute_err(&a, &part),
        SparseError::Numeric("distribute: row 4 has a zero or non-finite diagonal (0)".into())
    );
    // Part 0 is empty and part 1 holds the zero diagonal: the empty part wins.
    let assignment: Vec<usize> = (0..16).map(|i| if i < 8 { 1 } else { 2 }).collect();
    let part = Partition::new(3, assignment);
    assert_eq!(
        distribute_err(&a, &part),
        SparseError::Shape("distribute: part 0 owns no rows".into())
    );
}
