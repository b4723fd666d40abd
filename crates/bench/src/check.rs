//! `experiments check DIR`: compares regenerated CSVs with `results/`.
//!
//! Every experiment's output is deterministic except the wall-clock
//! columns a few experiments measure. Each of those experiments declares
//! its measured columns in code (a `MEASURED` const); every other cell of
//! every CSV must equal the checked-in copy byte for byte, so a change
//! that moves a deterministic number fails loudly, naming the first cell
//! that differs.

use crate::experiments::{chaos, multirhs, serve};
use std::path::Path;

/// The measured columns of each CSV that has any, by file stem.
const MEASURED: &[(&str, &[&str])] = &[
    ("chaos", chaos::MEASURED),
    ("multirhs", multirhs::MEASURED),
    ("serve_throughput", serve::MEASURED),
];

/// The measured columns of the CSV named `stem` (none for most).
fn measured(stem: &str) -> &'static [&'static str] {
    MEASURED
        .iter()
        .find(|(s, _)| *s == stem)
        .map_or(&[], |(_, cols)| cols)
}

/// Compares one CSV (`got`) with its reference (`want`), skipping the
/// `measured` columns. Both headers must be identical, and every measured
/// column must be in them. An error names the first differing cell.
fn compare_csv(name: &str, got: &str, want: &str, measured: &[&str]) -> Result<(), String> {
    let (mut got, mut want) = (got.lines(), want.lines());
    let header = want.next().unwrap_or_default();
    let got_header = got.next().unwrap_or_default();
    if got_header != header {
        return Err(format!(
            "{name}: header differs:\n  got  {got_header}\n  want {header}"
        ));
    }
    let cols: Vec<&str> = header.split(',').collect();
    if let Some(c) = measured.iter().find(|c| !cols.contains(c)) {
        return Err(format!(
            "{name}: declared measured column `{c}` is not in the header"
        ));
    }
    let mut row = 0;
    loop {
        row += 1;
        let (g, w) = match (got.next(), want.next()) {
            (None, None) => return Ok(()),
            (Some(_), None) => return Err(format!("{name}: extra row {row}")),
            (None, Some(_)) => return Err(format!("{name}: row {row} missing")),
            (Some(g), Some(w)) => (g, w),
        };
        let (gc, wc): (Vec<&str>, Vec<&str>) = (g.split(',').collect(), w.split(',').collect());
        if gc.len() != wc.len() {
            return Err(format!(
                "{name}: row {row} has {} cells, want {}",
                gc.len(),
                wc.len()
            ));
        }
        for ((col, a), b) in cols.iter().zip(&gc).zip(&wc) {
            if a != b && !measured.contains(col) {
                return Err(format!(
                    "{name}: row {row} ({}), column `{col}`: got {a}, want {b}",
                    wc[0]
                ));
            }
        }
    }
}

/// Compares every CSV in `dir` with its namesake in `reference`. Returns
/// the number of CSVs compared, or the first difference.
pub fn check_dir(dir: &Path, reference: &Path) -> Result<usize, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{}: no CSV to check", dir.display()));
    }
    for name in &names {
        let stem = name.trim_end_matches(".csv");
        let got = read(&dir.join(name))?;
        let want = read(&reference.join(name))?;
        compare_csv(name, &got, &want, measured(stem))?;
    }
    Ok(names.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const WANT: &str = "method,k,rate,msgs\nBJ,4,1.5,10\nDS,4,2.5,7\n";

    #[test]
    fn measured_columns_may_differ_and_nothing_else() {
        let got = "method,k,rate,msgs\nBJ,4,9.9,10\nDS,4,0.1,7\n";
        assert_eq!(compare_csv("t.csv", got, WANT, &["rate"]), Ok(()));
        let err = compare_csv("t.csv", got, WANT, &[]).unwrap_err();
        assert_eq!(err, "t.csv: row 1 (BJ), column `rate`: got 9.9, want 1.5");
        let moved = "method,k,rate,msgs\nBJ,4,1.5,10\nDS,4,2.5,8\n";
        let err = compare_csv("t.csv", moved, WANT, &["rate"]).unwrap_err();
        assert_eq!(err, "t.csv: row 2 (DS), column `msgs`: got 8, want 7");
    }

    #[test]
    fn shape_differences_are_errors() {
        let short = "method,k,rate,msgs\nBJ,4,1.5,10\n";
        assert!(compare_csv("t", short, WANT, &[])
            .unwrap_err()
            .contains("row 2 missing"));
        let renamed = "method,k,speed,msgs\nBJ,4,1.5,10\nDS,4,2.5,7\n";
        assert!(compare_csv("t", renamed, WANT, &[])
            .unwrap_err()
            .contains("header"));
        let err = compare_csv("t", WANT, WANT, &["latency"]).unwrap_err();
        assert!(err.contains("`latency` is not in the header"), "{err}");
    }

    #[test]
    fn checked_in_results_equal_themselves() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let n = check_dir(&results, &results).expect("results/ equals itself");
        assert!(n >= MEASURED.len());
    }
}
