//! The paper's evaluation pinned: `experiments all --fast` must print
//! every count and every simulated figure of `tests/golden/experiments_fast.txt`
//! — Exp-1's rows and headline, Exp-2's matched / improved counts and
//! bars, Exp-3's bucket sizes, the Exp-5 / Exp-6 tables, the case-study
//! runtimes and plans and the evolution classes. Wall-clock columns
//! (Exp-1's per-query and per-sub-query milliseconds, Exp-3's match
//! milliseconds, Exp-4's cells and worst cell) are masked with `~`, so the
//! file does not depend on the machine. Learning is the same for every
//! thread count, so neither does anything else.
//!
//! A change meant to keep the evaluation leaves the file alone; one meant
//! to move it re-blesses with
//! `cargo test --release -p galo_bench --test experiments_golden -- --ignored bless`
//! and says which lines moved.

use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/experiments_fast.txt")
}

/// `cells` of a `|`-separated row replaced by `~`, each kept at its width.
fn mask_cells(line: &str, cells: impl Fn(usize) -> bool) -> String {
    let masked: Vec<String> = line
        .split('|')
        .enumerate()
        .map(|(i, cell)| {
            if cells(i) {
                let figure = cell.trim_end();
                format!("{:>w$}{}", "~", &cell[figure.len()..], w = figure.len())
            } else {
                cell.to_string()
            }
        })
        .collect();
    masked.join("|")
}

/// The run's output with every wall-clock figure masked.
fn masked(out: &str) -> String {
    // A section's title is the line between its two rules.
    let (mut section, mut rules, mut after_rule) = ("", 0, false);
    let mut lines = Vec::new();
    for line in out.lines() {
        if after_rule && rules % 2 == 1 {
            section = line;
        }
        after_rule = line.starts_with("====");
        rules += usize::from(after_rule);
        let is_row = line
            .split('|')
            .next()
            .is_some_and(|first| first.trim().parse::<usize>().is_ok());
        let line = if !is_row {
            match line.split_once("Worst cell: ") {
                Some((head, rest)) if section.starts_with("Exp-4 ") => {
                    let tail = rest.split_once(" — ").map_or("", |(_, tail)| tail);
                    format!("{head}Worst cell: ~ — {tail}")
                }
                _ => line.to_string(),
            }
        } else if section.starts_with("Exp-1 / ") {
            mask_cells(line, |i| i == 1 || i == 2)
        } else if section.starts_with("Exp-3 ") {
            mask_cells(line, |i| i == 1)
        } else if section.starts_with("Exp-4 ") {
            mask_cells(line, |i| i > 0)
        } else {
            line.to_string()
        };
        lines.push(line);
    }
    lines.join("\n") + "\n"
}

fn run_fast() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--fast"])
        .output()
        .expect("the experiments binary runs");
    assert!(out.status.success(), "experiments all --fast failed");
    masked(&String::from_utf8(out.stdout).expect("the experiments print UTF-8"))
}

#[test]
fn the_fast_evaluation_matches_the_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file is committed");
    let actual = run_fast();
    for (at, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "line {} of the fast evaluation moved", at + 1);
    }
    assert_eq!(golden.lines().count(), actual.lines().count());
}

/// Regenerate the golden file:
/// `cargo test --release -p galo_bench --test experiments_golden -- --ignored bless`.
#[test]
#[ignore = "rewrites tests/golden/experiments_fast.txt"]
fn bless() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden file has a parent directory"))
        .expect("create tests/golden");
    std::fs::write(&path, run_fast()).expect("write golden file");
}
