//! The paper's tables and figures as functions, and the `figures`
//! driver's table of them.
//!
//! Every figure is a [`Figure`]: it reads its campaign sizes from a
//! [`Size`], prints its rows to stdout and, given a record directory,
//! writes its CSV/JSON records there. The two sizes are declared once,
//! in [`CI`] and [`PAPER`]; any other size is a one-line edit to that
//! table. `figures <name…|all> [--size ci|paper] [--out DIR]` runs them
//! (see `src/bin/figures.rs`).

mod ablation;
mod chaos;
mod chaos_search;
mod model;
mod runtime;
mod serving;
mod table3;
mod table4;

use crate::mlcamp::CampaignError;
use std::path::{Path, PathBuf};

/// Campaign sizes of one figure run.
#[derive(Debug, PartialEq)]
pub struct Size {
    /// Name on the command line (`--size <name>`).
    pub name: &'static str,
    /// Random mixes per Table 3 scenario or chaos intensity.
    pub mixes: usize,
    /// Expected arrivals per open-loop replication (Fig. 21).
    pub openloop_jobs: usize,
    /// Open-loop replications per load factor (Fig. 21).
    pub openloop_reps: usize,
    /// Chaos-search episode budget (Fig. 22).
    pub chaos_episodes: usize,
    /// Serving firehose requests (Fig. 23).
    pub serving_requests: usize,
}

/// The size CI pins in `ci/pinned/`: seconds for all figures.
pub const CI: Size = Size {
    name: "ci",
    mixes: 2,
    openloop_jobs: 6,
    openloop_reps: 2,
    chaos_episodes: 8,
    serving_requests: 20_000,
};

/// The size `EXPERIMENTS.md` quotes.
pub const PAPER: Size = Size {
    name: "paper",
    mixes: 10,
    openloop_jobs: 18,
    openloop_reps: 3,
    chaos_episodes: 64,
    serving_requests: 2_000_000,
};

/// A figure body: sizes in, stdout rows out, records into the directory
/// when one is given.
pub type Figure = fn(&Size, Option<&Path>) -> Result<(), CampaignError>;

/// Every table and figure, by name, in the order `all` runs them.
pub const FIGURES: [(&str, Figure); 25] = [
    ("tab02_features", model::tab02_features),
    ("tab05_classifiers", model::tab05_classifiers),
    ("fig03_memfuncs", model::fig03_memfuncs),
    ("fig04_pca", model::fig04_pca),
    ("fig06_overall", table3::fig06_overall),
    ("fig07_utilization", table4::fig07_utilization),
    ("fig08_mix_outcome", table4::fig08_mix_outcome),
    ("fig09_unified", table3::fig09_unified),
    ("fig10_online", table3::fig10_online),
    ("fig11_overhead", runtime::fig11_overhead),
    ("fig12_overhead_apps", runtime::fig12_overhead_apps),
    ("fig13_cpuload", model::fig13_cpuload),
    ("fig14_interference", runtime::fig14_interference),
    ("fig15_parsec", runtime::fig15_parsec),
    ("fig16_clusters", model::fig16_clusters),
    ("fig17_accuracy", model::fig17_accuracy),
    ("fig18_curves", model::fig18_curves),
    ("fig19_chaos", chaos::fig19_chaos),
    ("fig21_openloop", chaos::fig21_openloop),
    ("fig22_chaos_search", chaos_search::fig22_chaos_search),
    ("fig23_serving", serving::fig23_serving),
    ("ablation_sweep", ablation::ablation_sweep),
    ("paper_headlines", table3::paper_headlines),
    ("catalog_dump", model::catalog_dump),
    ("convergence_check", table3::convergence_check),
];

/// The driver's command line, parsed.
#[derive(Debug)]
pub struct Args {
    /// Indices into [`FIGURES`], in the order given.
    pub figures: Vec<usize>,
    /// The campaign sizes.
    pub size: &'static Size,
    /// Where stdout and records go; `None` prints to stdout and writes no
    /// records.
    pub out: Option<PathBuf>,
}

/// The driver's usage line.
pub const USAGE: &str = "usage: figures <name…|all> [--size ci|paper] [--out DIR]";

/// Parses `figures <name…|all> [--size ci|paper] [--out DIR]` (program
/// name excluded). The size defaults to [`CI`].
///
/// # Errors
///
/// Names the first unknown figure, size or flag, a flag without its
/// value, or an empty figure list.
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        figures: Vec::new(),
        size: &CI,
        out: None,
    };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--size" | "--out" => {
                let value = argv.next().ok_or(format!("{arg} needs a value"))?;
                if arg == "--out" {
                    args.out = Some(PathBuf::from(value));
                } else {
                    args.size = [&CI, &PAPER]
                        .into_iter()
                        .find(|s| s.name == value)
                        .ok_or(format!("unknown size {value}"))?;
                }
            }
            "all" => args.figures.extend(0..FIGURES.len()),
            name => args.figures.push(
                FIGURES
                    .iter()
                    .position(|(n, _)| *n == name)
                    .ok_or(format!("unknown figure {name}"))?,
            ),
        }
    }
    if args.figures.is_empty() {
        return Err("no figure named".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn table_names_are_unique() {
        for (i, (name, _)) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[i + 1..].iter().all(|(other, _)| other != name),
                "{name} listed twice"
            );
        }
    }

    #[test]
    fn all_expands_to_the_table_in_order() {
        let args = parse("all --size paper --out d").unwrap();
        assert_eq!(args.figures, (0..FIGURES.len()).collect::<Vec<_>>());
        assert_eq!(args.size, &PAPER);
        assert_eq!(args.out, Some(PathBuf::from("d")));
    }

    #[test]
    fn names_keep_their_order_and_size_defaults_to_ci() {
        let args = parse("fig23_serving tab02_features").unwrap();
        assert_eq!(args.figures, vec![20, 0]);
        assert_eq!(args.size, &CI);
        assert_eq!(args.out, None);
    }
}
