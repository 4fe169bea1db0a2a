//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures <name…|all> [--size ci|paper] [--out DIR]
//! ```
//!
//! Without `--out`, each named figure runs in this process, prints to
//! stdout and writes no records. With `--out DIR`, each runs in a child
//! process of this executable, started in `DIR` with its stdout in
//! `DIR/<name>.txt`, and writes its CSV/JSON records under `DIR/<name>/`,
//! so the paths it prints read `<name>/<file>` wherever `DIR` lives.
//! A failing figure is named on stderr and the driver exits 1 after the
//! rest have run; a bad command line prints usage and exits 2.

use bench_suite::figures::{parse_args, Size, FIGURES, USAGE};
use bench_suite::mlcamp::CampaignError;
use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{exit, Command};

/// `argv[0]` of a child: it runs its one figure in-process, with records
/// under `<name>/`. Marking the child here rather than with a flag keeps
/// the command line to `--size` and `--out`.
const CHILD: &str = "figures-child";

fn main() {
    let mut argv = std::env::args();
    let child = argv.next().as_deref() == Some(CHILD);
    let args = parse_args(argv).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{USAGE}");
        exit(2)
    });
    let mut failed = Vec::new();
    for &i in &args.figures {
        let (name, figure) = FIGURES[i];
        let result = match &args.out {
            Some(out) if !child => run_child(name, args.size, out),
            _ => figure(args.size, child.then(|| Path::new(name))),
        };
        if let Err(e) = result {
            eprintln!("{name}: {e}");
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        eprintln!("figures failed: {}", failed.join(", "));
        exit(1);
    }
}

/// Runs figure `name` in a child started in `out`, its stdout in
/// `out/<name>.txt`.
fn run_child(name: &str, size: &Size, out: &Path) -> Result<(), CampaignError> {
    std::fs::create_dir_all(out)?;
    let stdout = File::create(out.join(format!("{name}.txt")))?;
    let status = Command::new(std::env::current_exe()?)
        .arg0(CHILD)
        .args([name, "--size", size.name])
        .current_dir(out)
        .stdout(stdout)
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("child {status}").into())
    }
}
