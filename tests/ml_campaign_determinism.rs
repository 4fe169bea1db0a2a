//! Worker-count invariance of the ML evaluation campaigns.
//!
//! The leave-one-out campaigns behind `fig17_accuracy`, `fig18_curves` and
//! `tab05_classifiers` fan their folds out across threads
//! (`simkit::par::par_map_indexed`), profile once from the campaign seed
//! and give each fold its own derived RNG. The `figures` driver prints
//! exactly the strings built here, so asserting the reports byte-identical
//! at 1 vs 4 workers pins the `SPARK_MOE_THREADS=1` vs `=4` stdout
//! equality the CI bit-identity gate also checks. The 1-worker report must
//! also equal the committed golden in `ci/pinned/`, so a build profile
//! that moved a bit (the test build optimises `mlkit`) fails here.

use bench_suite::mlcamp;
use workloads::Catalog;

#[test]
fn fig17_report_is_byte_identical_across_worker_counts() {
    let catalog = Catalog::paper();
    let one = mlcamp::fig17_report(&catalog, 1).expect("fig17 at 1 worker");
    let four = mlcamp::fig17_report(&catalog, 4).expect("fig17 at 4 workers");
    assert_eq!(
        one, four,
        "fig17_accuracy stdout must not depend on workers"
    );
    assert_eq!(one, include_str!("../ci/pinned/fig17_accuracy.txt"));
}

#[test]
fn fig18_report_is_byte_identical_across_worker_counts() {
    let catalog = Catalog::paper();
    let one = mlcamp::fig18_report(&catalog, 1).expect("fig18 at 1 worker");
    let four = mlcamp::fig18_report(&catalog, 4).expect("fig18 at 4 workers");
    assert_eq!(one, four, "fig18_curves stdout must not depend on workers");
    assert_eq!(one, include_str!("../ci/pinned/fig18_curves.txt"));
}

#[test]
fn tab05_report_is_byte_identical_across_worker_counts() {
    let catalog = Catalog::paper();
    let one = mlcamp::tab05_report(&catalog, 1).expect("tab05 at 1 worker");
    let four = mlcamp::tab05_report(&catalog, 4).expect("tab05 at 4 workers");
    assert_eq!(
        one, four,
        "tab05_classifiers stdout must not depend on workers"
    );
    assert_eq!(one, include_str!("../ci/pinned/tab05_classifiers.txt"));
}
