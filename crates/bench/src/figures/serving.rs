//! Fig. 23 (extension): the prediction serving firehose — train once,
//! freeze the model into a checksummed artifact, reload it, and stream a
//! seeded firehose of synthetic feature observations (the same
//! `workloads::signatures` generator the campaigns profile with) through
//! the scalar per-request `select` loop and the whole-matrix
//! `select_batch` path at batch sizes 1/16/256/4096.
//!
//! Determinism: the request stream is a pure function of `(catalog,
//! seed, n)`, and every batched selection is checked bit-for-bit against
//! the scalar oracle; the equivalence verdict is the figure, and a
//! divergence fails it. No wall clock is measured (perfbench's
//! `serving-firehose` workload times this path), so stdout and
//! `BENCH_serving.json` are byte-stable across hosts and thread counts.

use super::Size;
use crate::csv::write_record;
use crate::mlcamp::CampaignError;
use colocate::serving::ModelArtifact;
use colocate::training::{train_system, TrainingConfig};
use moe_core::features::FeatureVector;
use moe_core::{MoeError, MoePredictor, Selection};
use simkit::SimRng;
use std::path::Path;
use workloads::catalog::Catalog;
use workloads::signatures;

/// Seed of the training run and the request stream.
const SEED: u64 = 42;

/// Batch sizes the firehose sweeps (1 is the degenerate one-row batch).
const BATCH_SIZES: [usize; 4] = [1, 16, 256, 4096];

/// Generation chunk: large enough to amortize, small enough to keep the
/// resident feature matrix tiny even for multi-million-request runs.
const GEN_CHUNK: usize = 8192;

/// The seeded stream of `n` synthetic profiling observations, in blocks of
/// [`GEN_CHUNK`]: a pure function of `(catalog, seed, n)`.
fn firehose(
    catalog: &Catalog,
    seed: u64,
    n: usize,
) -> impl Iterator<Item = Vec<FeatureVector>> + '_ {
    let mut rng = SimRng::seed_from(seed);
    let benches = catalog.all();
    (0..n).step_by(GEN_CHUNK).map(move |start| {
        (start..n.min(start + GEN_CHUNK))
            .map(|_| {
                let b = rng.uniform_usize(0, benches.len() - 1);
                signatures::observe_default(&benches[b], &mut rng)
            })
            .collect()
    })
}

/// The scalar per-request loop over the firehose: the bitwise oracle for
/// the batched passes.
fn run_scalar(
    predictor: &MoePredictor,
    catalog: &Catalog,
    seed: u64,
    n: usize,
) -> Result<Vec<Selection>, MoeError> {
    firehose(catalog, seed, n)
        .flatten()
        .map(|f| predictor.select(&f))
        .collect()
}

/// The batched path at one batch size, carved out of the same blocks the
/// scalar loop draws: whether every selection matches the oracle bit for
/// bit.
fn run_batched(
    predictor: &MoePredictor,
    catalog: &Catalog,
    seed: u64,
    batch: usize,
    oracle: &[Selection],
) -> Result<bool, MoeError> {
    let (mut identical, mut done) = (true, 0);
    for chunk in firehose(catalog, seed, oracle.len()) {
        for dispatch in chunk.chunks(batch) {
            for sel in predictor.select_batch(dispatch)? {
                identical &= oracle.get(done).is_some_and(|r| {
                    sel.expert == r.expert
                        && sel.distance.to_bits() == r.distance.to_bits()
                        && sel.low_confidence == r.low_confidence
                });
                done += 1;
            }
        }
    }
    Ok(identical && done == oracle.len())
}

/// Renders the `BENCH_serving.json` record: request count, seed, artifact
/// size, the bitwise equivalence verdict and the batch sizes it covers.
#[must_use]
pub fn serving_json(requests: usize, seed: u64, artifact_bytes: usize, identical: bool) -> String {
    let sizes: Vec<String> = BATCH_SIZES.iter().map(usize::to_string).collect();
    format!(
        "{{\"requests\":{requests},\"seed\":{seed},\"artifact_bytes\":{artifact_bytes},\
         \"batched_equals_scalar\":{identical},\"batch_sizes\":[{}]}}\n",
        sizes.join(",")
    )
}

/// Trains once, round-trips the model through its artifact, and checks
/// every batch size against the scalar oracle over
/// [`Size::serving_requests`] requests.
pub fn fig23_serving(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let (requests, seed) = (size.serving_requests, SEED);

    println!("Fig. 23: prediction serving firehose — {requests} requests from seed {seed}");

    // Train once, then freeze + thaw through the model artifact: the
    // batched passes below all run on the *reloaded* predictor, so the
    // equivalence verdict covers the artifact round trip too.
    let mut rng = SimRng::seed_from(seed ^ 0x7EA1);
    let system = train_system(catalog, &TrainingConfig::default(), &mut rng)?;
    let artifact = ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves)?;
    let encoded = artifact.encode();
    let served = ModelArtifact::decode(&encoded).and_then(|a| a.into_predictor())?;
    println!(
        "model artifact: {} bytes ({} experts, {} exemplars × {} components)",
        encoded.len(),
        artifact.expert_families.len(),
        artifact.knn_labels.len(),
        artifact.pca_eigenvalues.len(),
    );

    // Scalar pass: the per-request oracle, on the original predictor.
    let oracle = run_scalar(&system.predictor, catalog, seed, requests)?;
    let mut identical = true;
    for batch in BATCH_SIZES {
        identical &= run_batched(&served, catalog, seed, batch, &oracle)?;
    }

    println!(
        "\nbatched == scalar (bitwise, {} requests × {} batch sizes): {}",
        requests,
        BATCH_SIZES.len(),
        if identical { "IDENTICAL" } else { "DIVERGED" }
    );

    if let Some(dir) = records {
        let json = serving_json(requests, seed, encoded.len(), identical);
        let path = write_record(dir, "BENCH_serving.json", &json)?;
        println!("\nJSON record written to {}", path.display());
    }

    if !identical {
        return Err(
            "serving acceptance FAILED: batched selections diverged from the scalar oracle".into(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firehose_is_deterministic_and_sized() {
        let catalog = crate::catalog();
        let sizes: Vec<usize> = firehose(catalog, 9, GEN_CHUNK + 3)
            .map(|c| c.len())
            .collect();
        assert_eq!(sizes, [GEN_CHUNK, 3]);
        let (a, b) = (firehose(catalog, 9, 10), firehose(catalog, 9, 10));
        for (x, y) in a.flatten().zip(b.flatten()) {
            for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn serving_json_is_stable() {
        assert_eq!(
            serving_json(4, 7, 100, true),
            "{\"requests\":4,\"seed\":7,\"artifact_bytes\":100,\
             \"batched_equals_scalar\":true,\"batch_sizes\":[1,16,256,4096]}\n"
        );
    }
}
