//! Serving firehose: shared machinery for the `fig23_serving` driver.
//!
//! The firehose streams seeded synthetic feature observations (the same
//! `workloads::signatures` generator the campaigns profile with) through
//! a predictor in two shapes — the scalar per-request `select` loop and
//! the whole-matrix `select_batch` path — and checks that they agree.
//!
//! Determinism: the request stream is a pure function of `(catalog,
//! seed, n)`, and the batched selections are compared bit-for-bit against
//! the scalar oracle on every run. The driver measures no wall clock, so
//! its stdout and JSON record are byte-stable across hosts and thread
//! counts; perfbench's `serving-firehose` workload times this path.

use moe_core::features::FeatureVector;
use moe_core::{MoeError, MoePredictor, Selection};
use simkit::SimRng;
use workloads::catalog::Catalog;
use workloads::signatures;

/// Batch sizes the firehose sweeps (1 is the degenerate one-row batch).
pub const BATCH_SIZES: [usize; 4] = [1, 16, 256, 4096];

/// Generation chunk: large enough to amortize, small enough to keep the
/// resident feature matrix tiny even for multi-million-request runs.
const GEN_CHUNK: usize = 8192;

/// A seeded stream of synthetic profiling observations over a catalog.
#[derive(Debug)]
pub struct Firehose<'a> {
    catalog: &'a Catalog,
    rng: SimRng,
    remaining: usize,
}

impl<'a> Firehose<'a> {
    /// A stream of `n` observations, a pure function of `seed`.
    #[must_use]
    pub fn new(catalog: &'a Catalog, seed: u64, n: usize) -> Self {
        Firehose {
            catalog,
            rng: SimRng::seed_from(seed),
            remaining: n,
        }
    }

    /// Draws up to `max` next observations (fewer at end of stream;
    /// empty when exhausted).
    pub fn next_chunk(&mut self, max: usize) -> Vec<FeatureVector> {
        let take = self.remaining.min(max);
        self.remaining -= take;
        let benches = self.catalog.all();
        (0..take)
            .map(|_| {
                let b = self.rng.uniform_usize(0, benches.len() - 1);
                signatures::observe_default(&benches[b], &mut self.rng)
            })
            .collect()
    }
}

/// Runs the scalar per-request loop over the firehose, returning its
/// selections: the bitwise oracle for the batched passes.
///
/// # Errors
///
/// Propagates selection failures.
pub fn run_scalar(
    predictor: &MoePredictor,
    catalog: &Catalog,
    seed: u64,
    n: usize,
) -> Result<Vec<Selection>, MoeError> {
    let mut stream = Firehose::new(catalog, seed, n);
    let mut selections = Vec::with_capacity(n);
    loop {
        let chunk = stream.next_chunk(GEN_CHUNK);
        if chunk.is_empty() {
            break;
        }
        for f in &chunk {
            selections.push(predictor.select(f)?);
        }
    }
    Ok(selections)
}

/// Runs the batched path at one batch size, checking every selection
/// bit-for-bit against the scalar oracle. Returns whether every selection
/// matched.
///
/// # Errors
///
/// Propagates selection failures.
pub fn run_batched(
    predictor: &MoePredictor,
    catalog: &Catalog,
    seed: u64,
    n: usize,
    batch: usize,
    oracle: &[Selection],
) -> Result<bool, MoeError> {
    let mut stream = Firehose::new(catalog, seed, n);
    let mut identical = true;
    let mut done = 0usize;
    // Generate in the same `GEN_CHUNK` blocks the scalar loop uses and
    // carve dispatches out of each block.
    loop {
        let chunk = stream.next_chunk(GEN_CHUNK);
        if chunk.is_empty() {
            break;
        }
        for dispatch in chunk.chunks(batch.max(1)) {
            let selections = predictor.select_batch(dispatch)?;
            for (i, sel) in selections.iter().enumerate() {
                let Some(reference) = oracle.get(done + i) else {
                    identical = false;
                    continue;
                };
                if sel.expert != reference.expert
                    || sel.distance.to_bits() != reference.distance.to_bits()
                    || sel.low_confidence != reference.low_confidence
                {
                    identical = false;
                }
            }
            done += selections.len();
        }
    }
    if done != oracle.len() {
        identical = false;
    }
    Ok(identical)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firehose_is_deterministic_and_sized() {
        let catalog = crate::catalog();
        let mut a = Firehose::new(catalog, 9, 10);
        let mut b = Firehose::new(catalog, 9, 10);
        let (ca, cb) = (a.next_chunk(7), b.next_chunk(7));
        assert_eq!(ca.len(), 7);
        for (x, y) in ca.iter().zip(&cb) {
            for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        assert_eq!(a.next_chunk(7).len(), 3);
        assert!(a.next_chunk(7).is_empty());
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
