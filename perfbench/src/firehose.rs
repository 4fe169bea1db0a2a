//! `serving-firehose`: the Fig. 23 firehose at its best mode, batch 256.
//!
//! Set-up trains the MoE predictor and round-trips it through
//! `ModelArtifact` (`from_predictor`, `encode`, `decode`,
//! `into_predictor`), then draws a seeded pool of `workloads::signatures`
//! observations. A round streams the pool through the reloaded
//! predictor's `select_batch` several times. On a sampled subset every
//! batched selection is compared bit for bit with the scalar `select` of
//! the original predictor, outside the timed calls.
//!
//! Item: one prediction, counted — and timed — inside the `select_batch`
//! calls only. Operation: one batch.

use crate::checks::check_selection;
use crate::digest::Digest;
use crate::metrics::metric;
use crate::runner::{span, RoundReport, Workload};
use crate::trace::Tracer;
use colocate::harness::{trained_system_for, RunConfig};
use colocate::scheduler::PolicyKind;
use colocate::serving::ModelArtifact;
use moe_core::features::FeatureVector;
use moe_core::MoePredictor;
use simkit::SimRng;
use std::hint::black_box;
use workloads::{signatures, Catalog};

/// Requests per `select_batch` call (Fig. 23's fastest mode).
pub const BATCH: usize = 256;

/// Every `SAMPLE_EVERY`-th row of a pass is checked against the scalar
/// path; the sampled rows shift from pass to pass.
const SAMPLE_EVERY: usize = 64;

/// The firehose's shape.
#[derive(Debug, Clone)]
pub struct Firehose {
    /// Workload seed.
    pub seed: u64,
    /// Observations in the pool.
    pub pool: usize,
    /// Passes over the pool per round.
    pub passes: usize,
}

impl Firehose {
    /// The benchmark's size: a pool of 4096 observations (16 batches,
    /// under 1 MB, so the stream stays in the core's own caches), 64
    /// passes per round.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Firehose {
            seed,
            pool: 16 * BATCH,
            passes: 64,
        }
    }

    /// A size for tests.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Firehose {
            seed,
            pool: 4 * BATCH + 17,
            passes: 2,
        }
    }
}

/// What set-up builds.
#[derive(Debug)]
pub struct FirehoseState {
    /// The trained predictor: the scalar oracle.
    original: MoePredictor,
    /// The predictor reloaded from its artifact: the one served.
    served: MoePredictor,
    artifact_bytes: usize,
    pool: Vec<FeatureVector>,
}

impl Workload for Firehose {
    type State = FirehoseState;

    fn setup(&self, tracer: &mut Tracer) -> Result<FirehoseState, String> {
        let catalog = tracer.span(span::CATALOG, "", (0, 0), |_| Catalog::paper());
        let system = tracer
            .span(span::TRAINING, "", (0, 0), |_| {
                trained_system_for(
                    PolicyKind::Moe,
                    &catalog,
                    &RunConfig::default(),
                    crate::MODEL_SEED,
                )
            })
            .map_err(|e| format!("training: {e}"))?
            .ok_or("MoE trains no system")?;
        let (served, artifact_bytes) = tracer
            .span(span::ARTIFACT, "", (0, 0), |_| {
                let artifact =
                    ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves)?;
                let bytes = artifact.encode();
                let served = ModelArtifact::decode(&bytes)?.into_predictor()?;
                Ok::<_, colocate::serving::ServingError>((served, bytes.len()))
            })
            .map_err(|e| format!("artifact round trip: {e}"))?;
        let pool = tracer.span(span::INPUTS, "", (0, 0), |_| {
            let mut rng = SimRng::seed_from(self.seed);
            let benches = catalog.all();
            (0..self.pool)
                .map(|_| {
                    let b = rng.uniform_usize(0, benches.len() - 1);
                    signatures::observe_default(&benches[b], &mut rng)
                })
                .collect()
        });
        Ok(FirehoseState {
            original: system.predictor,
            served,
            artifact_bytes,
            pool,
        })
    }

    fn round(&self, state: &FirehoseState, round: u32, tracer: &mut Tracer) -> RoundReport {
        let mut report = RoundReport::default();
        let mut digest = Digest::new();
        let mut batch_id = 0u32;
        for pass in 0..self.passes {
            let offset = (pass * 7) % SAMPLE_EVERY;
            for (b, batch) in state.pool.chunks(BATCH).enumerate() {
                report.attempted += 1;
                let request = (round, batch_id);
                let selections = report.call(tracer, span::SELECT_BATCH, "", request, || {
                    state.served.select_batch(black_box(batch))
                });
                batch_id += 1;
                let selections = match selections {
                    Ok(s) if s.len() == batch.len() => s,
                    Ok(s) => {
                        report.fail(format!(
                            "batch {b}: {} answers for {}",
                            s.len(),
                            batch.len()
                        ));
                        continue;
                    }
                    Err(e) => {
                        report.fail(format!("batch {b}: {e}"));
                        continue;
                    }
                };
                report.items += selections.len() as u64;
                let sampled = (0..batch.len())
                    .filter(|i| (b * BATCH + i) % SAMPLE_EVERY == offset)
                    .try_for_each(|i| {
                        let scalar = state
                            .original
                            .select(&batch[i])
                            .map_err(|e| format!("scalar select: {e}"))?;
                        check_selection(&selections[i], &scalar)
                    });
                if let Err(e) = sampled {
                    report.fail(format!("batch {b}: {e}"));
                    continue;
                }
                for s in &selections {
                    digest.usize(s.expert.as_usize());
                    digest.f64(s.distance);
                    digest.bool(s.low_confidence);
                }
            }
        }
        report.counters = vec![metric(
            "serving.artifact_bytes",
            state.artifact_bytes as f64,
            "bytes",
        )];
        report.digest = digest.value();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_batch_checks_and_rounds_repeat() {
        let w = Firehose::tiny(3);
        let mut tracer = Tracer::new(false);
        let state = w.setup(&mut tracer).unwrap();
        let a = w.round(&state, 0, &mut tracer);
        let b = w.round(&state, 1, &mut tracer);
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.attempted, 2 * 5);
        assert_eq!(a.items, 2 * state.pool.len() as u64);
        assert_eq!(a.digest, b.digest);
    }
}
