//! The `train` workload: a pinned RBC corpus and the `make_batch` →
//! `Trainer::step` loop the `train` binary runs, one process, no server.

use crate::serving::{model_config, Record, SLICE_S};
use crate::trace::{Span, Tracer};
use mfn_core::{Corpus, MeshfreeFlowNet, TrainConfig, Trainer};
use mfn_data::{downsample, load_dataset, make_batch, save_dataset, Dataset, PatchSampler};
use mfn_solver::{simulate, RbcConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Steps after which `trainer.loss_final` is read: a fixed point of the
/// schedule, so the value repeats bit-exactly for a seed however fast the
/// host is.
pub const LOSS_STEPS: usize = 12;
/// Steps averaged into `trainer.loss_final`.
const LOSS_TAIL: usize = 4;

/// The `train` binary's single-worker settings.
pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 60,
        batches_per_epoch: 8,
        batch_size: 4,
        lr: 1e-2,
        lr_decay: 0.98,
        ..Default::default()
    }
}

/// The HR and LR dataset files of the training corpus.
pub struct CorpusFiles {
    hr: PathBuf,
    lr: PathBuf,
}

impl CorpusFiles {
    /// Simulates a pinned-seed Rayleigh–Bénard run and writes it, with its
    /// 2x/2x downsampled LR set, as
    /// `gendata --nx 32 --nz 9 --frames 9 --duration 0.4 --ds-t 2 --ds-s 2`
    /// does: an LR grid of 5 x 5 x 16, enough for one `[4, 4, 8]` patch
    /// shape. This is input generation, like the serving workloads' seeded
    /// patches; `load` is the set-up.
    pub fn write(dir: &Path) -> Result<CorpusFiles, String> {
        let cfg = RbcConfig { nx: 32, nz: 9, dt_max: 2e-3, seed: 7, ..Default::default() };
        let hr = Dataset::from_simulation(&simulate(&cfg, 0.4, 9));
        let lr = downsample(&hr, 2, 2);
        let pid = std::process::id();
        let files = CorpusFiles {
            hr: dir.join(format!("hr-{pid}.bin")),
            lr: dir.join(format!("lr-{pid}.bin")),
        };
        for (ds, path) in [(&hr, &files.hr), (&lr, &files.lr)] {
            save_dataset(ds, path).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(files)
    }

    /// Loads the corpus the way the `train` binary does.
    pub fn load(&self) -> Result<Corpus, String> {
        let load = |p: &PathBuf| load_dataset(p).map_err(|e| format!("load {}: {e}", p.display()));
        Ok(Corpus::new(vec![(load(&self.hr)?, load(&self.lr)?)]))
    }
}

impl Drop for CorpusFiles {
    fn drop(&mut self) {
        for p in [&self.hr, &self.lr] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(p.with_extension("json"));
        }
    }
}

pub fn new_trainer() -> Trainer {
    Trainer::new(MeshfreeFlowNet::new(model_config()), train_config())
}

/// Steps `trainer` once on a fresh batch, applying the per-epoch learning
/// rate decay `Trainer::train` applies. Returns the step's total loss.
pub fn step(
    trainer: &mut Trainer,
    sampler: &PatchSampler<'_>,
    corpus: &Corpus,
    rng: &mut mfn_core::SampleRng,
    step_no: usize,
    tracer: Option<(&mut Tracer, u64)>,
) -> f32 {
    let cfg = trainer.cfg;
    if step_no > 0 && step_no.is_multiple_of(cfg.batches_per_epoch) && cfg.lr_decay != 1.0 {
        let lr = trainer.opt.config().lr * cfg.lr_decay;
        trainer.opt.set_lr(lr);
    }
    match tracer {
        Some((t, req)) => {
            let (batch, _) =
                t.time("data.make_batch", None, req, || make_batch(sampler, cfg.batch_size, rng));
            let (comps, _) = t.time("trainer.step", None, req, || {
                trainer.step(&batch, corpus.params(0), corpus.stats)
            });
            comps.total
        }
        None => {
            let batch = make_batch(sampler, cfg.batch_size, rng);
            trainer.step(&batch, corpus.params(0), corpus.stats).total
        }
    }
}

/// The seeded batch stream: the same seed draws the same batches.
pub fn batch_rng(seed: u64) -> mfn_core::SampleRng {
    mfn_core::SampleRng::seed_from_u64(seed ^ 0x7261_696e)
}

/// Trains for `warmup + seconds` (and at least [`LOSS_STEPS`] steps).
/// Returns one record per step plus the mean loss of the
/// [`LOSS_TAIL`] steps ending at [`LOSS_STEPS`].
pub fn train_loop(
    corpus: &Corpus,
    mut trainer: Trainer,
    seed: u64,
    warmup: f64,
    seconds: f64,
    slices: bool,
) -> (Vec<Record>, Vec<Span>, f32) {
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, model_config().patch);
    let mut rng = batch_rng(seed);
    let points = trainer.cfg.batch_size * model_config().patch.queries;
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0);
    let mut records = Vec::new();
    let mut losses = Vec::new();
    for idx in 0.. {
        let start_s = t0.elapsed().as_secs_f64() - warmup;
        if start_s >= seconds && idx >= LOSS_STEPS {
            break;
        }
        let traced = slices && (start_s / SLICE_S).floor() as i64 % 2 != 0;
        let start = Instant::now();
        let t = traced.then_some((&mut tracer, idx as u64));
        let loss = step(&mut trainer, &sampler, corpus, &mut rng, idx, t);
        let latency_s = start.elapsed().as_secs_f32();
        losses.push(loss);
        if !loss.is_finite() {
            eprintln!("[perfbench] non-finite loss {loss} at step {idx}");
        }
        records.push(Record {
            idx: idx as u32,
            conn: 0,
            traced,
            ok: loss.is_finite(),
            hit: false,
            points: points as u32,
            start_s: start_s as f32,
            latency_s,
            fingerprint: loss.to_bits().into(),
        });
    }
    (records, tracer.spans, loss_final(&losses))
}

/// Mean loss of the [`LOSS_TAIL`] steps ending at [`LOSS_STEPS`].
pub fn loss_final(losses: &[f32]) -> f32 {
    losses[LOSS_STEPS - LOSS_TAIL..LOSS_STEPS].iter().sum::<f32>() / LOSS_TAIL as f32
}
