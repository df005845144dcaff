//! The traced per-layer replay. It re-sends the run's own seeded requests
//! one at a time and times, on the same inputs, the `Engine` call and then
//! each public call one layer below it (cache, U-Net, decoder, refine), so
//! a layer's self time is its call minus its children's. Every layer group
//! is replayed on every workload, so each traced run reports the full
//! per-layer table.

use crate::gen::{self, Request};
use crate::report::{median, put, Metric};
use crate::serving::{
    input_tensor, load_model, model_config, refine_budget, request_id, wire_bytes, Stack,
    CONNECTIONS,
};
use crate::trace::Tracer;
use crate::train;
use crate::Workload;
use mfn_core::{plan_queries, Corpus, FrozenModel, MfnConfig, RefineSettings};
use mfn_data::PatchSampler;
use mfn_serve::{patch_digest, patch_verify, Client, Engine, EngineConfig, LatentCache, Query};
use mfn_telemetry::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// Replayed requests per serving layer group.
const HOT: u64 = 240;
const COLD: u64 = 48;
const REFINE: u64 = 24;
/// Replayed training steps: twice the steps `trainer.loss_final` reads, so
/// the train stage sum has as many step pairs as a 10% check needs on a
/// noisy host.
const TRAIN_STEPS: usize = 2 * train::LOSS_STEPS;
/// `query_hot` requests per connection of the batcher burst.
const BURST: u64 = 120;

/// Largest relative gap allowed between the summed layer times and the
/// untraced operation they make up.
pub const STAGE_SUM_TOLERANCE: f64 = 0.10;

/// Time of the layer calls below an operation against the operation's own
/// untraced time, one `(layers_us, op_us)` pair per replayed request.
pub struct StageSum {
    pub name: &'static str,
    pub pairs: Vec<(f64, f64)>,
}

impl StageSum {
    /// Median over requests of layers / operation: each pair ran on the
    /// same inputs back to back, so a scheduler hiccup moves one pair, not
    /// the verdict.
    pub fn ratio(&self) -> f64 {
        median(&self.pairs.iter().map(|(l, o)| l / o).collect::<Vec<_>>())
    }

    pub fn ok(&self) -> bool {
        (self.ratio() - 1.0).abs() <= STAGE_SUM_TOLERANCE
    }

    pub fn totals(&self) -> (f64, f64) {
        self.pairs.iter().fold((0.0, 0.0), |(l, o), p| (l + p.0, o + p.1))
    }
}

pub struct Replay {
    pub tracer: Tracer,
    /// `trainer.loss_final` of the replayed training steps.
    pub loss_final: f32,
    pub metrics: Vec<Metric>,
    pub sums: Vec<StageSum>,
    pub attempted: u64,
    pub failed: u64,
    /// Computed request + reply frame bytes of the replayed wire requests.
    wire_bytes: Vec<usize>,
}

impl Replay {
    fn fail(&mut self, what: String) {
        if self.failed == 0 {
            eprintln!("[perfbench] replay: {what}");
        }
        self.failed += 1;
    }
}

fn decode_span(n: usize) -> &'static str {
    match n {
        1 => "decoder.decode.q1",
        16 => "decoder.decode.q16",
        _ => "decoder.decode.q256",
    }
}

/// Computed decoder FLOPs per query point: each point blends the MLP
/// evaluated at its 8 bounding latent vertices (2 FLOPs per multiply-add).
pub fn decoder_flops_per_point(cfg: &MfnConfig) -> f64 {
    let w = cfg.mlp_widths();
    8.0 * w.windows(2).map(|p| 2.0 * (p[0] * p[1]) as f64).sum::<f64>()
}

/// Computed U-Net convolution FLOPs for one encoded patch (stride-1 same
/// convolutions: 2·cin·cout·k³ per output voxel; pooling, batch norm and
/// activations not counted).
pub fn unet_flops_per_encode(cfg: &MfnConfig) -> f64 {
    let conv =
        |cin: usize, cout: usize, k3: usize, vox: usize| 2.0 * (cin * cout * k3 * vox) as f64;
    let block = |cin: usize, cout: usize, vox: usize| {
        let skip = if cin != cout { conv(cin, cout, 1, vox) } else { 0.0 };
        conv(cin, cout, 1, vox) + conv(cout, cout, 27, vox) + conv(cout, cout, 1, vox) + skip
    };
    let c0 = cfg.base_channels;
    let mut vols = vec![cfg.patch.nt * cfg.patch.nz * cfg.patch.nx];
    let mut total = block(cfg.in_channels, c0, vols[0]);
    for (l, f) in cfg.pool_factors().iter().enumerate() {
        let vox = vols[l] / (f[0] * f[1] * f[2]);
        vols.push(vox);
        total += block(c0 << l, c0 << (l + 1), vox);
    }
    for l in (0..cfg.levels).rev() {
        total += block((c0 << (l + 1)) + (c0 << l), c0 << l, vols[l]);
    }
    total + conv(c0, cfg.latent_channels, 1, vols[0])
}

/// Pairs every `name` span with the summed durations of its children.
fn stage_sum(tracer: &Tracer, name: &'static str) -> StageSum {
    let pairs = tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.us() - tracer.self_us(s.id), s.us()))
        .collect();
    StageSum { name, pairs }
}

/// `Engine::query` plus its layer calls: the cache lookup and the decode
/// (with its query plan one layer further down). The two sides alternate
/// which runs first, so neither systematically finds warmer caches.
fn engine_query(
    r: &mut Replay,
    engine: &Engine,
    parent: Option<usize>,
    rid: u64,
    digest: u64,
    points: &[Query],
    engine_first: bool,
) -> usize {
    let model = engine.model();
    let grid = model.grid_dims();
    let eid = r.tracer.open("engine.query", parent, rid);
    let owned = points.to_vec();
    let call = |t: &mut Tracer| t.time_into(eid, || engine.query(digest, owned));
    let layers = |t: &mut Tracer| {
        let (latent, _) = t.time("cache.lookup", Some(eid), rid, || engine.cache().get(digest));
        let latent = latent.expect("replayed digest is cached");
        let (_, did) = t.time(decode_span(points.len()), Some(eid), rid, || {
            model.decode_values(&latent, points.iter().copied())
        });
        t.time("decoder.plan", Some(did), rid, || plan_queries(grid, points.iter().copied()));
    };
    let res = if engine_first {
        let res = call(&mut r.tracer);
        layers(&mut r.tracer);
        res
    } else {
        layers(&mut r.tracer);
        call(&mut r.tracer)
    };
    if let Err(e) = res {
        r.fail(format!("engine query: {e}"));
    }
    eid
}

/// Hot group: `Query` over the wire, then in-process. Returns the server
/// overhead per request: wire time minus the engine call on the same inputs.
fn hot(r: &mut Replay, stack: &Stack, engine: &Engine, client: &mut Client, seed: u64) -> Vec<f64> {
    let mut overhead = Vec::new();
    for idx in 0..HOT {
        let req = gen::request(Workload::QueryHot, seed, 0, idx, stack.dims);
        let Request::Hot { patch, points } = &req else { unreachable!() };
        let rid = request_id(0, idx);
        let digest = stack.digests[*patch];
        r.attempted += 1;
        r.wire_bytes.push(wire_bytes(&req, channels()));
        let (wire, wid) = r.tracer.time("request", None, rid, || client.query(digest, points));
        if let Err(e) = wire {
            r.fail(format!("hot request {idx}: {e}"));
        }
        let eid = engine_query(r, engine, Some(wid), rid, digest, points, idx % 2 == 0);
        overhead.push(r.tracer.spans[wid].us() - r.tracer.spans[eid].us());
    }
    overhead
}

fn channels() -> usize {
    model_config().out_channels
}

/// Batcher group: `CONNECTIONS` closed-loop clients send the seed's
/// `query_hot` requests concurrently, as the window does. The server's
/// `Stats` delta over the burst gives the decode calls those requests took
/// and the query points each call carried. Returns both.
fn batcher(r: &mut Replay, stack: &Stack, seed: u64) -> Result<(f64, f64), String> {
    let addr = stack.server.local_addr();
    let mut stats = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let mut shard = || stats.stats().map_err(|e| format!("stats: {e}")).map(|s| s[0].clone());
    let before = shard()?;
    let errors: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else { return BURST };
                    let failed = (0..BURST).filter(|&idx| {
                        let Request::Hot { patch, points } =
                            gen::request(Workload::QueryHot, seed, conn, idx, stack.dims)
                        else {
                            unreachable!()
                        };
                        client.query(stack.digests[patch], &points).is_err()
                    });
                    failed.count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst thread panicked")).sum()
    });
    let after = shard()?;
    r.attempted += CONNECTIONS as u64 * BURST;
    if errors > 0 {
        r.fail(format!("{errors} batcher burst requests failed"));
        r.failed += errors - 1;
    }
    let calls = (after.decode_calls - before.decode_calls) as f64;
    let queries = (after.batched_queries - before.batched_queries) as f64;
    Ok((calls, queries / calls.max(1.0)))
}

/// Cold group: `EncodeQuery` over the wire, then `Engine::encode_patch`
/// against its layers (digest, lookup, U-Net, insert) and `Engine::query`.
/// The layer calls use a scratch cache of the engine's capacity, so they
/// miss and evict exactly as the engine's cache does.
fn cold(r: &mut Replay, stack: &Stack, engine: &Engine, client: &mut Client, seed: u64) {
    let model = engine.model();
    let scratch = LatentCache::new(EngineConfig::default().cache_capacity);
    let d = stack.dims;
    let dims5 = [1, d[0], d[1], d[2], d[3]];
    for idx in 0..COLD {
        let req = gen::request(Workload::QueryCold, seed, 0, idx, d);
        let Request::Cold { data, points } = &req else { unreachable!() };
        let rid = request_id(0, idx);
        r.attempted += 1;
        r.wire_bytes.push(wire_bytes(&req, channels()));
        let (wire, wid) =
            r.tracer.time("request", None, rid, || client.encode_query(1, data, points));
        match wire {
            Ok(q) if q.cache_hit => r.fail(format!("cold request {idx} hit the cache")),
            Ok(_) => {}
            Err(e) => r.fail(format!("cold request {idx}: {e}")),
        }
        let eid = r.tracer.open("engine.encode_patch", Some(wid), rid);
        let owned = data.clone();
        let input = input_tensor(data, d);
        let call = |t: &mut Tracer| t.time_into(eid, || engine.encode_patch(1, owned));
        let layers = |t: &mut Tracer| {
            let ((digest, verify), _) = t.time("cache.digest", Some(eid), rid, || {
                (patch_digest(&dims5, data), patch_verify(&dims5, data))
            });
            t.time("cache.lookup", Some(eid), rid, || scratch.get_verified(digest, verify));
            let (latent, _) = t.time("unet.encode", Some(eid), rid, || model.encode(&input));
            t.time("cache.insert", Some(eid), rid, || {
                scratch.insert(digest, verify, Arc::new(latent))
            });
        };
        let encoded = if idx % 2 == 0 {
            let res = call(&mut r.tracer);
            layers(&mut r.tracer);
            res
        } else {
            layers(&mut r.tracer);
            call(&mut r.tracer)
        };
        match encoded {
            Ok((digest, false)) => {
                engine_query(r, engine, Some(wid), rid, digest, points, idx % 2 == 1);
            }
            Ok((_, true)) => r.fail(format!("cold request {idx} hit the replay cache")),
            Err(e) => r.fail(format!("cold encode {idx}: {e}")),
        }
    }
}

/// Refine group: `Engine::refine` against the lookup, `refine_latent` and
/// the decode of the refined latent. Over the wire too when the server has
/// refinement on: all wire requests go first, then an untimed warm-up call,
/// then the pairs. A pair timed right behind a wire request read up to 1.5x
/// slower on whichever side ran first, which alone moved the median of 12
/// pairs past the 10% stage-sum tolerance.
fn refine(
    r: &mut Replay,
    stack: &Stack,
    engine: &Engine,
    client: &mut Client,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let model = engine.model();
    let settings = RefineSettings::from_config(model.cfg());
    let budget = refine_budget();
    let requests: Vec<(u64, Vec<Query>)> = (0..REFINE)
        .map(|idx| {
            let Request::Refine { patch, points } =
                gen::request(Workload::Refine, seed, 0, idx, stack.dims)
            else {
                unreachable!()
            };
            (stack.digests[patch], points)
        })
        .collect();
    let mut parents = vec![None; requests.len()];
    if stack.engine.refine_enabled() {
        for (idx, (digest, points)) in requests.iter().enumerate() {
            let rid = request_id(0, idx as u64);
            let (wire, wid) =
                r.tracer.time("request", None, rid, || client.refine(*digest, points, budget));
            if let Err(e) = wire {
                r.fail(format!("refine request {idx}: {e}"));
            }
            parents[idx] = Some(wid);
        }
    }
    let (digest, points) = &requests[0];
    if let Err(e) = engine.refine(*digest, points.clone(), budget) {
        r.fail(format!("engine refine warm-up: {e}"));
    }
    let (mut step_ms, mut reduction) = (Vec::new(), Vec::new());
    let (mut run, mut accepted) = (0u64, 0u64);
    for (idx, (digest, points)) in requests.iter().enumerate() {
        let rid = request_id(0, idx as u64);
        let digest = *digest;
        r.attempted += 1;
        let eid = r.tracer.open("engine.refine", parents[idx], rid);
        let owned = points.clone();
        let call = |t: &mut Tracer| t.time_into(eid, || engine.refine(digest, owned, budget));
        let layers = |t: &mut Tracer| {
            let (latent, _) = t.time("cache.lookup", Some(eid), rid, || engine.cache().get(digest));
            let latent = latent.expect("replayed digest is cached");
            let ((refined, report), rfid) = t.time("refine.refine_latent", Some(eid), rid, || {
                model.refine_latent(&latent, points, &settings, &budget)
            });
            t.time(decode_span(points.len()), Some(eid), rid, || {
                model.decode_values(&refined, points.iter().copied())
            });
            (report, t.spans[rfid].us())
        };
        let (res, (report, refine_us)) = if idx % 2 == 0 {
            let res = call(&mut r.tracer);
            (res, layers(&mut r.tracer))
        } else {
            let l = layers(&mut r.tracer);
            (call(&mut r.tracer), l)
        };
        if let Err(e) = res {
            r.fail(format!("engine refine {idx}: {e}"));
        }
        step_ms.push(refine_us / 1e3 / report.steps_run.max(1) as f64);
        reduction.push(report.initial_residual as f64 / report.final_residual as f64);
        run += report.steps_run as u64;
        accepted += report.steps_accepted as u64;
    }
    (step_ms, reduction, accepted as f64 / run.max(1) as f64)
}

/// Train group: two trainers from the same pinned init step on the same
/// seeded batches. One runs untraced (the operation); the other runs with
/// spans around `make_batch` and `Trainer::step` and a memory recorder that
/// collects the trainer's own forward/backward/optimizer timings.
fn training(r: &mut Replay, corpus: &Corpus, seed: u64) -> f32 {
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, crate::serving::model_config().patch);
    let (recorder, sink) = Recorder::memory(4 * TRAIN_STEPS);
    let mut plain = train::new_trainer();
    let mut traced = train::new_trainer().with_recorder(recorder);
    let (mut rng_plain, mut rng_traced) = (train::batch_rng(seed), train::batch_rng(seed));
    let mut op_us = Vec::new();
    let mut losses = Vec::new();
    for i in 0..TRAIN_STEPS {
        r.attempted += 1;
        let mut untraced = |op_us: &mut Vec<f64>| {
            let t = Instant::now();
            let loss = train::step(&mut plain, &sampler, corpus, &mut rng_plain, i, None);
            op_us.push(t.elapsed().as_secs_f64() * 1e6);
            loss
        };
        let (a, b) = if i % 2 == 0 {
            let a = untraced(&mut op_us);
            (
                a,
                train::step(
                    &mut traced,
                    &sampler,
                    corpus,
                    &mut rng_traced,
                    i,
                    Some((&mut r.tracer, i as u64)),
                ),
            )
        } else {
            let b = train::step(
                &mut traced,
                &sampler,
                corpus,
                &mut rng_traced,
                i,
                Some((&mut r.tracer, i as u64)),
            );
            (untraced(&mut op_us), b)
        };
        if a.to_bits() != b.to_bits() || !a.is_finite() {
            r.fail(format!("train step {i}: loss {a} untraced vs {b} traced"));
        }
        losses.push(a);
    }
    let steps = sink.train_steps();
    let ms = |f: fn(&mfn_telemetry::StepMetrics) -> f64| {
        median(&steps.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>())
    };
    let m = &mut r.metrics;
    put(m, "data.make_batch_ms", median(&r.tracer.durations("data.make_batch")) / 1e3, "ms");
    put(m, "trainer.step_ms", median(&r.tracer.durations("trainer.step")) / 1e3, "ms");
    put(m, "trainer.forward_ms", ms(|s| s.forward_s), "ms");
    put(m, "trainer.backward_ms", ms(|s| s.backward_s), "ms");
    put(m, "trainer.optimizer_ms", ms(|s| s.optimizer_s), "ms");
    // Batch assembly plus Trainer::step's own phase timings, against the
    // untraced trainer's make_batch + step on the same batch.
    let pairs = r
        .tracer
        .durations("data.make_batch")
        .iter()
        .zip(&steps)
        .zip(op_us)
        .map(|((data, s), op)| (data + (s.forward_s + s.backward_s + s.optimizer_s) * 1e6, op))
        .collect();
    r.sums.push(StageSum { name: "train.step", pairs });
    train::loss_final(&losses)
}

/// Runs every layer group and returns the per-layer metrics.
pub fn run(
    stack: &Stack,
    corpus: &Corpus,
    seed: u64,
    dir: &std::path::Path,
) -> Result<Replay, String> {
    let model: FrozenModel = load_model(dir)?;
    let cfg = model.cfg().clone();
    // A private engine with refinement on, built from the same checkpoint
    // with the server's defaults: its calls are the untraced operations the
    // layer calls must add up to.
    let settings = RefineSettings::from_config(&cfg);
    let engine = Engine::new(model, EngineConfig { refine: Some(settings), ..Default::default() });
    for d in &stack.hot_data {
        engine.encode_patch(1, d.clone()).map_err(|e| format!("replay encode: {e}"))?;
    }
    let mut client =
        Client::connect(stack.server.local_addr()).map_err(|e| format!("replay connect: {e}"))?;
    // A `query_cold` window evicts the hot patches from the server's LRU;
    // re-encoding them is the client's standard recovery.
    for d in &stack.hot_data {
        client.encode(1, d).map_err(|e| format!("replay re-encode: {e}"))?;
    }
    let mut r = Replay {
        tracer: Tracer::new(Instant::now()),
        loss_final: f32::NAN,
        metrics: Vec::new(),
        sums: Vec::new(),
        attempted: 0,
        failed: 0,
        wire_bytes: Vec::new(),
    };
    let overhead = hot(&mut r, stack, &engine, &mut client, seed);
    // Before the cold group, whose new patches may evict the hot ones.
    let (decode_calls, queries_per_decode) = batcher(&mut r, stack, seed)?;
    cold(&mut r, stack, &engine, &mut client, seed);
    let (step_ms, reduction, accept) = refine(&mut r, stack, &engine, &mut client, seed);
    r.loss_final = training(&mut r, corpus, seed);

    let t = &r.tracer;
    let p50 = |name: &str| median(&t.durations(name));
    let dec_flops = decoder_flops_per_point(&cfg);
    let unet_flops = unet_flops_per_encode(&cfg);
    let mut m = Vec::new();
    put(&mut m, "server.overhead_us_p50", median(&overhead), "us");
    put(&mut m, "batcher.decode_calls", decode_calls, "count");
    put(&mut m, "batcher.queries_per_decode", queries_per_decode, "count");
    put(&mut m, "cache.digest_us_p50", p50("cache.digest"), "us");
    put(&mut m, "cache.insert_us_p50", p50("cache.insert"), "us");
    put(&mut m, "cache.lookup_us_p50", p50("cache.lookup"), "us");
    put(&mut m, "engine.query_us_p50", p50("engine.query"), "us");
    put(&mut m, "engine.encode_patch_us_p50", p50("engine.encode_patch"), "us");
    put(&mut m, "engine.refine_us_p50", p50("engine.refine"), "us");
    put(&mut m, "unet.encode_us_p50", p50("unet.encode"), "us");
    put(&mut m, "unet.encode_gflops", unet_flops / p50("unet.encode") / 1e3, "GFLOP/s");
    put(&mut m, "unet.flops_per_encode", unet_flops, "count");
    put(&mut m, "decoder.plan_us_p50", p50("decoder.plan"), "us");
    put(&mut m, "decoder.decode_us.q1", p50("decoder.decode.q1"), "us");
    put(&mut m, "decoder.decode_us.q16", p50("decoder.decode.q16"), "us");
    put(&mut m, "decoder.decode_us.q256", p50("decoder.decode.q256"), "us");
    put(
        &mut m,
        "decoder.gflops.q256",
        256.0 * dec_flops / p50("decoder.decode.q256") / 1e3,
        "GFLOP/s",
    );
    put(&mut m, "decoder.flops_per_point", dec_flops, "count");
    put(&mut m, "refine.step_ms", median(&step_ms), "ms");
    put(&mut m, "refine.accept_ratio", accept, "ratio");
    put(&mut m, "refine.reduction", median(&reduction), "ratio");
    put(&mut m, "trainer.loss_final", r.loss_final.into(), "loss");
    let bytes = r.wire_bytes.iter().sum::<usize>() as f64;
    put(&mut m, "wire.bytes_per_request", bytes / r.wire_bytes.len() as f64, "bytes");
    m.append(&mut r.metrics);
    r.metrics = m;
    for name in ["engine.query", "engine.encode_patch", "engine.refine"] {
        let s = stage_sum(&r.tracer, name);
        r.sums.push(s);
    }
    Ok(r)
}
