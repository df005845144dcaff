//! Serving set-up, the closed-loop client window, and the post-window check
//! that every reply is bit-identical to the in-process model.

use crate::gen::{self, Request, HOT_PATCHES, REFINE_STEPS};
use crate::report::fingerprint;
use crate::trace::{Span, Tracer};
use crate::Workload;
use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig, RefineBudget, RefineSettings, Trainer};
use mfn_data::PatchSpec;
use mfn_serve::protocol::HEADER_LEN;
use mfn_serve::{patch_digest, Client, Engine, EngineConfig, Server, ServerConfig};
use mfn_telemetry::Recorder;
use mfn_tensor::Tensor;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Closed-loop client connections, one per core of a two-core machine.
pub const CONNECTIONS: usize = 2;

/// The architecture the `train` binary builds for a `[4, 4, 8]` LR patch,
/// initialized from `MfnConfig::small()`'s pinned seed.
pub fn model_config() -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 256 };
    cfg
}

/// `[C, nt, nz, nx]` of one encode input.
pub fn patch_dims(cfg: &MfnConfig) -> [usize; 4] {
    [cfg.in_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx]
}

pub fn refine_budget() -> RefineBudget {
    RefineBudget::steps(REFINE_STEPS)
}

/// Writes the pinned-seed model as an `MFNSTAT1` train-state checkpoint
/// plus its JSON sidecar, and loads it back the way `serve` does.
pub fn load_model(dir: &Path) -> Result<FrozenModel, String> {
    let cfg = model_config();
    let pid = std::process::id();
    let state = dir.join(format!("model-{pid}.ckpt.state"));
    let sidecar = dir.join(format!("model-{pid}.ckpt.cfg.json"));
    Trainer::new(MeshfreeFlowNet::new(cfg.clone()), crate::train::train_config())
        .save_checkpoint(&state)
        .map_err(|e| format!("write checkpoint: {e}"))?;
    cfg.save_json(&sidecar).map_err(|e| format!("write config sidecar: {e}"))?;
    let loaded = MfnConfig::load_json(&sidecar).map_err(|e| format!("load config: {e}"));
    let model = loaded.and_then(|cfg| {
        FrozenModel::load_state(cfg, &state).map_err(|e| format!("load checkpoint: {e}"))
    });
    for p in [&state, &sidecar] {
        let _ = std::fs::remove_file(p);
    }
    model
}

/// A running in-process server with the hot patches encoded.
pub struct Stack {
    pub server: Server,
    pub engine: Arc<Engine>,
    pub hot_data: Vec<Vec<f32>>,
    pub digests: Vec<u64>,
    pub dims: [usize; 4],
}

impl Stack {
    /// Loads the model, starts a server with the shipped defaults
    /// (refinement on only for the `refine` workload, as `serve --refine`)
    /// and encodes the hot patches over the wire.
    pub fn start(seed: u64, refine: bool, dir: &Path) -> Result<Stack, String> {
        let model = load_model(dir)?;
        let dims = patch_dims(model.cfg());
        let settings = refine.then(|| RefineSettings::from_config(model.cfg()));
        let engine =
            Arc::new(Engine::new(model, EngineConfig { refine: settings, ..Default::default() }));
        let server = Server::start(engine.clone(), ServerConfig::default(), Recorder::null())
            .map_err(|e| format!("start server: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let hot_data: Vec<Vec<f32>> =
            (0..HOT_PATCHES).map(|k| gen::hot_patch(seed, k, dims)).collect();
        let digests = hot_data
            .iter()
            .map(|d| client.encode(1, d).map(|(digest, _)| digest))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("encode hot patch: {e}"))?;
        Ok(Stack { server, engine, hot_data, digests, dims })
    }

    /// In-process latents of the hot patches.
    pub fn hot_latents(&self) -> Vec<Tensor> {
        let model = self.engine.model();
        self.hot_data.iter().map(|d| model.encode(&input_tensor(d, self.dims))).collect()
    }
}

pub fn input_tensor(data: &[f32], dims: [usize; 4]) -> Tensor {
    Tensor::from_vec(data.to_vec(), &[1, dims[0], dims[1], dims[2], dims[3]])
}

/// One request of a closed-loop window (or one step of the train loop),
/// packed small so bookkeeping barely moves `peak_rss_mb`.
#[derive(Clone, Copy)]
pub struct Record {
    pub idx: u32,
    pub conn: u8,
    /// Whether tracing was on for this request (traced runs alternate).
    pub traced: bool,
    /// Whether a reply came back (errors are reported on stderr).
    pub ok: bool,
    /// The reply's cache-hit flag.
    pub hit: bool,
    pub points: u32,
    /// Send time relative to the start of the timed window (negative
    /// during warm-up).
    pub start_s: f32,
    pub latency_s: f32,
    /// Reply fingerprint (loss bits for a training step).
    pub fingerprint: u64,
}

/// Bytes of request and response frames, computed from the wire format.
pub fn wire_bytes(req: &Request, channels: usize) -> usize {
    let n = req.points().len();
    let (body, resp) = match req {
        Request::Hot { .. } => (8 + 4 + 16 * n, 17 + 4 * channels * n),
        Request::Cold { data, .. } => (4 + 4 * data.len() + 4 + 16 * n, 17 + 4 * channels * n),
        Request::Refine { .. } => (28 + 16 * n, 32 + 4 * channels * n),
    };
    2 * HEADER_LEN + body + resp
}

fn send(client: &mut Client, stack: &Stack, req: &Request) -> Result<(u64, bool), String> {
    match req {
        Request::Hot { patch, points } => {
            let r = client.query(stack.digests[*patch], points).map_err(|e| e.to_string())?;
            Ok((fingerprint(&r.values, &[r.digest]), r.cache_hit))
        }
        Request::Cold { data, points } => {
            let r = client.encode_query(1, data, points).map_err(|e| e.to_string())?;
            Ok((fingerprint(&r.values, &[r.digest]), r.cache_hit))
        }
        Request::Refine { patch, points } => {
            let r = client
                .refine(stack.digests[*patch], points, refine_budget())
                .map_err(|e| e.to_string())?;
            let extra = [
                r.digest,
                r.steps_run as u64,
                r.steps_accepted as u64,
                r.initial_residual.to_bits() as u64,
                r.final_residual.to_bits() as u64,
            ];
            Ok((fingerprint(&r.values, &extra), true))
        }
    }
}

/// Length of one tracing on/off slice in traced runs.
pub const SLICE_S: f64 = 0.25;

/// Length of one probe period of the timed window: the closed-loop clients
/// run, then pause for the last `PROBE_SHARE` of it while the probe runs.
pub const PROBE_PERIOD_S: f64 = 1.0;
/// Share of each probe period that belongs to the probe.
pub const PROBE_SHARE: f64 = 0.2;

/// Connection index of the latency probe's requests, after the window's.
pub const PROBE_CONN: usize = CONNECTIONS;

/// One window's requests: the closed-loop clients' and the probe's.
pub struct Window {
    pub records: Vec<Record>,
    pub probe: Vec<Record>,
    pub spans: Vec<Span>,
}

/// What every caller of one window shares.
struct Caller<'a> {
    stack: &'a Stack,
    w: Workload,
    seed: u64,
}

impl Caller<'_> {
    /// Sends request `idx` of connection `conn` and waits for the reply; on
    /// a transport error, reconnects for the next request.
    fn call(
        &self,
        conn: usize,
        client: &mut Client,
        idx: u64,
        start_s: f64,
        tracer: Option<&mut Tracer>,
    ) -> Record {
        let req = gen::request(self.w, self.seed, conn, idx, self.stack.dims);
        let traced = tracer.is_some();
        let span = tracer.map(|t| (t.open("request", None, request_id(conn, idx)), t));
        let start = Instant::now();
        let reply = send(client, self.stack, &req);
        let latency_s = start.elapsed().as_secs_f32();
        if let Some((id, t)) = span {
            t.close(id);
        }
        if let Err(e) = &reply {
            eprintln!("[perfbench] connection {conn} request {idx}: {e}");
            if let Ok(c) = Client::connect(self.stack.server.local_addr()) {
                *client = c;
            }
        }
        let (fingerprint, hit) = *reply.as_ref().unwrap_or(&(0, false));
        Record {
            idx: idx as u32,
            conn: conn as u8,
            traced,
            ok: reply.is_ok(),
            hit,
            points: req.points().len() as u32,
            start_s: start_s as f32,
            latency_s,
            fingerprint,
        }
    }
}

/// Runs `CONNECTIONS` closed-loop clients for `warmup + seconds`; each waits
/// for its reply before sending the next request. With `slices`, tracing is
/// switched on in every other `SLICE_S` slice so traced and untraced
/// latencies come from the same interval.
///
/// The last `PROBE_SHARE` of every `PROBE_PERIOD_S` of the timed window
/// belongs to a latency probe: the closed-loop clients finish their
/// requests in flight and wait, and one more connection sends the
/// workload's requests one at a time. Spreading the probe over the window
/// keeps a burst of host noise from owning it.
pub fn closed_loop(
    stack: &Stack,
    w: Workload,
    seed: u64,
    warmup: f64,
    seconds: f64,
    slices: bool,
) -> Result<Window, String> {
    let mut clients = (0..=CONNECTIONS)
        .map(|_| Client::connect(stack.server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut probe_client = clients.pop().expect("probe connection");
    let caller = &Caller { stack, w, seed };
    // Clients hold it shared per request; the probe holds it exclusively
    // for its phase (writers are preferred, so no new request starts).
    let gate = &RwLock::new(());
    let t0 = Instant::now();
    let elapsed = move || t0.elapsed().as_secs_f64() - warmup;
    std::thread::scope(|s| {
        let probe = s.spawn(move || {
            let mut records = Vec::new();
            for period in 0.. {
                let phase = (period as f64 + 1.0 - PROBE_SHARE) * PROBE_PERIOD_S;
                if phase >= seconds {
                    break;
                }
                std::thread::sleep(Duration::from_secs_f64((phase - elapsed()).max(0.0)));
                let _exclusive = gate.write().unwrap_or_else(|e| e.into_inner());
                let end = elapsed() + PROBE_SHARE * PROBE_PERIOD_S;
                while elapsed() < end {
                    let idx = records.len() as u64;
                    let r = caller.call(PROBE_CONN, &mut probe_client, idx, elapsed(), None);
                    records.push(r);
                }
            }
            records
        });
        let loops: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut tracer = Tracer::new(t0);
                    for idx in 0.. {
                        let _shared = gate.read().unwrap_or_else(|e| e.into_inner());
                        let start_s = elapsed();
                        if start_s >= seconds {
                            break;
                        }
                        let traced = slices && (start_s / SLICE_S).floor() as i64 % 2 != 0;
                        let t = traced.then_some(&mut tracer);
                        records.push(caller.call(conn, &mut client, idx, start_s, t));
                    }
                    (records, tracer.spans)
                })
            })
            .collect();
        let mut win = Window { records: Vec::new(), probe: Vec::new(), spans: Vec::new() };
        for h in loops {
            let (records, spans) = h.join().expect("client thread panicked");
            win.records.extend(records);
            let offset = win.spans.len();
            win.spans.extend(spans.into_iter().map(|sp| Span { id: sp.id + offset, ..sp }));
        }
        win.probe = probe.join().expect("probe thread panicked");
        Ok(win)
    })
}

/// Request id shared by every span of one request.
pub fn request_id(conn: usize, idx: u64) -> u64 {
    ((conn as u64) << 48) | idx
}

/// The reply the in-process model gives `req`: fingerprint and cache-hit
/// flag, computed with the same public calls the engine makes.
pub fn expected(
    model: &FrozenModel,
    latents: &[Tensor],
    digests: &[u64],
    dims: [usize; 4],
    req: &Request,
) -> (u64, bool) {
    match req {
        Request::Hot { patch, points } => {
            let v = model.decode_values(&latents[*patch], points.iter().copied());
            (fingerprint(v.data(), &[digests[*patch]]), true)
        }
        Request::Cold { data, points } => {
            let latent = model.encode(&input_tensor(data, dims));
            let v = model.decode_values(&latent, points.iter().copied());
            let digest = patch_digest(&[1, dims[0], dims[1], dims[2], dims[3]], data);
            (fingerprint(v.data(), &[digest]), false)
        }
        Request::Refine { patch, points } => {
            let settings = RefineSettings::from_config(model.cfg());
            let (refined, rep) =
                model.refine_latent(&latents[*patch], points, &settings, &refine_budget());
            let v = model.decode_values(&refined, points.iter().copied());
            let extra = [
                digests[*patch],
                rep.steps_run as u64,
                rep.steps_accepted as u64,
                rep.initial_residual.to_bits() as u64,
                rep.final_residual.to_bits() as u64,
            ];
            (fingerprint(v.data(), &extra), true)
        }
    }
}

/// Checks every successful reply against the in-process model on two
/// threads; returns the number of replies that differ in any bit (or in
/// the cache-hit flag).
pub fn verify(stack: &Stack, w: Workload, seed: u64, records: &[Record]) -> u64 {
    let model = stack.engine.model();
    let latents = stack.hot_latents();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|part| {
                let latents = &latents;
                s.spawn(move || {
                    let mut bad = 0u64;
                    for r in records.iter().skip(part).step_by(CONNECTIONS) {
                        if !r.ok {
                            continue;
                        }
                        let req = gen::request(w, seed, r.conn.into(), r.idx.into(), stack.dims);
                        let want = expected(model, latents, &stack.digests, stack.dims, &req);
                        if (r.fingerprint, r.hit) != want {
                            if bad == 0 {
                                eprintln!(
                                    "[perfbench] reply mismatch: connection {} request {}",
                                    r.conn, r.idx
                                );
                            }
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("verify thread panicked")).sum()
    })
}
