//! `serve_impute`: Table 4 imputation served to several tenants.
//!
//! Tenants with unequal weights submit batches of LLM-only, three-shot
//! imputation tasks (restaurant cities and product manufacturers) to a
//! `Server` in an open loop at a fixed arrival rate. The server sits over
//! one latency-profiled backend and a `ResponseStore` that already holds
//! the answers to a share of the tasks when it is opened; another share of
//! the submitted tasks repeats a task that another tenant submitted
//! earlier. Every submit is timed from its due time, so a generator that
//! falls behind shows as latency.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crowdprompt_core::ops::impute::LabeledPool;
use crowdprompt_core::{extract, template, Budget, Corpus, Engine, Session, TenantSpec};
use crowdprompt_data::products::{buy, restaurants, ProductDataset};
use crowdprompt_oracle::model::NoiseProfile;
use crowdprompt_oracle::route::RoutePolicy;
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{
    BackendRegistry, CompletionRequest, CompletionResponse, LanguageModel, LatencyProfile,
    LlmClient, ModelProfile, ResponseStore, SimBackend, SimulatedLlm, StoreConfig, TaskDescriptor,
};

use crate::measure::{median, process_cpu_s};
use crate::trace::{self, Probes, SpanTimer, POISONED};
use crate::{backend_seed, common_layers, ratio, same_usd, set_up, Round, Workload, OUT_DIR};

/// Records per dataset (restaurants and buy): 800 distinct tasks.
pub const RECORDS: usize = 400;
/// Few-shot examples per task (Table 4's "3 examples" rows).
const SHOTS: usize = 3;
/// Tasks per submit.
pub const BATCH: usize = 8;
/// Submits per round: 1024 task slots, of which 800 hold distinct tasks
/// and 224 (21.9%) repeat a task another tenant submitted earlier.
pub const SUBMITS: usize = 128;
/// Share of the distinct tasks whose answers the store holds at open.
pub const PREFILL_SHARE: f64 = 0.30;
/// Open-loop arrival rate.
pub const SUBMITS_PER_S: f64 = 100.0;
/// Tenants and their fair-share weights. Each submits in proportion to
/// its weight: of every eight submits, `heavy` makes four, `mid` two.
pub const TENANTS: [(&str, f64); 4] = [
    ("small-a", 1.0),
    ("small-b", 1.0),
    ("mid", 2.0),
    ("heavy", 4.0),
];
const TENANT_PATTERN: [usize; 8] = [3, 2, 3, 0, 3, 2, 3, 1];
/// Wall time per server generation: the tick that refills rate limits
/// and expires leases.
const GENERATION: Duration = Duration::from_millis(10);
/// The served backend: 2 ms calls, ±50% jitter, a 2% straggler tail at 6×.
pub const LATENCY: LatencyProfile = LatencyProfile {
    base_us: 2_000,
    jitter: 0.5,
    tail_prob: 0.02,
    tail_mult: 6.0,
};
/// Table 4, LLM-only with three examples: 89.53% on Restaurants and
/// 92.31% on Buy. Each dataset must come within five points of it.
const PAPER_ACCURACY: [(&str, f64); 2] = [("restaurants", 0.8953), ("buy", 0.9231)];
const ACCURACY_TOLERANCE: f64 = 0.05;
/// Every this many prefilled tasks, one store-served answer is compared
/// with the simulator's answer to the same request.
const STORE_SAMPLE_EVERY: usize = 8;

/// The model of `table4`: a Claude-like profile tuned for imputation.
fn model() -> ModelProfile {
    ModelProfile::claude2_like().with_noise(NoiseProfile {
        impute_base_acc: 0.86,
        impute_shot_bonus: 0.03,
        impute_max_acc: 0.95,
        impute_format_variant_rate: 0.55,
        ..ModelProfile::claude2_like().noise
    })
}

pub struct ServeImpute {
    seed: u64,
    world: Arc<WorldModel>,
    items: Vec<ItemId>,
    /// Distinct tasks, their gold answers and their dataset (0 or 1).
    tasks: Vec<TaskDescriptor>,
    gold: Vec<String>,
    dataset: Vec<usize>,
    /// Per submit: the tenant index and the task indices it carries.
    submits: Vec<(usize, Vec<usize>)>,
    /// Tasks whose answers the prefilled store holds.
    prefilled: Vec<usize>,
    scratch: PathBuf,
    threads: usize,
}

impl ServeImpute {
    pub fn generate(seed: u64) -> Result<Self, String> {
        let datasets = [
            restaurants(RECORDS, seed),
            buy(RECORDS, seed.wrapping_add(1)),
        ];
        let (world, ids) = merge(&datasets);
        let world = Arc::new(world);
        let items: Vec<ItemId> = ids.iter().flatten().copied().collect();

        // Few-shot examples: each record's nearest labelled neighbours in
        // its own dataset, leave-one-out, as the LLM-only strategy picks.
        let engine = Engine::new(
            Arc::new(LlmClient::new(Arc::new(SimulatedLlm::new(
                model(),
                Arc::clone(&world),
                seed,
            )))),
            Corpus::from_world(&world, &items),
        );
        let (mut tasks, mut gold, mut dataset) = (Vec::new(), Vec::new(), Vec::new());
        for (d, (data, ids)) in datasets.iter().zip(&ids).enumerate() {
            let labeled: Vec<(ItemId, String)> = data
                .records
                .iter()
                .zip(ids)
                .map(|(old, new)| (*new, data.gold_value(*old).to_owned()))
                .collect();
            let pool = LabeledPool::build(&engine, &labeled).map_err(|e| e.to_string())?;
            for (id, value) in &labeled {
                let examples = pool
                    .neighbors(&engine, *id, SHOTS)
                    .into_iter()
                    .filter_map(|n| pool.label(n).map(|l| (n, l.to_owned())))
                    .collect();
                tasks.push(TaskDescriptor::Impute {
                    item: *id,
                    attribute: data.target.clone(),
                    examples,
                });
                gold.push(value.clone());
                dataset.push(d);
            }
        }

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0F5E_2F1C_E000);
        let submits = schedule(tasks.len(), &mut rng)?;
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.shuffle(&mut rng);
        let mut prefilled = order[..(tasks.len() as f64 * PREFILL_SHARE).round() as usize].to_vec();
        prefilled.sort_unstable();

        let scratch = PathBuf::from(OUT_DIR).join(format!("serve_impute-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let workload = ServeImpute {
            seed,
            world,
            items,
            tasks,
            gold,
            dataset,
            submits,
            prefilled,
            scratch,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        };
        workload.prefill(&engine)?;
        Ok(workload)
    }

    fn prefill_path(&self) -> PathBuf {
        self.scratch.join("prefill.store")
    }

    /// Write the answers to the prefilled tasks into a store, through a
    /// client over the same simulator the served backend wraps.
    fn prefill(&self, engine: &Engine) -> Result<(), String> {
        let store = ResponseStore::open(self.prefill_path(), StoreConfig::default())
            .map_err(|e| format!("prefill store: {e}"))?;
        let client = LlmClient::new(Arc::new(SimulatedLlm::new(
            model(),
            Arc::clone(&self.world),
            self.seed,
        )))
        .with_store(Arc::new(store));
        let filler = Engine::new(Arc::new(client), engine.corpus().clone());
        let tasks = self
            .prefilled
            .iter()
            .map(|&t| self.tasks[t].clone())
            .collect();
        filler
            .run_many(tasks)
            .map_err(|e| format!("prefill: {e}"))?;
        Ok(())
    }

    /// What the simulator answers, called directly, for `task`.
    fn direct_answer(&self, engine: &Engine, task: &TaskDescriptor) -> Result<String, String> {
        let prompt = template::render(task, engine.corpus(), engine.render_opts())
            .map_err(|e| e.to_string())?;
        let request = CompletionRequest::new(prompt, task.clone());
        SimulatedLlm::new(model(), Arc::clone(&self.world), self.seed)
            .complete(&request)
            .map(|r| r.text)
            .map_err(|e| e.to_string())
    }
}

impl Drop for ServeImpute {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.scratch).ok();
    }
}

/// Copy both datasets into one world (one server, one corpus), keeping
/// each record's text and target attribute. Returns the new ids per
/// dataset, in record order.
fn merge(datasets: &[ProductDataset]) -> (WorldModel, Vec<Vec<ItemId>>) {
    let mut world = WorldModel::new();
    let ids = datasets
        .iter()
        .map(|data| {
            data.records
                .iter()
                .map(|old| {
                    let new = world.add_item(data.text(*old));
                    world.set_attr(new, data.target.clone(), data.gold_value(*old));
                    new
                })
                .collect()
        })
        .collect();
    (world, ids)
}

/// Lay out the submits: distinct tasks in shuffled order fill the slots
/// that are not repeats; each repeat slot carries a task first submitted
/// by another tenant in an earlier submit.
fn schedule(distinct: usize, rng: &mut ChaCha8Rng) -> Result<Vec<(usize, Vec<usize>)>, String> {
    let slots = SUBMITS * BATCH;
    let repeats = slots - distinct;
    let tenant_of = |submit: usize| TENANT_PATTERN[submit % TENANT_PATTERN.len()];
    // Repeat slots, never in the first eight submits.
    let mut candidates: Vec<usize> = (BATCH * 8..slots).collect();
    candidates.shuffle(rng);
    let mut is_repeat = vec![false; slots];
    for &s in &candidates[..repeats] {
        is_repeat[s] = true;
    }
    let mut order: Vec<usize> = (0..distinct).collect();
    order.shuffle(rng);
    let mut next = order.into_iter();
    let mut slot_task = vec![usize::MAX; slots];
    let mut first_submit = vec![usize::MAX; distinct];
    for s in 0..slots {
        if !is_repeat[s] {
            let t = next.next().ok_or("schedule: ran out of distinct tasks")?;
            slot_task[s] = t;
            first_submit[t] = s / BATCH;
        }
    }
    for s in 0..slots {
        if !is_repeat[s] {
            continue;
        }
        let submit = s / BATCH;
        let batch = &slot_task[submit * BATCH..s];
        let eligible = |t: usize| {
            first_submit[t] < submit
                && tenant_of(first_submit[t]) != tenant_of(submit)
                && !batch.contains(&t)
        };
        let pick = (0..64)
            .map(|_| rng.random_range(0..distinct))
            .find(|&t| eligible(t))
            .or_else(|| (0..distinct).find(|&t| eligible(t)))
            .ok_or("schedule: no task to repeat")?;
        slot_task[s] = pick;
    }
    Ok(slot_task
        .chunks(BATCH)
        .enumerate()
        .map(|(i, c)| (tenant_of(i), c.to_vec()))
        .collect())
}

/// What one submit returned (`Err` when it was not admitted), and when.
struct Outcome {
    results: Result<Vec<Result<CompletionResponse, String>>, String>,
    done: Option<Instant>,
}

impl Workload for ServeImpute {
    fn requests_per_round(&self) -> usize {
        SUBMITS
    }

    fn round(&self, index: u64, probes: Option<&Probes>) -> Result<Round, String> {
        let tracer = probes.map(|p| p.tracer);
        let round_span = SpanTimer::start(tracer, "round", None, None);
        let parent = round_span.id();

        // A fresh copy of the prefilled store, so every round opens the
        // same state. Copying is input preparation, not set-up.
        let path = self.scratch.join("round.store");
        std::fs::copy(self.prefill_path(), &path).map_err(|e| format!("copy store: {e}"))?;
        let bytes_before = std::fs::metadata(&path).map_or(0, |m| m.len());

        let mut open_ms = Vec::new();
        let ((store, client, server), setup_s) = set_up(|| {
            let span = SpanTimer::start(tracer, "ResponseStore::open", parent, None);
            let store = ResponseStore::open(&path, StoreConfig::default())
                .map_err(|e| format!("open store: {e}"))?;
            open_ms.push(span.end() * 1e3);
            let store = Arc::new(store);
            let llm: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
                model(),
                Arc::clone(&self.world),
                self.seed,
            ));
            let backend = SimBackend::new("served", trace::model(llm, probes))
                .with_latency(LATENCY)
                .with_seed(backend_seed(self.seed, index, 0));
            let registry = BackendRegistry::new(vec![trace::backend(Arc::new(backend), probes)])
                .map_err(|e| e.to_string())?;
            let client = Arc::new(
                LlmClient::routed(registry, RoutePolicy::default()).with_store(Arc::clone(&store)),
            );
            let session = Session::builder()
                .client(Arc::clone(&client))
                .corpus(Corpus::from_world(&self.world, &self.items))
                .budget(Budget::Unlimited)
                .seed(self.seed)
                .build();
            // Rate limits: a burst of 16 submits, refilled at twice each
            // tenant's offered load per generation.
            let per_generation = SUBMITS_PER_S * BATCH as f64 * GENERATION.as_secs_f64();
            let weight_sum: f64 = TENANTS.iter().map(|(_, w)| w).sum();
            let mut builder = session.serve().lease_ttl(64);
            for (name, weight) in TENANTS {
                builder =
                    builder.tenant(TenantSpec::new(name).with_weight(weight).with_rate_limit(
                        16.0 * BATCH as f64,
                        2.0 * per_generation * weight / weight_sum,
                    ));
            }
            let server = builder.try_build().map_err(|e| e.to_string())?;
            Ok((store, client, server))
        })?;
        let records = store.len();

        // The open loop: submit i is due at start + i / rate; up to
        // `threads` generators take the next due submit.
        let outcomes: Vec<Mutex<Outcome>> = (0..SUBMITS)
            .map(|_| {
                Mutex::new(Outcome {
                    results: Err("never submitted".into()),
                    done: None,
                })
            })
            .collect();
        let lag_ms = Mutex::new(Vec::with_capacity(SUBMITS));
        let latencies = Mutex::new(Vec::with_capacity(SUBMITS));
        let next = AtomicUsize::new(0);
        let tick = Mutex::new(());
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= SUBMITS {
                        return;
                    }
                    let due = start + Duration::from_secs_f64(i as f64 / SUBMITS_PER_S);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let began = Instant::now();
                    lag_ms
                        .lock()
                        .expect(POISONED)
                        .push(began.saturating_duration_since(due).as_secs_f64() * 1e3);
                    {
                        let _guard = tick.lock().expect(POISONED);
                        let target =
                            (began - start).as_millis() as u64 / GENERATION.as_millis() as u64;
                        let current = server.generation();
                        if target > current {
                            server.advance_generation(target - current);
                        }
                    }
                    let (tenant, batch) = &self.submits[i];
                    let tasks = batch.iter().map(|&t| self.tasks[t].clone()).collect();
                    let span = SpanTimer::start(tracer, "Server::submit", parent, Some(i as u64));
                    let result = server.submit(TENANTS[*tenant].0, tasks);
                    span.end();
                    let done = Instant::now();
                    latencies
                        .lock()
                        .expect(POISONED)
                        .push((done - due).as_secs_f64() * 1e3);
                    let mut out = outcomes[i].lock().expect(POISONED);
                    out.done = Some(done);
                    out.results = result
                        .map(|run| {
                            run.results
                                .into_iter()
                                .map(|r| r.map_err(|e| e.to_string()))
                                .collect()
                        })
                        .map_err(|e| e.to_string());
                });
            }
        });
        let outcomes: Vec<Outcome> = outcomes
            .into_iter()
            .map(|m| m.into_inner().expect(POISONED))
            .collect();
        let end = outcomes
            .iter()
            .filter_map(|o| o.done)
            .max()
            .unwrap_or(start);
        let mut round = Round {
            setup_s,
            wall_s: (end - start).as_secs_f64(),
            cpu_s: process_cpu_s() - cpu0,
            items: (SUBMITS * BATCH) as u64,
            latencies_ms: latencies.into_inner().expect(POISONED),
            attempted: SUBMITS as u64,
            ..Round::default()
        };

        // Checks: every submit admitted with one `Ok` per task; accuracy
        // per dataset against gold; store-served answers equal the
        // simulator's; ledgers partition; no lease left behind.
        let mut answer: Vec<Option<&CompletionResponse>> = vec![None; self.tasks.len()];
        let (mut correct, mut shown) = ([0usize; 2], [0usize; 2]);
        for (i, out) in outcomes.iter().enumerate() {
            let results = out
                .results
                .as_ref()
                .map_err(|e| format!("submit {i} was not admitted: {e}"))?;
            let batch = &self.submits[i].1;
            if results.len() != batch.len() {
                return Err(format!(
                    "submit {i}: {} results for {} tasks",
                    results.len(),
                    batch.len()
                ));
            }
            for (&t, r) in batch.iter().zip(results) {
                let response = r
                    .as_ref()
                    .map_err(|e| format!("submit {i}: task {t} failed: {e}"))?;
                let d = self.dataset[t];
                shown[d] += 1;
                if extract::value(&response.text).is_ok_and(|v| v == self.gold[t]) {
                    correct[d] += 1;
                }
                answer[t].get_or_insert(response);
            }
        }
        for (d, (name, paper)) in PAPER_ACCURACY.iter().enumerate() {
            let accuracy = ratio(correct[d] as f64, shown[d] as f64);
            if accuracy < paper - ACCURACY_TOLERANCE {
                return Err(format!(
                    "{name} accuracy {accuracy:.4} is more than {ACCURACY_TOLERANCE} below the paper's {paper}"
                ));
            }
        }
        let engine = server.engine();
        for &t in self.prefilled.iter().step_by(STORE_SAMPLE_EVERY) {
            let Some(served) = answer[t] else { continue };
            let direct = self.direct_answer(engine, &self.tasks[t])?;
            if !served.cached || served.text != direct {
                return Err(format!(
                    "task {t}: the store served {:?} (cached: {}), the simulator answers {direct:?}",
                    served.text, served.cached
                ));
            }
        }
        let ledger = client.ledger();
        let stats = server.stats();
        let tenant_usd: f64 = stats.iter().map(|s| s.ledger.spent_usd).sum();
        if !same_usd(tenant_usd, ledger.spend_usd()) {
            return Err(format!(
                "tenant ledgers sum to {tenant_usd}, the client ledger holds {}",
                ledger.spend_usd()
            ));
        }
        if server.leases_in_use() != 0 {
            return Err(format!("{} leases still in use", server.leases_in_use()));
        }
        let expected_calls = (self.tasks.len() - self.prefilled.len()) as u64;
        if ledger.calls() != expected_calls {
            return Err(format!(
                "{} backend calls charged; the {} tasks missing from the store need exactly one each",
                ledger.calls(),
                expected_calls
            ));
        }
        round.llm_calls = ledger.calls();
        round.cost_usd = ledger.spend_usd();
        round.quality = ratio(
            (correct[0] + correct[1]) as f64,
            (shown[0] + shown[1]) as f64,
        );
        round_span.end();

        if let Some(p) = probes {
            let layers = &mut round.layers;
            layers.insert("store.open_ms", median(&open_ms));
            layers.insert("store.records", records as f64);
            layers.insert("store.admits", store.len().saturating_sub(records) as f64);
            let bytes_after = std::fs::metadata(&path).map_or(0, |m| m.len());
            layers.insert(
                "store.bytes_written",
                bytes_after.saturating_sub(bytes_before) as f64,
            );
            layers.insert("serve.submits", SUBMITS as f64);
            layers.insert(
                "serve.shed",
                stats.iter().map(|s| s.shed).sum::<u64>() as f64,
            );
            layers.insert(
                "serve.lag_ms",
                median(&lag_ms.into_inner().expect(POISONED)),
            );
            let completed: f64 = stats.iter().map(|s| s.completed as f64).sum();
            let weights: f64 = stats.iter().map(|s| s.weight).sum();
            let spread = stats
                .iter()
                .map(|s| (ratio(s.completed as f64, completed) - s.weight / weights).abs())
                .fold(0.0, f64::max);
            layers.insert("serve.share_spread", spread);
            common_layers(layers, p, &client, round.cpu_s, round.wall_s);
        }
        Ok(round)
    }
}
