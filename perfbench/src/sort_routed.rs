//! `sort_routed`: declarative review queries over a routed, hedged fleet.
//!
//! One client runs a closed loop of `Query` requests — filter
//! `"positive"`, sort by latent score, take — each over a fresh list of
//! reviews, planned with `Session::plan` and run with `Plan::execute`. The
//! session degrades instead of failing fast, packs the filter, and routes
//! over two latency-profiled `SimBackend`s with hedging on: a cheap fast
//! one with a straggler tail and transient failures, and a dearer steady
//! one (the fleet of `benches/route.rs`). No work is shared between
//! requests, so the time goes to routing, the backends and planning.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowdprompt_core::{
    Budget, Corpus, FailurePolicy, PlanRun, ResilienceConfig, RoutingConfig, Session,
};
use crowdprompt_data::ReviewsDataset;
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{
    Backend, LanguageModel, LatencyProfile, ModelProfile, NoiseProfile, SimBackend, SimulatedLlm,
    SortCriterion,
};

use crate::check;
use crate::measure::{median, process_cpu_s};
use crate::trace::{self, Probes, SpanTimer};
use crate::{backend_seed, common_layers, ratio, same_usd, set_up, Round, Workload};

/// Reviews per request, half of them positive by gold.
pub const LIST_LEN: usize = 24;
/// Requests per round, each over its own list.
pub const REQUESTS: usize = 128;
/// Sub-tasks per packed filter prompt.
const PACK_WIDTH: usize = 4;
/// Engine dispatch attempts per item before quarantine.
const DEGRADE_ATTEMPTS: u32 = 4;
/// Worker threads per request. Dispatch sleeps on backend latency, so this
/// may exceed `nproc` without contending for CPU.
const PARALLELISM: usize = 8;
const HEDGE_AFTER: Duration = Duration::from_millis(3);
/// Table 1's weakest sorting strategy (single prompt) reached tau 0.526
/// on a gpt-3.5-like model: every returned ranking must do better on
/// average.
const PAPER_MIN_TAU: f64 = 0.526;
/// The filter must agree with the gold `positive` flag on this share of
/// the items it was shown.
const MIN_FILTER_ACCURACY: f64 = 0.8;

pub struct SortRouted {
    seed: u64,
    world: Arc<WorldModel>,
    items: Vec<ItemId>,
    lists: Vec<Vec<ItemId>>,
    /// Gold rank of every item (0 = most positive).
    gold_rank: Vec<f64>,
}

impl SortRouted {
    /// Balanced lists: each holds `LIST_LEN / 2` reviews that are
    /// positive by gold and as many that are not, in generation order, so
    /// that every request filters and ranks about the same number of items
    /// whatever the seed.
    pub fn generate(seed: u64) -> Result<Self, String> {
        let data = ReviewsDataset::generate(3 * LIST_LEN * REQUESTS, seed);
        let half = LIST_LEN / 2;
        let (positive, negative): (Vec<ItemId>, Vec<ItemId>) = data
            .items
            .iter()
            .partition(|id| data.world.flag(**id, "positive") == Some(true));
        if positive.len() < half * REQUESTS || negative.len() < half * REQUESTS {
            return Err(format!(
                "seed {seed}: {} positive and {} negative reviews cannot fill {REQUESTS} balanced lists",
                positive.len(),
                negative.len()
            ));
        }
        let lists: Vec<Vec<ItemId>> = (0..REQUESTS)
            .map(|r| {
                let mut list = positive[r * half..(r + 1) * half].to_vec();
                list.extend_from_slice(&negative[r * half..(r + 1) * half]);
                list.sort_unstable();
                list
            })
            .collect();
        let mut gold_rank = vec![0.0; data.world.len()];
        for (rank, id) in data.gold.iter().enumerate() {
            gold_rank[id.0 as usize] = rank as f64;
        }
        Ok(SortRouted {
            seed,
            items: lists.concat(),
            lists,
            world: Arc::new(data.world),
            gold_rank,
        })
    }

    /// The two-backend fleet over one simulator, so answers are identical
    /// whichever backend serves a call.
    fn fleet(&self, index: u64, probes: Option<&Probes>) -> Vec<Arc<dyn Backend>> {
        let llm: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like(),
            Arc::clone(&self.world),
            self.seed,
        ));
        let llm = trace::model(llm, probes);
        let fast = SimBackend::new("fast-flaky", Arc::clone(&llm))
            .with_latency(LatencyProfile {
                base_us: 1_500,
                jitter: 0.2,
                tail_prob: 0.08,
                tail_mult: 25.0,
            })
            .with_price_multiplier(0.8)
            .with_transport_noise(NoiseProfile {
                unavailable_prob: 0.02,
                ..NoiseProfile::perfect()
            })
            .with_seed(backend_seed(self.seed, index, 1));
        let slow = SimBackend::new("slow-steady", llm)
            .with_latency(LatencyProfile {
                base_us: 9_000,
                jitter: 0.1,
                tail_prob: 0.0,
                tail_mult: 1.0,
            })
            .with_seed(backend_seed(self.seed, index, 2));
        vec![
            trace::backend(Arc::new(fast), probes),
            trace::backend(Arc::new(slow), probes),
        ]
    }

    /// Check one request's result; returns its Kendall tau-b against gold
    /// and the number of filter decisions that matched the gold flag.
    fn check_run(&self, list: &[ItemId], run: &PlanRun) -> Result<(f64, usize), String> {
        let order = run
            .output
            .items()
            .ok_or("the query returned no item list")?;
        let filter = run
            .steps
            .first()
            .filter(|s| s.name.contains("filter"))
            .ok_or("the first plan step is not the filter")?;
        let listed: HashSet<ItemId> = list.iter().copied().collect();
        let kept: HashSet<ItemId> = order.iter().copied().collect();
        if kept.len() != order.len() || !kept.is_subset(&listed) {
            return Err("the ranking repeats items or returns items not in its list".into());
        }
        if order.len() != filter.items_out {
            return Err(format!(
                "the ranking holds {} items but the filter kept {}",
                order.len(),
                filter.items_out
            ));
        }
        if run.steps.iter().any(|s| s.is_degraded()) {
            return Err("a step quarantined items".into());
        }
        let agree = list
            .iter()
            .filter(|id| kept.contains(id) == self.world.flag(**id, "positive").unwrap_or(false))
            .count();
        let tau = if order.len() < 2 {
            1.0
        } else {
            let returned: Vec<f64> = (0..order.len()).map(|r| r as f64).collect();
            let gold: Vec<f64> = order
                .iter()
                .map(|id| self.gold_rank[id.0 as usize])
                .collect();
            check::kendall_tau_b(&returned, &gold).unwrap_or(0.0)
        };
        Ok((tau, agree))
    }
}

impl Workload for SortRouted {
    fn requests_per_round(&self) -> usize {
        REQUESTS
    }

    fn round(&self, index: u64, probes: Option<&Probes>) -> Result<Round, String> {
        let tracer = probes.map(|p| p.tracer);
        let round_span = SpanTimer::start(tracer, "round", None, None);
        let parent = round_span.id();

        let (session, setup_s) = set_up(|| {
            Ok(Session::builder()
                .routing(
                    RoutingConfig::new()
                        .backends(self.fleet(index, probes))
                        .hedge_after(HEDGE_AFTER)
                        .max_retries(3),
                )
                .resilience(
                    ResilienceConfig::new().failure_policy(FailurePolicy::Degrade {
                        max_attempts: DEGRADE_ATTEMPTS,
                    }),
                )
                .corpus(Corpus::from_world(&self.world, &self.items))
                .budget(Budget::Unlimited)
                .pack_width(PACK_WIDTH)
                .parallelism(PARALLELISM)
                .seed(self.seed)
                .criterion("by how positive the review is")
                .build())
        })?;

        let mut round = Round {
            setup_s,
            ..Round::default()
        };
        let (mut taus, mut agree) = (Vec::new(), 0usize);
        let (mut plan_ms, mut execute_ms, mut estimate_error) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut step_usd = 0.0;
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        for (i, list) in self.lists.iter().enumerate() {
            let request = Some(i as u64);
            let span = SpanTimer::start(tracer, "request", parent, request);
            let query = session
                .query(list)
                .filter("positive")
                .sort(SortCriterion::LatentScore)
                .take(LIST_LEN);
            let plan_span = SpanTimer::start(tracer, "Session::plan", span.id(), request);
            let plan = session.plan(query);
            plan_ms.push(plan_span.end() * 1e3);
            let result = plan.and_then(|plan| {
                let exec_span = SpanTimer::start(tracer, "Plan::execute", span.id(), request);
                let run = plan.execute(&session);
                execute_ms.push(exec_span.end() * 1e3);
                run.map(|run| (plan.estimated_cost_usd(), run))
            });
            round.latencies_ms.push(span.end() * 1e3);
            round.attempted += 1;
            let (estimate, run) = result.map_err(|e| format!("request {i} failed: {e}"))?;
            let (tau, ok) = self
                .check_run(list, &run)
                .map_err(|e| format!("request {i}: {e}"))?;
            taus.push(tau);
            agree += ok;
            let actual = run.total_cost_usd();
            step_usd += run.steps.iter().map(|s| s.cost_usd).sum::<f64>();
            estimate_error.push(ratio((estimate - actual).abs(), actual));
        }
        round.wall_s = start.elapsed().as_secs_f64();
        round.cpu_s = process_cpu_s() - cpu0;
        round.items = self.items.len() as u64;

        let client = session.engine().client();
        let ledger = client.ledger();
        if !same_usd(session.spent_usd(), ledger.spend_usd())
            || !same_usd(ledger.spend_usd(), step_usd)
        {
            return Err(format!(
                "spend disagrees: session {}, client ledger {}, step reports {}",
                session.spent_usd(),
                ledger.spend_usd(),
                step_usd
            ));
        }
        let accuracy = agree as f64 / self.items.len() as f64;
        if accuracy < MIN_FILTER_ACCURACY {
            return Err(format!(
                "the filter agreed with gold on {accuracy:.3} of items, below {MIN_FILTER_ACCURACY}"
            ));
        }
        let tau = taus.iter().sum::<f64>() / taus.len().max(1) as f64;
        if tau < PAPER_MIN_TAU {
            return Err(format!(
                "mean tau-b {tau:.4} is below the paper's {PAPER_MIN_TAU}"
            ));
        }
        round.llm_calls = ledger.calls();
        round.cost_usd = ledger.spend_usd();
        round.quality = tau;
        round_span.end();

        if let Some(p) = probes {
            round.layers.insert("plan.plan_ms", median(&plan_ms));
            round.layers.insert("plan.execute_ms", median(&execute_ms));
            round
                .layers
                .insert("plan.estimate_error", median(&estimate_error));
            common_layers(&mut round.layers, p, client, round.cpu_s, round.wall_s);
        }
        Ok(round)
    }
}
