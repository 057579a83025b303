//! `resolve_stream`: Table 3 entity resolution as a stream of requests.
//!
//! One client runs a closed loop of `Session::resolve_pairs` calls, each
//! over one chunk of the validation pairs, with `TransitivityAugmented
//! { k: 2 }` and the `MentionIndex` built at set-up. Zero-latency
//! simulator, fail-fast, engine parallelism `nproc - 1` (at least 1).
//! Requests share work through neighbour expansion: a later chunk finds
//! many of its expanded pairs in the client cache.

use std::sync::Arc;
use std::time::Instant;

use crowdprompt_core::ops::resolve::ResolveStrategy;
use crowdprompt_core::{Budget, Corpus, Session};
use crowdprompt_data::{CitationDataset, CitationParams};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LanguageModel, LlmClient, ModelProfile, SimulatedLlm};

use crate::check;
use crate::measure::{median, process_cpu_s};
use crate::trace::{self, Probes, SpanTimer};
use crate::{common_layers, same_usd, set_up, Round, Workload};

/// Requests the validation pairs are split into.
pub const REQUESTS: usize = 64;
/// Neighbours per questioned record (the paper's best row).
const K: usize = 2;
/// Table 3's pairwise baseline F1: the augmented strategy must beat it.
const PAPER_BASELINE_F1: f64 = 0.658;

pub struct ResolveStream {
    seed: u64,
    world: Arc<WorldModel>,
    mentions: Vec<ItemId>,
    chunks: Vec<Vec<(ItemId, ItemId)>>,
    gold: Vec<bool>,
    parallelism: usize,
}

impl ResolveStream {
    pub fn generate(seed: u64) -> Self {
        let data = CitationDataset::generate(&CitationParams::paper_scale(), seed);
        let pairs: Vec<(ItemId, ItemId)> = data.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
        let gold = data.pairs.iter().map(|(_, _, d)| *d).collect();
        let chunk = pairs.len().div_ceil(REQUESTS);
        ResolveStream {
            seed,
            world: Arc::new(data.world),
            mentions: data.mentions,
            chunks: pairs.chunks(chunk).map(<[_]>::to_vec).collect(),
            gold,
            // One core is left to the rest of the system: with every core
            // busy, host interference moved throughput by up to 30% between
            // runs on a 2-vCPU machine, against 3.5% with one core spare.
            parallelism: std::thread::available_parallelism()
                .map_or(1, |n| n.get().saturating_sub(1).max(1)),
        }
    }
}

impl Workload for ResolveStream {
    fn requests_per_round(&self) -> usize {
        self.chunks.len()
    }

    fn round(&self, _index: u64, probes: Option<&Probes>) -> Result<Round, String> {
        let tracer = probes.map(|p| p.tracer);
        let round_span = SpanTimer::start(tracer, "round", None, None);
        let parent = round_span.id();

        let mut build_ms = Vec::new();
        let ((client, session, index), setup_s) = set_up(|| {
            let llm: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
                ModelProfile::gpt35_like(),
                Arc::clone(&self.world),
                self.seed,
            ));
            let client = Arc::new(LlmClient::new(trace::model(llm, probes)));
            let session = Session::builder()
                .client(Arc::clone(&client))
                .corpus(Corpus::from_world(&self.world, &self.mentions))
                .budget(Budget::Unlimited)
                .parallelism(self.parallelism)
                .seed(self.seed)
                .criterion("as citations")
                .build();
            let span = SpanTimer::start(tracer, "Session::mention_index", parent, None);
            let index = session
                .mention_index(&self.mentions)
                .map_err(|e| format!("mention index: {e}"))?;
            build_ms.push(span.end() * 1e3);
            Ok((client, session, index))
        })?;

        let strategy = ResolveStrategy::TransitivityAugmented { k: K };
        let mut round = Round {
            setup_s,
            ..Round::default()
        };
        let mut decisions = Vec::with_capacity(self.gold.len());
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        for (i, chunk) in self.chunks.iter().enumerate() {
            let span = SpanTimer::start(tracer, "Session::resolve_pairs", parent, Some(i as u64));
            let result = session.resolve_pairs(chunk, &strategy, Some(&index));
            round.latencies_ms.push(span.end() * 1e3);
            round.attempted += 1;
            let out = result.map_err(|e| format!("request {i} failed: {e}"))?;
            if out.value.len() != chunk.len() {
                return Err(format!(
                    "request {i}: {} decisions for {} questions",
                    out.value.len(),
                    chunk.len()
                ));
            }
            decisions.extend(out.value);
        }
        round.wall_s = start.elapsed().as_secs_f64();
        round.cpu_s = process_cpu_s() - cpu0;
        round.items = self.gold.len() as u64;

        let scores = check::binary(&decisions, &self.gold);
        if scores.f1 < PAPER_BASELINE_F1 {
            return Err(format!(
                "F1 {:.4} (precision {:.4}, recall {:.4}) is below the paper's pairwise baseline {PAPER_BASELINE_F1}",
                scores.f1, scores.precision, scores.recall
            ));
        }
        // The client ledger and the session's budget tracker must agree.
        // The per-request `Outcome` dollars are not compared: they also
        // meter answers served from the client cache (see README).
        let ledger = client.ledger();
        if !same_usd(ledger.spend_usd(), session.spent_usd()) {
            return Err(format!(
                "spend disagrees: client ledger {}, session {}",
                ledger.spend_usd(),
                session.spent_usd()
            ));
        }
        round.llm_calls = ledger.calls();
        round.cost_usd = ledger.spend_usd();
        round.quality = scores.f1;
        round_span.end();

        if let Some(p) = probes {
            round.layers.insert("blocking.build_ms", median(&build_ms));
            common_layers(&mut round.layers, p, &client, round.cpu_s, round.wall_s);
        }
        Ok(round)
    }
}
