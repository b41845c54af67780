//! The `paper_pipeline` workload: one op is a full researcher run of the
//! §4/§5/§8.3 path on a pre-built test-scale world.

use std::collections::BTreeSet;
use std::time::Instant;

use fbsim_adplatform::analyze::{SpecAnalysis, SpecAnalyzer};
use fbsim_adplatform::campaign::CampaignSpec;
use fbsim_adplatform::policy::{
    CombinedPolicy, InterestCapPolicy, MinActiveAudiencePolicy, PlatformPolicy, StaticDecision,
};
use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_fdvt::dataset::CohortConfig;
use fbsim_fdvt::FdvtDataset;
use fbsim_population::{MaterializedUser, World, WorldConfig};
use nanotarget::countermeasures::{evaluate_all, PolicyEvaluation};
use nanotarget::{run_experiment, ExperimentConfig, ExperimentResult, NanotargetingVerdict};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uniqueness::np::NpTable;
use uniqueness::{AudienceVectors, SelectionStrategy};

use crate::WORLD_SEED;

/// Cohort size at test scale (the paper's 2,390 divided by ten).
pub const COHORT_SIZE: u32 = 239;
/// Bootstrap replicates at test scale.
pub const REPLICATES: usize = 200;
/// Nanotargeting targets, each with at least [`TARGET_MIN_INTERESTS`].
pub const TARGETS: usize = 3;
/// The experiment needs 22 interests per target for its deepest campaign.
const TARGET_MIN_INTERESTS: usize = 22;

/// The pre-built inputs an op runs on.
pub struct PipelineWorld {
    /// The test-scale world.
    pub world: World,
    /// The three nanotargeting targets.
    pub targets: Vec<MaterializedUser>,
    /// Seconds spent in `World::generate`.
    pub world_generate_s: f64,
    /// The workload seed.
    pub seed: u64,
}

impl PipelineWorld {
    /// Generates the world and draws the targets from `seed`.
    pub fn build(seed: u64) -> Self {
        let start = Instant::now();
        let world = World::generate(WorldConfig::test_scale(WORLD_SEED))
            .expect("test-scale config is valid");
        let world_generate_s = start.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A26);
        let materializer = world.materializer();
        let mut targets = Vec::with_capacity(TARGETS);
        while targets.len() < TARGETS {
            let user = materializer.sample_user(&mut rng);
            if user.interests.len() >= TARGET_MIN_INTERESTS {
                targets.push(user);
            }
        }
        Self { world, targets, world_generate_s, seed }
    }
}

/// Wall seconds of each step of one op, in op order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `FdvtDataset::generate`.
    pub cohort_s: f64,
    /// LP `AudienceVectors::collect`.
    pub vectors_lp_s: f64,
    /// R `AudienceVectors::collect`.
    pub vectors_r_s: f64,
    /// `NpTable::build`.
    pub np_table_s: f64,
    /// `run_experiment` (21 campaigns).
    pub experiment_s: f64,
    /// `evaluate_all` (three §8.3 policies).
    pub policies_s: f64,
}

impl Phases {
    /// `(seconds metric, share metric, seconds)` per step, in op order.
    pub fn named(&self) -> [(&'static str, &'static str, f64); 6] {
        [
            ("fdvt.cohort_s", "share.fdvt.cohort", self.cohort_s),
            ("uniqueness.vectors_lp_s", "share.uniqueness.vectors_lp", self.vectors_lp_s),
            ("uniqueness.vectors_r_s", "share.uniqueness.vectors_r", self.vectors_r_s),
            ("uniqueness.np_table_s", "share.uniqueness.np_table", self.np_table_s),
            ("nanotarget.experiment_s", "share.nanotarget.experiment", self.experiment_s),
            ("nanotarget.policies_s", "share.nanotarget.policies", self.policies_s),
        ]
    }
}

/// What one op produced.
pub struct OpOutput {
    /// Table 1.
    pub table: NpTable,
    /// Table 2.
    pub experiment: ExperimentResult,
    /// The three §8.3 evaluations (cap, active minimum, combined).
    pub policies: Vec<PolicyEvaluation>,
    /// Step timings, stamped back to back.
    pub phases: Phases,
}

/// Runs one op. Errors are the program's (a failed fit or experiment).
pub fn run_op(input: &PipelineWorld) -> Result<OpOutput, String> {
    let world = &input.world;
    let seed = input.seed;
    let mut phases = Phases::default();
    let mut stamp = Instant::now();
    let mut lap = |slot: &mut f64| {
        let now = Instant::now();
        *slot = (now - stamp).as_secs_f64();
        stamp = now;
    };
    let cohort = FdvtDataset::generate(
        world,
        CohortConfig { size: COHORT_SIZE, seed: seed ^ 0xC0_0047, demographic_effects: true },
    );
    lap(&mut phases.cohort_s);
    let api = AdsManagerApi::new(world, ReportingEra::Early2017);
    let profiles: Vec<&MaterializedUser> = cohort.users.iter().map(|u| &u.profile).collect();
    let lp = AudienceVectors::collect(&api, &profiles, SelectionStrategy::LeastPopular, seed);
    lap(&mut phases.vectors_lp_s);
    let random = AudienceVectors::collect(&api, &profiles, SelectionStrategy::Random, seed);
    lap(&mut phases.vectors_r_s);
    let table =
        NpTable::build(&lp, &random, REPLICATES, seed).map_err(|e| format!("NpTable: {e}"))?;
    lap(&mut phases.np_table_s);
    let refs: Vec<&MaterializedUser> = input.targets.iter().collect();
    let config = ExperimentConfig { seed, ..ExperimentConfig::default() };
    let experiment =
        run_experiment(world, &refs, &config).map_err(|e| format!("experiment: {e}"))?;
    lap(&mut phases.experiment_s);
    let policies = evaluate_all(world, &experiment);
    lap(&mut phases.policies_s);
    Ok(OpOutput { table, experiment, policies, phases })
}

/// The outputs an op must reproduce exactly: Table 1 cells as bits, Table 2
/// verdicts, and the §8.3 evaluation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    table_bits: Vec<u64>,
    verdicts: Vec<NanotargetingVerdict>,
    policy_counts: Vec<(usize, usize, usize, usize)>,
}

impl Fingerprint {
    /// The fingerprint of one op's output.
    pub fn of(output: &OpOutput) -> Self {
        let table_bits = output
            .table
            .lp
            .iter()
            .chain(&output.table.random)
            .flat_map(|cell| {
                let (lo, hi) = cell.ci95.map_or((f64::NAN, f64::NAN), |ci| (ci.lo, ci.hi));
                [cell.value, cell.r_squared, lo, hi].map(f64::to_bits)
            })
            .collect();
        Self {
            table_bits,
            verdicts: output.experiment.rows.iter().map(|r| r.verdict).collect(),
            policy_counts: output
                .policies
                .iter()
                .map(|p| (p.blocked, p.successes_blocked, p.successes_total, p.statically_decided))
                .collect(),
        }
    }
}

/// Per-campaign §8.3 blocked masks (cap, active minimum, combined), with
/// how many decisions the static pre-flight settled, recomputed from the
/// public policy API with one shared analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Masks {
    /// Blocked flags per policy, in plan order.
    pub blocked: [Vec<bool>; 3],
    /// Statically decided campaigns per policy.
    pub statically_decided: [usize; 3],
}

/// Decides one campaign under one policy, paying for the true audience only
/// when the static pre-flight is inconclusive.
fn blocks<P: PlatformPolicy>(
    policy: &P,
    spec: &CampaignSpec,
    analysis: &SpecAnalysis,
    true_reach: &mut impl FnMut() -> f64,
) -> (bool, bool) {
    match policy.evaluate_static(spec, analysis) {
        StaticDecision::Reject(_) => (true, true),
        StaticDecision::Accept => (false, true),
        StaticDecision::Inconclusive => (policy.evaluate(spec, true_reach()).is_err(), false),
    }
}

/// Recomputes the blocked masks of an experiment.
pub fn masks(world: &World, experiment: &ExperimentResult) -> Masks {
    let api = AdsManagerApi::new(world, ReportingEra::Post2018);
    let analyzer = SpecAnalyzer::from_engine(&world.reach_engine());
    let mut out = Masks { blocked: Default::default(), statically_decided: [0; 3] };
    for campaign in &experiment.plan.campaigns {
        let spec = &campaign.spec;
        let analysis = analyzer.analyze_campaign(spec);
        let mut cached = None;
        let mut true_reach = || *cached.get_or_insert_with(|| api.true_reach(&spec.targeting));
        let decisions = [
            blocks(&InterestCapPolicy::paper_proposal(), spec, &analysis, &mut true_reach),
            blocks(&MinActiveAudiencePolicy::paper_proposal(), spec, &analysis, &mut true_reach),
            blocks(&CombinedPolicy::paper_proposal(), spec, &analysis, &mut true_reach),
        ];
        for (k, (blocked, decided)) in decisions.into_iter().enumerate() {
            out.blocked[k].push(blocked);
            out.statically_decided[k] += usize::from(decided);
        }
    }
    out
}

/// Checks an op against the paper's §8.3 shape and its own masks: the
/// evaluation counts must follow from the masks, and the combined policy
/// must block every success. Returns the first disagreement.
pub fn check_policies(output: &OpOutput, masks: &Masks) -> Result<(), String> {
    let successes: Vec<bool> =
        output.experiment.rows.iter().map(|r| r.verdict == NanotargetingVerdict::Success).collect();
    for (k, eval) in output.policies.iter().enumerate() {
        let mask = &masks.blocked[k];
        let blocked = mask.iter().filter(|&&b| b).count();
        let successes_blocked = mask.iter().zip(&successes).filter(|(&b, &s)| b && s).count();
        if (eval.blocked, eval.successes_blocked, eval.statically_decided)
            != (blocked, successes_blocked, masks.statically_decided[k])
        {
            return Err(format!(
                "{}: evaluate_all disagrees with the recomputed mask",
                eval.policy
            ));
        }
    }
    let combined = output.policies.get(2).ok_or("evaluate_all returned fewer than 3 policies")?;
    if !combined.blocks_all_successes() {
        return Err(format!(
            "{} leaked {}/{} successes",
            combined.policy,
            combined.successes_total - combined.successes_blocked,
            combined.successes_total
        ));
    }
    Ok(())
}

/// Distinct interests across the experiment's campaign specs: the
/// marginals the §8.3 static pre-flight actually reads.
pub fn marginals_used(experiment: &ExperimentResult) -> usize {
    experiment
        .plan
        .campaigns
        .iter()
        .flat_map(|c| c.spec.targeting.interests().iter().map(|i| i.0))
        .collect::<BTreeSet<u32>>()
        .len()
}
