//! `explain_sparse` and `explain_dense`: cold explanations, timed one per
//! sample, plus the traced stage replay through the public pipeline
//! functions (`build_initial_mapping` → `component_jobs` → each
//! `solve_component` → `assemble_report`).

use crate::answer::Answer;
use crate::inputs::{phrase_matches, phrase_relations, sample_seed, session_config, WARM_UP_SEED};
use crate::stats::{label, max, median, min, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{mb, ms, peak_rss_mb, reset_peak_rss, setup_median, trim_heap, Ctx, Report};
use explain3d::core::pipeline::{assemble_report, component_jobs, solve_component};
use explain3d::datagen::synthetic::{generate, SyntheticConfig};
use explain3d::datagen::GeneratedCase;
use explain3d::parallel::par_map_stealing_weighted;
use explain3d::prelude::*;
use std::time::Instant;

/// Samples an untraced run collects at least (the tail is p80).
const MIN_SAMPLES: usize = 50;
/// Traced iterations a traced run collects at least.
const MIN_TRACED: usize = 8;
/// Cases a traced run cycles over, so each is replayed several times and
/// the node-count spread of one input shows.
const TRACED_CASES: u64 = 4;
/// The traced replay's layer spans must cover its wall time to within this
/// share (the rest is benchmark glue between the calls).
const COVERAGE_TOLERANCE: f64 = 0.05;

/// One traced replay of a cold explanation through the public stages.
struct Replay {
    report: ExplanationReport,
    wall_ms: f64,
    layer_ms: [f64; 4],
    component_us: Vec<f64>,
    component_sizes: Vec<usize>,
    candidates: usize,
    steals: usize,
}

/// Replays a cold explanation stage by stage under spans. With `mapping`
/// absent, Stage 1's `build_initial_mapping` produces it (as the session
/// does); otherwise linkage is bypassed. One span per MILP is recorded only
/// with `component_spans` (the first iteration), which keeps the written
/// trace small; the per-component times are measured either way.
fn replay(
    tr: &mut Tracer,
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    matches: &AttributeMatches,
    config: &Explain3DConfig,
    mapping: Option<&TupleMapping>,
    component_spans: bool,
) -> Replay {
    let root = tr.open("replay", 0);
    let built;
    let mapping = match mapping {
        Some(m) => m,
        None => {
            let options = session_config().mapping;
            built = tr.span("linkage", root, || {
                build_initial_mapping(left, right, matches, &options, None)
            });
            &built
        }
    };
    let (jobs, meta) =
        tr.span("partition", root, || component_jobs(config.strategy, left, right, mapping));
    let component_sizes: Vec<usize> = jobs.iter().map(|(_, sub)| sub.size()).collect();
    let relation = matches.mapping_relation();
    let milp = tr.open("milp", root);
    let (timed, sched) = par_map_stealing_weighted(
        jobs,
        config.requested_threads(),
        |(_, sub)| sub.size().max(1),
        |(part, sub)| {
            let start = Instant::now();
            let outcome = solve_component(left, right, relation, config, &sub, None);
            (part, outcome, start, Instant::now())
        },
    );
    let mut outcomes = Vec::with_capacity(timed.len());
    let mut component_us = Vec::with_capacity(timed.len());
    for (part, outcome, start, end) in timed {
        if component_spans {
            tr.record("milp.component", milp, start, end);
        }
        component_us.push((end - start).as_secs_f64() * 1e6);
        outcomes.push((part, outcome));
    }
    tr.close(milp);
    let report = tr.span("assemble", root, || {
        assemble_report(left, right, matches, mapping, config, &meta, outcomes)
    });
    let wall_ms = ms(tr.close(root));
    let spans = tr.spans();
    let layer = |name: &str| {
        spans
            .iter()
            .rev()
            .find(|s| s.parent == root && s.name == name)
            .map_or(0.0, |s| s.duration().as_secs_f64() * 1e3)
    };
    Replay {
        report,
        wall_ms,
        layer_ms: [layer("linkage"), layer("partition"), layer("milp"), layer("assemble")],
        component_us,
        component_sizes,
        candidates: mapping.len(),
        steals: sched.steals,
    }
}

/// Layer metrics folded over the traced iterations of one run.
#[derive(Default)]
struct LayerFold {
    wall: Vec<f64>,
    untraced: Vec<f64>,
    layers: [Vec<f64>; 4],
    solve_sum: Vec<f64>,
    comp_max: Vec<f64>,
    comp_us: Vec<f64>,
    nodes: Vec<f64>,
    warm: Vec<f64>,
    steals: Vec<f64>,
    coverage: Vec<f64>,
    sequential_solve: Vec<f64>,
    parallel_solve: Vec<f64>,
}

impl LayerFold {
    /// Folds in one replay of case `case` (cases cycle from 0).
    fn add(&mut self, r: &Replay, case: usize) {
        self.wall.push(r.wall_ms);
        for (acc, v) in self.layers.iter_mut().zip(r.layer_ms) {
            acc.push(v);
        }
        self.coverage.push(r.layer_ms.iter().sum::<f64>() / r.wall_ms);
        self.solve_sum.push(r.component_us.iter().sum::<f64>() / 1e3);
        self.comp_max.push(max(&r.component_us) / 1e3);
        self.comp_us.extend_from_slice(&r.component_us);
        if case == 0 {
            self.nodes.push(r.report.stats.milp_nodes as f64);
            self.warm.push(r.report.stats.warm_lp_solves as f64);
        }
        self.steals.push(r.steals as f64);
    }

    fn emit(&self, report: &mut Report, last: &Replay) {
        let stats = &last.report.stats;
        let comps = last.component_sizes.len().max(1) as f64;
        let singletons = last.component_sizes.iter().filter(|&&s| s == 1).count() as f64;
        report.metric("partition.ms", median(&self.layers[1]));
        report.metric("partition.components", last.component_sizes.len() as f64);
        report.metric("partition.singleton_share", singletons / comps);
        report.metric(
            "partition.max_component_tuples",
            last.component_sizes.iter().copied().max().unwrap_or(0) as f64,
        );
        report.metric("milp.solve_ms", median(&self.solve_sum));
        report.metric("milp.component_us_p50", median(&self.comp_us));
        report.metric("milp.component_ms_max", median(&self.comp_max));
        report.metric("milp.count", stats.milp_count as f64);
        report.metric("milp.bb_nodes_min", min(&self.nodes));
        report.metric("milp.bb_nodes_max", max(&self.nodes));
        report.metric("milp.warm_lp_solves_min", min(&self.warm));
        report.metric("milp.warm_lp_solves_max", max(&self.warm));
        report.metric("milp.unproven", stats.suboptimal_subproblems as f64);
        report.metric(
            "milp.unproven_share",
            stats.suboptimal_subproblems as f64 / stats.milp_count.max(1) as f64,
        );
        report.metric("core.assemble_ms", median(&self.layers[3]));
        report.metric("parallel.steals", median(&self.steals));
        report.metric(
            "parallel.solve_speedup",
            median(&self.sequential_solve) / median(&self.parallel_solve),
        );
        report.metric("trace.overhead_ms", median(&self.wall) - median(&self.untraced));
        let coverage = median(&self.coverage);
        report.metric("trace.coverage", coverage);
        if (1.0 - coverage).abs() > COVERAGE_TOLERANCE {
            report.fail(format!(
                "layer spans cover {:.1}% of the replay's wall time (tolerance {:.0}%)",
                coverage * 100.0,
                COVERAGE_TOLERANCE * 100.0
            ));
        }
    }
}

/// Starts a sample from the live set: returns the heap's free memory to
/// the operating system and resets the peak resident set, so the peak read
/// after the timed call is that call's alone, not the benchmark's oracle
/// replays or input generation.
fn fresh_heap(report: &mut Report) {
    trim_heap();
    if let Err(e) = reset_peak_rss() {
        report.fail(format!("cannot reset the peak resident set: {e}"));
    }
}

/// The largest peak resident set of the timed calls so far, in MB.
fn note_peak(report: &mut Report) {
    let peak = peak_rss_mb("self").unwrap_or(0.0);
    report.peak_rss_mb = Some(report.peak_rss_mb.map_or(peak, |p| p.max(peak)));
}

/// Times `op` until the run has lasted `ctx.seconds` and collected at
/// least `min_samples` samples; `op` returns its wall time in ms.
fn sample_loop(ctx: &Ctx, min_samples: usize, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_samples || start.elapsed().as_secs_f64() < ctx.seconds {
        times.push(op());
    }
    times
}

/// The end-to-end metrics of a closed loop of cold explanations.
fn emit_explain_metrics(report: &mut Report, times: &[f64], unproven: usize, milps: usize) {
    let tail_p = tail_percentile(MIN_SAMPLES);
    let p50 = median(times);
    let tail = percentile(times, tail_p);
    report.metric("op_p50_ms", p50);
    report.detail("explain_p50_ms", p50, "ms");
    report.detail(&format!("explain_p{}_ms", label(tail_p)), tail, "ms");
    report.detail("unproven_share", unproven as f64 / milps.max(1) as f64, "ratio");
}

/// The answer every explanation of one input must reproduce.
#[derive(Default)]
struct SameAnswer(Option<Answer>);

impl SameAnswer {
    /// Checks completeness and that `r` asserts the input's first answer.
    fn check(&mut self, report: &mut Report, r: &ExplanationReport, what: &str) {
        report.attempted += 1;
        if !r.complete {
            report.fail(format!("{what}: report is not complete"));
        }
        let answer = Answer::of_report(r);
        match &self.0 {
            None => self.0 = Some(answer),
            Some(first) if !first.same_as(&answer) => {
                report.fail(format!("{what}: the answer changed"));
            }
            Some(_) => {}
        }
    }
}

/// Every this many samples, from the first, an untraced run also replays
/// the sample's input through the public stages (the stage-replay oracle).
const REPLAY_EVERY: usize = 8;
/// Set-up repetitions of the explain workloads: each generates the fixed
/// warm-up input and explains it once.
const SETUP_REPS: usize = 3;

/// Tuples per relation of an `explain_sparse` input.
fn sparse_rows(ctx: &Ctx) -> usize {
    if ctx.smoke {
        400
    } else {
        5000
    }
}

struct SparseCase {
    left: CanonicalRelation,
    right: CanonicalRelation,
    expected: SameAnswer,
}

impl SparseCase {
    /// The relation pair of input seed `seed`.
    fn new(ctx: &Ctx, seed: u64) -> SparseCase {
        let (left, right) = phrase_relations(seed, sparse_rows(ctx));
        SparseCase { left, right, expected: SameAnswer::default() }
    }

    fn session(&self, config: &SessionConfig) -> ExplainSession {
        ExplainSession::new(self.left.clone(), self.right.clone(), phrase_matches(), config.clone())
    }

    fn replay(&self, tr: &mut Tracer, config: &Explain3DConfig, component_spans: bool) -> Replay {
        replay(tr, &self.left, &self.right, &phrase_matches(), config, None, component_spans)
    }
}

/// `explain_sparse`: a cold explanation of two seeded phrase+year
/// relations: `ExplainSession::new` and `explain` on a fresh session. An
/// untraced run generates a new relation pair for every sample (outside
/// the timed call), so its medians cover as many inputs as it has samples.
pub fn sparse(ctx: &Ctx) -> Report {
    let parallel_cfg = session_config();
    // Set-up: generate the warm-up input and explain it once.
    let (setup_s, warm) = setup_median(SETUP_REPS, || {
        let case = SparseCase::new(ctx, WARM_UP_SEED);
        case.session(&parallel_cfg).explain()
    });
    let mut report = Report::new(setup_s);
    SameAnswer::default().check(&mut report, &warm, "warm-up explain");
    drop(warm);

    if !ctx.trace {
        let (mut unproven, mut milps, mut k) = (0, 0, 0);
        let times = sample_loop(ctx, MIN_SAMPLES, || {
            k += 1;
            let (left, right) = phrase_relations(sample_seed(ctx.seed, k as u64), sparse_rows(ctx));
            fresh_heap(&mut report);
            let start = Instant::now();
            let mut session =
                ExplainSession::new(left, right, phrase_matches(), parallel_cfg.clone());
            let r = session.explain();
            let t = ms(start.elapsed());
            note_peak(&mut report);
            unproven += r.stats.suboptimal_subproblems;
            milps += r.stats.milp_count;
            let mut expected = SameAnswer::default();
            expected.check(&mut report, &r, "session explain");
            if k % REPLAY_EVERY == 1 {
                let mut tr = Tracer::default();
                let rep = replay(
                    &mut tr,
                    session.left(),
                    session.right(),
                    &phrase_matches(),
                    &parallel_cfg.explain,
                    None,
                    false,
                );
                expected.check(&mut report, &rep.report, "stage replay vs session");
            }
            t
        });
        emit_explain_metrics(&mut report, &times, unproven, milps);
        return report;
    }

    let mut cases: Vec<SparseCase> =
        (1..=TRACED_CASES).map(|k| SparseCase::new(ctx, sample_seed(ctx.seed, k))).collect();
    let n = cases.len();
    let mut tr = Tracer::default();
    let mut fold = LayerFold::default();
    let mut candidate_ms = Vec::new();
    let mut last = None;
    let mut mem_mb = 0.0;
    let sequential_cfg = SessionConfig {
        explain: parallel_cfg.explain.clone().with_parallel(false),
        ..parallel_cfg.clone()
    };
    let start = Instant::now();
    while fold.wall.len() < MIN_TRACED || start.elapsed().as_secs_f64() < ctx.seconds {
        let k = fold.wall.len() % n;
        let case = &mut cases[k];
        // The untraced twin of the replay: the same stateless stages,
        // inside the pipeline.
        let t0 = Instant::now();
        let options = parallel_cfg.mapping.clone();
        let mapping =
            build_initial_mapping(&case.left, &case.right, &phrase_matches(), &options, None);
        let r = Explain3D::new(parallel_cfg.explain.clone()).explain(
            &case.left,
            &case.right,
            &phrase_matches(),
            &mapping,
        );
        fold.untraced.push(ms(t0.elapsed()));
        case.expected.check(&mut report, &r, "stateless explain vs session");
        let mut session = case.session(&parallel_cfg);
        let r = session.explain();
        fold.parallel_solve.push(ms(r.stats.solve_time));
        candidate_ms.push(ms(r.stats.candidate_time));
        mem_mb = mb(session.memory_footprint());
        case.expected.check(&mut report, &r, "session explain");
        drop(session);
        let r = case.session(&sequential_cfg).explain();
        fold.sequential_solve.push(ms(r.stats.solve_time));
        case.expected.check(&mut report, &r, "sequential session explain");
        let rep = case.replay(&mut tr, &parallel_cfg.explain, fold.wall.is_empty());
        case.expected.check(&mut report, &rep.report, "stage replay vs session");
        fold.add(&rep, k);
        last = Some(rep);
    }
    let last = last.expect("at least one traced iteration");
    report.metric("linkage.mapping_ms", median(&fold.layers[0]));
    report.metric("linkage.session_candidate_ms", median(&candidate_ms));
    report.metric("linkage.candidates", last.candidates as f64);
    report.metric("incremental.session_mem_mb", mem_mb);
    fold.emit(&mut report, &last);
    report.tracer = Some(tr);
    report
}

/// Every this many samples, from the first, an untraced run also explains
/// the sample's case sequentially (the parallel-vs-sequential oracle).
const SEQUENTIAL_EVERY: usize = 8;

/// One dense case with its gold standard and the fingerprint every
/// explanation of it must reproduce.
struct DenseCase {
    case: GeneratedCase,
    gold: GoldStandard,
    expected: SameAnswer,
    last: Option<ExplanationReport>,
}

impl DenseCase {
    /// The case of input seed `seed`: a `generate_synthetic` case with gold
    /// and a small vocabulary, so branch-and-bound does real work.
    fn new(ctx: &Ctx, seed: u64) -> DenseCase {
        let n = if ctx.smoke { 200 } else { 2000 };
        let config = SyntheticConfig::new(n, 0.3, 1000).with_seed(seed);
        let case = generate(&config);
        let gold = GoldStandard::new(case.gold.clone());
        DenseCase { case, gold, expected: SameAnswer::default(), last: None }
    }

    fn explain(&self, config: &Explain3DConfig) -> ExplanationReport {
        let c = &self.case;
        Explain3D::new(config.clone()).explain(
            &c.prepared.left_canonical,
            &c.prepared.right_canonical,
            &c.attribute_matches,
            &c.initial_mapping,
        )
    }

    /// Checks `r` against the case's answer and keeps it for scoring.
    fn check(&mut self, report: &mut Report, r: ExplanationReport, what: &str) {
        self.expected.check(report, &r, what);
        self.last = Some(r);
    }

    /// Explanation and evidence F-measure of the last report against gold.
    fn f1(&self) -> (f64, f64) {
        let e = &self.last.as_ref().expect("the case was explained").explanations;
        (
            explanation_accuracy(e, &self.gold).f_measure,
            evidence_accuracy(&e.evidence, &self.gold).f_measure,
        )
    }
}

/// Mean of (explanation, evidence) F-measure pairs.
fn mean_f1(scores: &[(f64, f64)]) -> (f64, f64) {
    let n = scores.len().max(1) as f64;
    scores.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n))
}

/// `explain_dense`: a cold `Explain3D::explain` (Stage 2 on the case's
/// initial mapping) per sample. An untraced run generates a new case for
/// every sample (outside the timed call), so its medians cover as many
/// cases as it has samples.
pub fn dense(ctx: &Ctx) -> Report {
    let parallel_cfg = Explain3DConfig::default();
    let sequential_cfg = Explain3DConfig::default().with_parallel(false);
    // Set-up: generate the warm-up case and explain it once.
    let (setup_s, warm) =
        setup_median(SETUP_REPS, || DenseCase::new(ctx, WARM_UP_SEED).explain(&parallel_cfg));
    let mut report = Report::new(setup_s);
    SameAnswer::default().check(&mut report, &warm, "warm-up explain");
    drop(warm);

    if !ctx.trace {
        let (mut unproven, mut milps, mut k) = (0, 0, 0);
        let mut scores = Vec::new();
        let times = sample_loop(ctx, MIN_SAMPLES, || {
            k += 1;
            let mut case = DenseCase::new(ctx, sample_seed(ctx.seed, k as u64));
            fresh_heap(&mut report);
            let start = Instant::now();
            let r = case.explain(&parallel_cfg);
            let t = ms(start.elapsed());
            note_peak(&mut report);
            unproven += r.stats.suboptimal_subproblems;
            milps += r.stats.milp_count;
            case.check(&mut report, r, "explain");
            scores.push(case.f1());
            if k % SEQUENTIAL_EVERY == 1 {
                let r = case.explain(&sequential_cfg);
                case.check(&mut report, r, "sequential vs parallel explain");
            }
            t
        });
        emit_explain_metrics(&mut report, &times, unproven, milps);
        let (explanation_f1, evidence_f1) = mean_f1(&scores);
        report.detail("explanation_f1", explanation_f1, "ratio");
        report.detail("evidence_f1", evidence_f1, "ratio");
        return report;
    }

    let mut cases: Vec<DenseCase> =
        (1..=TRACED_CASES).map(|k| DenseCase::new(ctx, sample_seed(ctx.seed, k))).collect();
    let mut tr = Tracer::default();
    let mut fold = LayerFold::default();
    let mut last = None;
    let start = Instant::now();
    while fold.wall.len() < MIN_TRACED || start.elapsed().as_secs_f64() < ctx.seconds {
        let k = fold.wall.len() % cases.len();
        let case = &mut cases[k];
        let t0 = Instant::now();
        let r = case.explain(&parallel_cfg);
        fold.untraced.push(ms(t0.elapsed()));
        fold.parallel_solve.push(ms(r.stats.solve_time));
        case.check(&mut report, r, "explain");
        let r = case.explain(&sequential_cfg);
        fold.sequential_solve.push(ms(r.stats.solve_time));
        case.check(&mut report, r, "sequential vs parallel explain");
        let c = &case.case;
        let rep = replay(
            &mut tr,
            &c.prepared.left_canonical,
            &c.prepared.right_canonical,
            &c.attribute_matches,
            &parallel_cfg,
            Some(&c.initial_mapping),
            fold.wall.is_empty(),
        );
        case.check(&mut report, rep.report.clone(), "stage replay vs explain");
        fold.add(&rep, k);
        last = Some(rep);
    }
    let last = last.expect("at least one traced iteration");
    report.metric("linkage.candidates", last.candidates as f64);
    let scores: Vec<(f64, f64)> = cases.iter().map(DenseCase::f1).collect();
    let (explanation_f1, evidence_f1) = mean_f1(&scores);
    report.detail("explanation_f1", explanation_f1, "ratio");
    report.detail("evidence_f1", evidence_f1, "ratio");
    fold.emit(&mut report, &last);
    report.tracer = Some(tr);
    report
}
