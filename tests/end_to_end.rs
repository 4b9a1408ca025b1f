//! Cross-crate integration tests: the full three-stage pipeline on the
//! paper's running example and on generated workloads, compared against the
//! baseline methods and the gold standard.

use explain3d::datagen::{
    generate_academic, generate_synthetic, generate_views, AcademicConfig, ImdbConfig,
    ImdbTemplate, SyntheticConfig,
};
use explain3d::prelude::*;

/// The Figure 1 / Example 2 comparison of Q1 (program list) and Q3
/// (per-college aggregates): a containment attribute match, a double-counted
/// program, and a missing program.
#[test]
fn running_example_q1_vs_q3_containment() {
    let mut d1 = Database::new();
    let mut programs = Relation::new(
        "D1",
        Schema::from_pairs(&[("program", ValueType::Str), ("college", ValueType::Str)]),
    );
    for (p, c) in [
        ("Accounting", "Business"),
        ("CS BA", "Computer Science"),
        ("CS BS", "Computer Science"),
        ("ECE", "Engineering"),
        ("EE", "Engineering"),
        ("Management", "Business"),
        ("Design", "Fine Arts"),
    ] {
        programs.insert_values([p, c]).unwrap();
    }
    d1.add(programs);
    let q1 = Query::scan("D1").named("Q1").count("program");

    let mut d3 = Database::new();
    let mut colleges = Relation::new(
        "D3",
        Schema::from_pairs(&[("college", ValueType::Str), ("num_bach", ValueType::Int)]),
    );
    colleges.insert_values::<[Value; 2], _>(["Business".into(), 2.into()]).unwrap();
    colleges.insert_values::<[Value; 2], _>(["Engineering".into(), 2.into()]).unwrap();
    colleges.insert_values::<[Value; 2], _>(["Computer Science".into(), 1.into()]).unwrap();
    d3.add(colleges);
    let q3 = Query::scan("D3").named("Q3").sum("num_bach");

    // (college of D1) ⊑... the queries match programs' colleges to D3 colleges.
    let matches = AttributeMatches::single_less_general("college", "college");
    let outcome = explain_disagreement(
        &QueryCase::new(d1, q1),
        &QueryCase::new(d3, q3),
        &matches,
        &ExplainOptions::default(),
    )
    .unwrap();

    // Q1 = 7 programs, Q3 = 5 bachelor degrees.
    assert_eq!(outcome.results.0, Value::Int(7));
    assert_eq!(outcome.results.1, Value::Int(5));
    assert!(outcome.report.complete);
    // Explanations: Fine Arts (Design) missing from D3, and the Computer
    // Science college counted twice in Q1 but listed with one degree in D3.
    let e = &outcome.report.explanations;
    assert_eq!(e.len(), 2, "explanations: {e:?}");
    assert_eq!(e.provenance.len() + e.value.len(), 2);
}

#[test]
fn explain3d_beats_the_baselines_on_the_academic_pair() {
    let case = generate_academic(&AcademicConfig { num_programs: 50, ..AcademicConfig::umass() });
    let gold = GoldStandard::new(case.gold.clone());
    let left = &case.prepared.left_canonical;
    let right = &case.prepared.right_canonical;

    let report = Explain3D::new(Explain3DConfig::batched(50)).explain(
        left,
        right,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    let e3d = explanation_accuracy(&report.explanations, &gold).f_measure;

    let threshold = ThresholdBaseline::default().explain(left, right, &case.initial_mapping);
    let thr = explanation_accuracy(&threshold, &gold).f_measure;

    let formal = FormalExpBaseline::default().explain(left, right);
    let fe = explanation_accuracy(&formal, &gold).f_measure;

    assert!(e3d > 0.7, "Explain3D explanation F1 too low: {e3d}");
    assert!(e3d >= thr, "Explain3D ({e3d}) should not lose to THRESHOLD ({thr})");
    assert!(e3d > fe, "Explain3D ({e3d}) should beat FORMALEXP ({fe})");

    // Evidence accuracy mirrors the same ordering.
    let e3d_ev = evidence_accuracy(&report.explanations.evidence, &gold).f_measure;
    assert!(e3d_ev > 0.7, "evidence F1 too low: {e3d_ev}");
}

#[test]
fn synthetic_accuracy_is_near_perfect_for_all_strategies() {
    let case = generate_synthetic(&SyntheticConfig::new(60, 0.2, 400));
    let gold = GoldStandard::new(case.gold.clone());
    for config in [
        Explain3DConfig::no_opt(),
        Explain3DConfig::connected_components(),
        Explain3DConfig::batched(40),
    ] {
        let report = Explain3D::new(config.clone()).explain(
            &case.prepared.left_canonical,
            &case.prepared.right_canonical,
            &case.attribute_matches,
            &case.initial_mapping,
        );
        let expl = explanation_accuracy(&report.explanations, &gold);
        let evid = evidence_accuracy(&report.explanations.evidence, &gold);
        assert!(
            expl.f_measure > 0.9,
            "explanation F1 {:.3} too low for {:?}",
            expl.f_measure,
            config.strategy
        );
        assert!(
            evid.f_measure > 0.9,
            "evidence F1 {:.3} too low for {:?}",
            evid.f_measure,
            config.strategy
        );
    }
}

#[test]
fn smart_partitioning_bounds_subproblem_sizes_without_losing_accuracy() {
    let case = generate_synthetic(&SyntheticConfig::new(200, 0.25, 800));
    let gold = GoldStandard::new(case.gold.clone());

    let unpartitioned = Explain3D::new(Explain3DConfig::connected_components()).explain(
        &case.prepared.left_canonical,
        &case.prepared.right_canonical,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    let batched = Explain3D::new(Explain3DConfig::batched(60)).explain(
        &case.prepared.left_canonical,
        &case.prepared.right_canonical,
        &case.attribute_matches,
        &case.initial_mapping,
    );

    assert!(batched.stats.max_subproblem_size <= 60);
    assert!(batched.stats.milp_count >= unpartitioned.stats.milp_count.min(2));

    let f_unpart = explanation_accuracy(&unpartitioned.explanations, &gold).f_measure;
    let f_batch = explanation_accuracy(&batched.explanations, &gold).f_measure;
    assert!(
        f_batch >= f_unpart - 0.05,
        "partitioning lost accuracy: {f_batch:.3} vs {f_unpart:.3}"
    );
}

#[test]
fn imdb_template_pipeline_produces_complete_explanations() {
    let views =
        generate_views(&ImdbConfig { num_movies: 150, num_persons: 180, ..Default::default() });
    let case =
        views.case(ImdbTemplate::TotalGross, &views.default_param(ImdbTemplate::TotalGross, 12));
    let report = Explain3D::new(Explain3DConfig::batched(80)).explain(
        &case.prepared.left_canonical,
        &case.prepared.right_canonical,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    assert!(report.complete, "explanations must be complete");
    let gold = GoldStandard::new(case.gold.clone());
    let acc = explanation_accuracy(&report.explanations, &gold);
    assert!(acc.f_measure > 0.6, "IMDb explanation F1 {:.3}", acc.f_measure);
}

#[test]
fn stage_three_summary_compresses_academic_explanations() {
    let case = generate_academic(&AcademicConfig {
        num_programs: 70,
        associate_only_fraction: 0.25,
        ..AcademicConfig::umass()
    });
    let report = Explain3D::new(Explain3DConfig::batched(60)).explain(
        &case.prepared.left_canonical,
        &case.prepared.right_canonical,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    let summary = summarize_side(
        &report.explanations,
        Side::Left,
        &case.prepared.left_canonical,
        &SummarizerConfig::default(),
    );
    let num_left_explanations = report.explanations.provenance_tuples(Side::Left).len()
        + report.explanations.value_changes(Side::Left).len();
    assert!(num_left_explanations > 5, "expected a sizeable explanation set");
    assert!(
        summary.size() < num_left_explanations,
        "summary ({}) should be smaller than the explanation list ({num_left_explanations})",
        summary.size()
    );
    // The associate-degree pattern should be discovered.
    assert!(summary
        .patterns
        .iter()
        .any(|p| p.conditions.iter().any(|(_, v)| v.to_string().contains("Associate"))));
}
