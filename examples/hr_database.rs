//! The paper's §2.1 motivating workload: employees, departments, and
//! managers — with an unknown manager.
//!
//! The query `(x1,x2) . ∃y (EMP_DEPT(x1,y) ∧ DEPT_MGR(y,x2))` is the
//! paper's own example. We additionally leave the manager of one
//! department as an unknown value and watch how exact certain answers,
//! the approximation, and possible answers behave — all through one
//! `Engine` session and one prepared query per question. The
//! approximation's `Q̂` also runs as a relational-algebra plan, the way a
//! standard relational system would run it.
//!
//! Paper: §2.1 (the motivating EMP/DEPT example) evaluated under
//! Theorem 1 (exact) and §5 (approximate; `Q̂` also compiled to algebra).
//!
//! Run with: `cargo run --example hr_database`

use qld_algebra::compile::eval_via_algebra;
use qld_algebra::ExecOptions;
use querying_logical_databases::prelude::*;

fn main() {
    let mut voc = Vocabulary::new();
    // Employees.
    let ada = voc.add_const("ada").unwrap();
    let grace = voc.add_const("grace").unwrap();
    let edsger = voc.add_const("edsger").unwrap();
    // Departments.
    let research = voc.add_const("research").unwrap();
    let ops = voc.add_const("ops").unwrap();
    // Managers; `new_hire` is a null: we know ops has a manager, but not
    // who they are — they may even be one of the known people.
    let barbara = voc.add_const("barbara").unwrap();
    let new_hire = voc.add_const("new_hire").unwrap();

    let emp_dept = voc.add_pred("EMP_DEPT", 2).unwrap();
    let dept_mgr = voc.add_pred("DEPT_MGR", 2).unwrap();

    let known = [ada, grace, edsger, research, ops, barbara];
    let db = CwDatabase::builder(voc)
        .fact(emp_dept, &[ada, research])
        .fact(emp_dept, &[grace, research])
        .fact(emp_dept, &[edsger, ops])
        .fact(dept_mgr, &[research, barbara])
        .fact(dept_mgr, &[ops, new_hire])
        .pairwise_unique(&known)
        .build()
        .unwrap();

    let engine = Engine::new(db);

    let show = |label: &str, answers: &Answers| {
        let names: Vec<String> = engine
            .answer_names(answers)
            .into_iter()
            .map(|t| format!("({})", t.join(" ⟶ ")))
            .collect();
        println!("{label:46} {}", names.join("  "));
    };

    // The paper's example query: employee-manager pairs through their
    // department. Positive ⇒ the approximation is complete (Theorem 13),
    // and `Auto` therefore never touches the exponential path.
    let text = "(e, m) . exists d. EMP_DEPT(e, d) & DEPT_MGR(d, m)";
    let q = engine.prepare_text(text).unwrap();
    let exact = engine.execute_as(&q, Semantics::Exact).unwrap();
    show("certain employee ⟶ manager:", &exact);
    let approx = engine.execute_as(&q, Semantics::Approx).unwrap();
    assert_eq!(
        approx.tuples(),
        exact.tuples(),
        "Theorem 13: complete on positive queries"
    );
    assert!(approx.is_exact(), "…and the certificate says so");
    show("approx  employee ⟶ manager:", &approx);
    assert_eq!(approx.evidence().regime, Regime::Approximation);
    // The same `Q̂` compiled to relational algebra and run over `Ph₂(LB)`
    // ("on top of a standard database management system").
    let ph2 = engine.approx_engine();
    let algebra = eval_via_algebra(
        ph2.extended_voc(),
        ph2.extended_db(),
        q.rewritten(),
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(
        &algebra,
        exact.tuples(),
        "same answers through the relational engine"
    );

    // Who is certainly NOT managed by barbara? Negation meets the null:
    // edsger's manager is the unknown new_hire, who *might be* barbara —
    // so edsger is not in the certain answer.
    let q = engine
        .prepare_text("(e) . exists d. EMP_DEPT(e, d) & !DEPT_MGR(d, barbara)")
        .unwrap();
    show(
        "certainly not managed by barbara:",
        &engine.execute_as(&q, Semantics::Exact).unwrap(),
    );
    show(
        "approx  not managed by barbara:",
        &engine.execute_as(&q, Semantics::Approx).unwrap(),
    );

    // Possible managers of edsger: anyone new_hire could be. One prepared
    // query, the certain lower bound and the possible upper bound.
    let q = engine
        .prepare_text("(m) . exists d. EMP_DEPT(edsger, d) & DEPT_MGR(d, m)")
        .unwrap();
    show(
        "certain manager of edsger:",
        &engine.execute_as(&q, Semantics::Exact).unwrap(),
    );
    show(
        "possible manager of edsger:",
        &engine.execute_as(&q, Semantics::Possible).unwrap(),
    );
}
