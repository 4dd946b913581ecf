//! Randomized validation of the §4 reductions against their independent
//! solvers — 3-colorability (Theorem 5) and QBF (Theorems 7 and 9).

use qld_reductions::three_color::{
    is_3colorable_via_logical_db, is_proper_coloring, solve_3coloring,
};
use qld_reductions::{qbf_fo, qbf_so};
use qld_workloads::{gnp, random_qbf};

#[test]
fn theorem_5_agrees_with_solver_on_random_graphs() {
    for n in [3usize, 4, 5] {
        for (i, p) in [0.2, 0.5, 0.8].into_iter().enumerate() {
            for seed in 0..4 {
                let g = gnp(n, p, seed * 100 + i as u64 * 10 + n as u64);
                let expected = match solve_3coloring(&g) {
                    Some(coloring) => {
                        assert!(is_proper_coloring(&g, &coloring));
                        true
                    }
                    None => false,
                };
                assert_eq!(
                    is_3colorable_via_logical_db(&g),
                    expected,
                    "Theorem 5 reduction disagrees on {g:?}"
                );
            }
        }
    }
}

#[test]
fn theorem_7_agrees_with_solver_on_random_qbfs() {
    // k = 1: ∀∃.
    for seed in 0..12 {
        let qbf = random_qbf(&[2, 2], 3, seed);
        assert_eq!(
            qbf_fo::qbf_true_via_logical_db(&qbf),
            qbf.is_true(),
            "Theorem 7 disagrees on {qbf:?}"
        );
    }
    // k = 2: ∀∃∀.
    for seed in 0..8 {
        let qbf = random_qbf(&[2, 1, 1], 3, 1000 + seed);
        assert_eq!(
            qbf_fo::qbf_true_via_logical_db(&qbf),
            qbf.is_true(),
            "Theorem 7 (k=2) disagrees on {qbf:?}"
        );
    }
}

#[test]
fn theorem_9_agrees_with_solver_on_random_qbfs() {
    // The SO evaluation is the expensive side; keep instances tiny.
    for seed in 0..10 {
        let qbf = random_qbf(&[2, 2], 2, seed);
        assert_eq!(
            qbf_so::qbf_true_via_logical_db(&qbf),
            qbf.is_true(),
            "Theorem 9 disagrees on {qbf:?}"
        );
    }
    for seed in 0..4 {
        let qbf = random_qbf(&[1, 1, 1], 2, 500 + seed);
        assert_eq!(
            qbf_so::qbf_true_via_logical_db(&qbf),
            qbf.is_true(),
            "Theorem 9 (k=2) disagrees on {qbf:?}"
        );
    }
}

#[test]
fn theorems_7_and_9_agree_with_each_other() {
    for seed in 0..8 {
        let qbf = random_qbf(&[2, 1], 2, 9000 + seed);
        assert_eq!(
            qbf_fo::qbf_true_via_logical_db(&qbf),
            qbf_so::qbf_true_via_logical_db(&qbf),
            "the two reductions disagree on {qbf:?}"
        );
    }
}
