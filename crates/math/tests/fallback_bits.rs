//! The iterative path of the Eq. 2 solver is pinned bit for bit.
//!
//! Problems the exact dual solve does not cover — cubic or quartic fits,
//! non-convex models, a domain floor above the lower bound with no
//! regularizer — keep the projected-Newton path, and refactors of that
//! path must not move their results by one ulp: goldens, the
//! `parallel_vs_serial` suite and the distributed flavour's warm/cold
//! agreement all rest on it. Expected values are the bit patterns of
//! the solver as of PR 11 (`a716eb5`), before its buffers moved into
//! `SolveScratch`.

use saba_math::{minimize_weights, solve_from, Polynomial, SolveScratch, WeightProblem};

/// `(name, problem, warm seed)`.
fn problems() -> Vec<(&'static str, WeightProblem, Vec<f64>)> {
    let poly = |c: &[f64]| Polynomial::new(c.to_vec());
    vec![
        // Convex cubic centroids, the distributed flavour's default shape.
        (
            "cubic_centroids",
            WeightProblem {
                models: vec![
                    poly(&[3.2, -4.1, 2.6, -0.7]),
                    poly(&[1.8, -1.2, 0.5, -0.05]),
                    poly(&[2.5, -2.9, 1.9, -0.4]),
                ],
                domain_floors: vec![0.05; 3],
                capacity: 1.0,
                min_weight: 0.03,
                max_weight: 1.0,
                balance_reg: 1.5,
            },
            vec![0.5, 0.2, 0.3],
        ),
        // A wiggly non-convex cubic beside a convex quadratic.
        (
            "nonconvex_cubic",
            WeightProblem::new(
                vec![poly(&[4.0, -10.0, 12.0, -5.0]), poly(&[2.0, -1.5, 0.8])],
                1.0,
            ),
            vec![0.4, 0.6],
        ),
        // Quadratics that fail the dual test on the floor rule alone.
        (
            "floor_without_reg",
            WeightProblem {
                domain_floors: vec![0.2, 0.3, 0.1],
                ..WeightProblem::new(
                    vec![
                        poly(&[6.0, -8.0, 3.0]),
                        poly(&[1.5, -0.8, 0.3]),
                        poly(&[3.0, -3.0, 1.5]),
                    ],
                    0.9,
                )
            },
            vec![0.3, 0.3, 0.3],
        ),
        // A concave quadratic: negative c2 + eps.
        (
            "concave_quadratic",
            WeightProblem {
                balance_reg: 0.1,
                ..WeightProblem::new(vec![poly(&[2.0, -1.0, -0.5]), poly(&[3.0, -2.0, 0.4])], 1.0)
            },
            vec![0.5, 0.5],
        ),
        // Degree 4: the curvature certificate keeps its grid.
        (
            "quartic",
            WeightProblem {
                domain_floors: vec![0.05; 3],
                balance_reg: 0.5,
                ..WeightProblem::new(
                    vec![
                        poly(&[5.0, -6.0, 4.0, -1.5, 0.4]),
                        poly(&[2.0, -1.0, 0.6]),
                        poly(&[3.5, -4.0, 2.2, -0.3]),
                    ],
                    1.0,
                )
            },
            vec![0.45, 0.15, 0.4],
        ),
        // A 12-way cubic mix with a deterministic coefficient sweep.
        (
            "cubic_mix_12",
            WeightProblem {
                domain_floors: vec![0.05; 12],
                min_weight: 0.02,
                balance_reg: 1.5,
                ..WeightProblem::new(
                    (0..12)
                        .map(|i| {
                            let s = 1.0 + 0.37 * i as f64;
                            poly(&[1.0 + s, -1.3 * s, 0.9 * s, -0.11 * s])
                        })
                        .collect(),
                    1.0,
                )
            },
            (0..12).map(|i| 0.02 + 0.01 * i as f64).collect(),
        ),
    ]
}

/// `(problem, cold | warm, weights, objective, iterations)`.
type Pinned = (&'static str, &'static str, &'static [u64], u64, usize);

#[rustfmt::skip]
const EXPECTED: &[Pinned] = &[
    ("cubic_centroids", "cold", &[0x3fdf37f6ab29fdc9, 0x3fc350e85ac57abd, 0x3fd71f95277344d8], 0x40148b1a65c31aa1, 3),
    ("cubic_centroids", "warm", &[0x3fdf37f6ab29fdca, 0x3fc350e85ac57abd, 0x3fd71f95277344d8], 0x40148b1a65c31aa1, 3),
    ("nonconvex_cubic", "cold", &[0x3fe3d007f8805a65, 0x3fd85ff00eff4b36], 0x40062227c6fe41a3, 4),
    ("nonconvex_cubic", "warm", &[0x3fe3d007f8805a65, 0x3fd85ff00eff4b36], 0x40062227c6fe41a3, 4),
    ("floor_without_reg", "cold", &[0x3fec28f5c28f5c29, 0x3f847ae147ae147b, 0x3f847ae147ae147b], 0x4016d4fdf3b645a2, 3),
    ("floor_without_reg", "warm", &[0x3fec28f5c28f5c29, 0x3f847ae147ae147b, 0x3f847ae147ae147b], 0x4016d4fdf3b645a2, 3),
    ("concave_quadratic", "cold", &[0x3f847ae147ae147b, 0x3fefae147ae147ae], 0x400b999ed7c6fbd3, 39),
    ("concave_quadratic", "warm", &[0x3f847ae147ae147b, 0x3fefae147ae147ae], 0x400b999ed7c6fbd3, 39),
    ("quartic", "cold", &[0x3fe2b37bd936dc93, 0x3f847ae147ae147b, 0x3fd9f5314354d637], 0x401b9b9fef1c0dcb, 13),
    ("quartic", "warm", &[0x3fe2b37bd936dc92, 0x3f847ae147ae147b, 0x3fd9f5314354d637], 0x401b9b9fef1c0dcb, 12),
    ("cubic_mix_12", "cold", &[0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3fa0e33cfbf451d2, 0x3fb7bc3befb45a10, 0x3fc1573473ba3a9d, 0x3fc6332cf1cdae9a, 0x3fca8c1a507e34ff, 0x3fce766e1d6010f1], 0x4045e4b3389a07cf, 13),
    ("cubic_mix_12", "warm", &[0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3f947ae147ae147b, 0x3fa0e33cfbf451d2, 0x3fb7bc3befb45a10, 0x3fc1573473ba3a9d, 0x3fc6332cf1cdae9a, 0x3fca8c1a507e34ff, 0x3fce766e1d6010f1], 0x4045e4b3389a07cf, 13),
];

#[test]
fn iterative_path_is_bit_identical_to_pr11() {
    // One scratch across every solve: the buffers' history must not
    // leak into a result either.
    let mut scratch = SolveScratch::new();
    let mut checked = 0;
    for (name, problem, seed) in problems() {
        let cold = minimize_weights(&problem).unwrap();
        let warm = solve_from(&problem, &seed, &mut scratch).unwrap();
        for (kind, sol) in [("cold", cold), ("warm", warm)] {
            let &(_, _, weights, objective, iterations) = EXPECTED
                .iter()
                .find(|e| e.0 == name && e.1 == kind)
                .expect("every problem is pinned");
            let got: Vec<u64> = sol.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(got, weights, "{name} {kind}: weights {:?}", sol.weights);
            assert_eq!(
                sol.objective.to_bits(),
                objective,
                "{name} {kind}: objective"
            );
            assert_eq!(sol.iterations, iterations, "{name} {kind}: iterations");
            checked += 1;
        }
    }
    assert_eq!(checked, EXPECTED.len());
}
