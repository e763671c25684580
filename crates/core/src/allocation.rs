//! The allocation optimizer (Eq. 4 / Eq. 6 of the paper).
//!
//! The aggregator maximizes `Σ Avg(R̂)_i · s_i` subject to
//! `Σ s_i = sr · Σ Ñ^Q_i` and `s_i ∈ [1, Ñ^Q_i]`. This is a fractional
//! knapsack over a box with one simplex constraint: the optimum saturates
//! providers in descending `Avg(R̂)` order, so a greedy pass is *exact* —
//! no LP solver required (the paper used OrTools; DESIGN.md records the
//! substitution).

use crate::{CoreError, Result};

/// One provider's (noisy) summary as seen by the aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationInput {
    /// `Ñ^Q` — noisy covering-cluster count (Eq. 5). May be negative after
    /// perturbation; the solver clamps it.
    pub noisy_n_q: f64,
    /// `Avg(R̂)~` — noisy average proportion (Eq. 5).
    pub noisy_avg_r: f64,
}

/// Solves Eq. 6, returning integer sample sizes (one per provider).
///
/// Steps:
/// 1. Clamp noisy counts to `≥ 1` (a provider always participates —
///    non-participation would leak the size of its data, §5.3.1).
/// 2. Budget `B = round(sr · Σ Ñ^Q_i)`, clamped to `[n, Σ caps]`.
/// 3. Give every provider the floor `s_i = 1` (the paper's `s_i > 1` open
///    bound; at least one cluster must be processed by everyone).
/// 4. Distribute the remainder greedily by descending `Avg(R̂)~`.
pub fn allocate_greedy(inputs: &[AllocationInput], sampling_rate: f64) -> Result<Vec<u64>> {
    if inputs.is_empty() {
        return Err(CoreError::NoProviders);
    }
    if !(sampling_rate.is_finite() && 0.0 < sampling_rate && sampling_rate < 1.0) {
        return Err(CoreError::InvalidSamplingRate(sampling_rate));
    }
    let caps: Vec<u64> = inputs
        .iter()
        .map(|i| {
            let c = i.noisy_n_q.round();
            if c.is_finite() && c >= 1.0 {
                c as u64
            } else {
                1
            }
        })
        .collect();
    let n = inputs.len() as u64;
    let total_cap: u64 = caps.iter().sum();
    let budget_raw = (sampling_rate * caps.iter().sum::<u64>() as f64).round() as u64;
    let budget = budget_raw.clamp(n, total_cap);

    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by(|&a, &b| {
        inputs[b]
            .noisy_avg_r
            .partial_cmp(&inputs[a].noisy_avg_r)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut alloc = vec![1u64; inputs.len()];
    let mut remaining = budget - n;
    for &i in &order {
        if remaining == 0 {
            break;
        }
        let extra = (caps[i] - 1).min(remaining);
        alloc[i] += extra;
        remaining -= extra;
    }
    Ok(alloc)
}

/// Exhaustive reference solver for tests: enumerates every integer
/// allocation with `s_i ∈ [1, cap_i]` summing to the budget and returns one
/// maximizing the objective. Exponential — test-size inputs only.
#[cfg(test)]
fn allocate_bruteforce(inputs: &[AllocationInput], sampling_rate: f64) -> Option<Vec<u64>> {
    let caps: Vec<u64> = inputs
        .iter()
        .map(|i| (i.noisy_n_q.round().max(1.0)) as u64)
        .collect();
    let n = inputs.len() as u64;
    let total_cap: u64 = caps.iter().sum();
    let budget = ((sampling_rate * total_cap as f64).round() as u64).clamp(n, total_cap);

    fn rec(
        caps: &[u64],
        weights: &[f64],
        idx: usize,
        left: u64,
        current: &mut Vec<u64>,
        best: &mut Option<(f64, Vec<u64>)>,
    ) {
        if idx == caps.len() {
            if left == 0 {
                let obj: f64 = current
                    .iter()
                    .zip(weights)
                    .map(|(&s, &w)| s as f64 * w)
                    .sum();
                if best.as_ref().map(|(b, _)| obj > *b).unwrap_or(true) {
                    *best = Some((obj, current.clone()));
                }
            }
            return;
        }
        let remaining_min: u64 = (caps.len() - idx - 1) as u64;
        let remaining_max: u64 = caps[idx + 1..].iter().sum();
        let lo = left.saturating_sub(remaining_max).max(1);
        let hi = caps[idx].min(left.saturating_sub(remaining_min));
        for s in lo..=hi {
            current.push(s);
            rec(caps, weights, idx + 1, left - s, current, best);
            current.pop();
        }
    }

    let weights: Vec<f64> = inputs.iter().map(|i| i.noisy_avg_r).collect();
    let mut best = None;
    rec(&caps, &weights, 0, budget, &mut Vec::new(), &mut best);
    best.map(|(_, alloc)| alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(n: f64, avg: f64) -> AllocationInput {
        AllocationInput {
            noisy_n_q: n,
            noisy_avg_r: avg,
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            allocate_greedy(&[], 0.2),
            Err(CoreError::NoProviders)
        ));
        let i = [input(10.0, 0.5)];
        assert!(allocate_greedy(&i, 0.0).is_err());
        assert!(allocate_greedy(&i, 1.0).is_err());
        assert!(allocate_greedy(&i, f64::NAN).is_err());
    }

    #[test]
    fn respects_budget_and_bounds() {
        let inputs = [
            input(40.0, 0.8),
            input(40.0, 0.2),
            input(40.0, 0.5),
            input(40.0, 0.1),
        ];
        let alloc = allocate_greedy(&inputs, 0.25).unwrap();
        assert_eq!(alloc.iter().sum::<u64>(), 40); // 0.25 · 160
        for (a, i) in alloc.iter().zip(&inputs) {
            assert!(*a >= 1 && *a <= i.noisy_n_q as u64);
        }
        // Heaviest provider saturates first.
        assert_eq!(alloc[0], 37); // 40 − 3 floors = 37 extras, below the 40 cap
    }

    #[test]
    fn biases_toward_heavy_providers() {
        // The provider "that holds the most data related to Q gets more
        // allocation" (§5.3.1).
        let inputs = [input(100.0, 0.9), input(100.0, 0.1)];
        let alloc = allocate_greedy(&inputs, 0.3).unwrap();
        assert!(alloc[0] > alloc[1]);
        assert_eq!(alloc.iter().sum::<u64>(), 60);
    }

    #[test]
    fn everyone_gets_at_least_one() {
        let inputs = [input(1000.0, 0.99), input(5.0, 0.0), input(5.0, 0.0)];
        let alloc = allocate_greedy(&inputs, 0.05).unwrap();
        assert!(alloc.iter().all(|&a| a >= 1));
    }

    #[test]
    fn clamps_negative_noisy_counts() {
        // Laplace noise can push Ñ^Q below zero; the solver must survive.
        let inputs = [input(-3.0, 0.4), input(20.0, 0.6)];
        let alloc = allocate_greedy(&inputs, 0.5).unwrap();
        assert!(alloc[0] >= 1);
        assert!(alloc[1] >= 1);
    }

    #[test]
    fn matches_bruteforce_objective_on_small_cases() {
        let cases: Vec<Vec<AllocationInput>> = vec![
            vec![input(4.0, 0.7), input(3.0, 0.2), input(5.0, 0.5)],
            vec![input(2.0, 0.1), input(2.0, 0.9)],
            vec![input(6.0, 0.3), input(6.0, 0.3), input(6.0, 0.3)],
            vec![
                input(3.0, 0.9),
                input(7.0, 0.8),
                input(2.0, 0.05),
                input(4.0, 0.5),
            ],
        ];
        for inputs in cases {
            for sr in [0.3, 0.5, 0.7] {
                let greedy = allocate_greedy(&inputs, sr).unwrap();
                let brute = allocate_bruteforce(&inputs, sr).expect("feasible");
                let obj = |a: &[u64]| -> f64 {
                    a.iter()
                        .zip(&inputs)
                        .map(|(&s, i)| s as f64 * i.noisy_avg_r)
                        .sum()
                };
                assert!(
                    obj(&greedy) >= obj(&brute) - 1e-9,
                    "greedy {greedy:?} (obj {}) worse than brute {brute:?} (obj {}) at sr={sr}",
                    obj(&greedy),
                    obj(&brute)
                );
                assert_eq!(
                    greedy.iter().sum::<u64>(),
                    brute.iter().sum::<u64>(),
                    "budget mismatch"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Greedy allocation always returns a feasible solution.
        #[test]
        fn always_feasible(
            raw in proptest::collection::vec((1.0f64..200.0, 0.0f64..1.0), 1..12),
            sr in 0.01f64..0.99,
        ) {
            let inputs: Vec<AllocationInput> = raw
                .iter()
                .map(|&(n, a)| AllocationInput { noisy_n_q: n, noisy_avg_r: a })
                .collect();
            let alloc = allocate_greedy(&inputs, sr).unwrap();
            prop_assert_eq!(alloc.len(), inputs.len());
            let caps: Vec<u64> = inputs.iter().map(|i| i.noisy_n_q.round().max(1.0) as u64).collect();
            let total_cap: u64 = caps.iter().sum();
            let budget = ((sr * total_cap as f64).round() as u64)
                .clamp(inputs.len() as u64, total_cap);
            prop_assert_eq!(alloc.iter().sum::<u64>(), budget);
            for (a, c) in alloc.iter().zip(&caps) {
                prop_assert!(*a >= 1 && a <= c);
            }
        }
    }
}
