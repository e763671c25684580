//! Total privacy-budget accounting for interactive query answering (§5.4).

use crate::composition::PrivacyCost;
use crate::{check_delta, check_epsilon, DpError, Result};

/// Tracks an analyst's total budget `(ξ, ψ)` across queries.
///
/// "The analyst can continue sending queries until their total budget is
/// consumed" (§3, DP Properties): each answered query charges its
/// `(ε, δ)` via sequential composition; once a charge would overrun either
/// component, the accountant rejects the query *before* any data is
/// touched.
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    total: PrivacyCost,
    spent: PrivacyCost,
    queries: u64,
}

impl BudgetAccountant {
    /// Creates an accountant with total budget `(xi, psi)`.
    pub fn new(xi: f64, psi: f64) -> Result<Self> {
        check_epsilon(xi)?;
        check_delta(psi)?;
        Ok(Self {
            total: PrivacyCost {
                eps: xi,
                delta: psi,
            },
            spent: PrivacyCost::ZERO,
            queries: 0,
        })
    }

    /// The total budget.
    #[inline]
    pub fn total(&self) -> PrivacyCost {
        self.total
    }

    /// The budget consumed so far.
    #[inline]
    pub fn spent(&self) -> PrivacyCost {
        self.spent
    }

    /// The budget still available.
    pub fn remaining(&self) -> PrivacyCost {
        PrivacyCost {
            eps: (self.total.eps - self.spent.eps).max(0.0),
            delta: (self.total.delta - self.spent.delta).max(0.0),
        }
    }

    /// Number of successfully charged queries.
    #[inline]
    pub fn queries_answered(&self) -> u64 {
        self.queries
    }

    /// Whether a charge of `cost` would fit the remaining budget.
    ///
    /// A small relative tolerance absorbs floating-point dust from repeated
    /// ξ/n charges summing to one ulp above ξ.
    pub fn can_afford(&self, cost: PrivacyCost) -> bool {
        const TOL: f64 = 1e-9;
        let rem = self.remaining();
        cost.eps <= rem.eps * (1.0 + TOL) + TOL * self.total.eps
            && cost.delta <= rem.delta * (1.0 + TOL) + TOL * self.total.delta.max(f64::MIN_POSITIVE)
    }

    /// Charges `cost`, failing (and charging nothing) if it does not fit.
    pub fn charge(&mut self, cost: PrivacyCost) -> Result<()> {
        if !self.can_afford(cost) {
            let rem = self.remaining();
            return Err(DpError::BudgetExhausted {
                requested_eps: cost.eps,
                remaining_eps: rem.eps,
                requested_delta: cost.delta,
                remaining_delta: rem.delta,
            });
        }
        self.spent = self.spent.and_then(cost);
        self.queries += 1;
        Ok(())
    }

    /// Whether the ε budget is (effectively) fully consumed.
    #[cfg(test)]
    fn is_exhausted(&self) -> bool {
        self.remaining().eps <= self.total.eps * 1e-12
    }
}

/// A thread-safe, shareable [`BudgetAccountant`] for concurrent sessions.
///
/// Concurrent query engines answer many queries of one analyst session in
/// parallel; the charge for each query must be atomic with respect to the
/// affordability check or two racing queries could both observe "enough
/// budget left" and jointly overspend `(ξ, ψ)`. This wrapper puts the
/// accountant behind a mutex so check-and-charge is a single critical
/// section, and behind an `Arc` so clones observe the same ledger.
#[derive(Debug, Clone)]
pub struct SharedAccountant {
    inner: std::sync::Arc<std::sync::Mutex<BudgetAccountant>>,
}

impl SharedAccountant {
    /// Creates a shared accountant with total budget `(xi, psi)`.
    pub fn new(xi: f64, psi: f64) -> Result<Self> {
        Ok(Self::from_accountant(BudgetAccountant::new(xi, psi)?))
    }

    /// Wraps an existing accountant (e.g. one restored from a ledger).
    fn from_accountant(accountant: BudgetAccountant) -> Self {
        Self {
            inner: std::sync::Arc::new(std::sync::Mutex::new(accountant)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BudgetAccountant> {
        // A poisoned ledger means a panic mid-charge; the accountant only
        // mutates `spent` after all checks pass, so the state stays sound.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The total budget.
    pub fn total(&self) -> PrivacyCost {
        self.lock().total()
    }

    /// The budget consumed so far.
    pub fn spent(&self) -> PrivacyCost {
        self.lock().spent()
    }

    /// The budget still available.
    pub fn remaining(&self) -> PrivacyCost {
        self.lock().remaining()
    }

    /// Number of successfully charged queries.
    pub fn queries_answered(&self) -> u64 {
        self.lock().queries_answered()
    }

    /// Whether a charge of `cost` would fit *right now* (advisory only:
    /// another thread may charge in between; use [`Self::charge`] as the
    /// authoritative gate).
    pub fn can_afford(&self, cost: PrivacyCost) -> bool {
        self.lock().can_afford(cost)
    }

    /// Atomically checks and charges `cost`, failing (and charging
    /// nothing) if it does not fit.
    pub fn charge(&self, cost: PrivacyCost) -> Result<()> {
        self.lock().charge(cost)
    }

    /// Whether the ε budget is (effectively) fully consumed.
    #[cfg(test)]
    fn is_exhausted(&self) -> bool {
        self.lock().is_exhausted()
    }

    /// A snapshot copy of the underlying accountant.
    pub fn snapshot(&self) -> BudgetAccountant {
        self.lock().clone()
    }
}

/// Per-analyst budget ledgers for a serving endpoint.
///
/// A federation server answers many remote analysts, each entitled to one
/// total budget `(ξ, ψ)`. Keying the ledger by the analyst's declared
/// identity — rather than by connection — closes two overspending holes:
/// reconnecting cannot reset a spent budget, and opening parallel
/// connections cannot multiply it, because every connection of one analyst
/// is handed a clone of the *same* [`SharedAccountant`] (whose
/// check-and-charge is atomic).
#[derive(Debug)]
pub struct BudgetDirectory {
    xi: f64,
    psi: f64,
    ledgers: std::sync::Mutex<std::collections::HashMap<String, SharedAccountant>>,
}

impl BudgetDirectory {
    /// Creates a directory granting every analyst the budget `(xi, psi)`.
    pub fn new(xi: f64, psi: f64) -> Result<Self> {
        // Validate once up front so `accountant` can never fail later.
        BudgetAccountant::new(xi, psi)?;
        Ok(Self {
            xi,
            psi,
            ledgers: std::sync::Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The budget each analyst is granted.
    pub fn per_analyst(&self) -> PrivacyCost {
        PrivacyCost {
            eps: self.xi,
            delta: self.psi,
        }
    }

    /// The ledger for `analyst`, created on first sight. All callers asking
    /// for the same identity share one atomic ledger.
    pub fn accountant(&self, analyst: &str) -> SharedAccountant {
        let mut ledgers = self
            .ledgers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ledgers
            .entry(analyst.to_owned())
            .or_insert_with(|| {
                SharedAccountant::new(self.xi, self.psi).expect("budget validated at construction")
            })
            .clone()
    }

    /// Number of distinct analysts seen so far.
    pub fn analysts(&self) -> usize {
        self.ledgers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_until_exhausted() {
        let mut acc = BudgetAccountant::new(1.0, 1e-3).unwrap();
        let per = PrivacyCost {
            eps: 0.4,
            delta: 1e-4,
        };
        assert!(acc.charge(per).is_ok());
        assert!(acc.charge(per).is_ok());
        // Third charge would need 0.4 with only 0.2 left.
        let err = acc.charge(per).unwrap_err();
        assert!(matches!(err, DpError::BudgetExhausted { .. }));
        assert_eq!(acc.queries_answered(), 2);
        assert!((acc.remaining().eps - 0.2).abs() < 1e-12);
    }

    #[test]
    fn failed_charge_spends_nothing() {
        let mut acc = BudgetAccountant::new(0.5, 0.0).unwrap();
        let big = PrivacyCost {
            eps: 1.0,
            delta: 0.0,
        };
        assert!(acc.charge(big).is_err());
        assert_eq!(acc.spent(), PrivacyCost::ZERO);
        assert_eq!(acc.queries_answered(), 0);
    }

    #[test]
    fn delta_budget_enforced_independently() {
        let mut acc = BudgetAccountant::new(10.0, 1e-6).unwrap();
        let cost = PrivacyCost {
            eps: 0.1,
            delta: 1e-6,
        };
        assert!(acc.charge(cost).is_ok());
        // Plenty of ε left but δ is gone.
        assert!(acc.charge(cost).is_err());
    }

    #[test]
    fn tolerance_absorbs_float_dust() {
        // ξ/n charged n times must not fail on the last query.
        let n = 1000u64;
        let mut acc = BudgetAccountant::new(1.0, 1e-3).unwrap();
        let per = PrivacyCost {
            eps: 1.0 / n as f64,
            delta: 1e-3 / n as f64,
        };
        for i in 0..n {
            assert!(acc.charge(per).is_ok(), "query {i} rejected");
        }
        assert!(acc.is_exhausted());
    }

    #[test]
    fn shared_accountant_is_atomic_across_threads() {
        // 8 threads race to charge 0.25 each out of ξ = 1: exactly 4
        // charges may succeed, no matter the interleaving.
        let acc = SharedAccountant::new(1.0, 1e-2).unwrap();
        let per = PrivacyCost {
            eps: 0.25,
            delta: 1e-3,
        };
        let successes: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let acc = acc.clone();
                    scope.spawn(move || u64::from(acc.charge(per).is_ok()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(successes, 4);
        assert_eq!(acc.queries_answered(), 4);
        assert!(acc.spent().eps <= 1.0 + 1e-9);
        assert!(acc.spent().delta <= 1e-2 + 1e-9);
    }

    #[test]
    fn shared_accountant_mirrors_plain_api() {
        let acc = SharedAccountant::new(2.0, 1e-3).unwrap();
        let cost = PrivacyCost {
            eps: 1.0,
            delta: 1e-4,
        };
        assert!(acc.can_afford(cost));
        acc.charge(cost).unwrap();
        assert_eq!(acc.total().eps, 2.0);
        assert!((acc.remaining().eps - 1.0).abs() < 1e-12);
        assert!(!acc.is_exhausted());
        let snap = acc.snapshot();
        assert_eq!(snap.queries_answered(), 1);
    }

    #[test]
    fn directory_shares_ledgers_by_identity() {
        let dir = BudgetDirectory::new(1.0, 1e-2).unwrap();
        let cost = PrivacyCost {
            eps: 0.6,
            delta: 1e-3,
        };
        // Alice spends on one "connection"…
        dir.accountant("alice").charge(cost).unwrap();
        // …and cannot double her budget by asking again (reconnect).
        assert!(dir.accountant("alice").charge(cost).is_err());
        // Bob's ledger is independent.
        assert!(dir.accountant("bob").charge(cost).is_ok());
        assert_eq!(dir.analysts(), 2);
        assert_eq!(dir.per_analyst().eps, 1.0);
    }

    #[test]
    fn directory_is_atomic_across_racing_connections() {
        // 8 racing "connections" of one analyst charging 0.25 each out of
        // ξ = 1: exactly 4 may succeed, as with one shared accountant.
        let dir = BudgetDirectory::new(1.0, 1e-2).unwrap();
        let per = PrivacyCost {
            eps: 0.25,
            delta: 1e-3,
        };
        let successes: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let dir = &dir;
                    scope.spawn(move || u64::from(dir.accountant("carol").charge(per).is_ok()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(successes, 4);
        assert_eq!(dir.accountant("carol").queries_answered(), 4);
    }

    #[test]
    fn directory_rejects_invalid_budgets() {
        assert!(BudgetDirectory::new(-1.0, 1e-2).is_err());
        assert!(BudgetDirectory::new(1.0, 2.0).is_err());
    }

    #[test]
    fn zero_delta_budget_allows_pure_dp_only() {
        let mut acc = BudgetAccountant::new(1.0, 0.0).unwrap();
        assert!(acc
            .charge(PrivacyCost {
                eps: 0.1,
                delta: 0.0
            })
            .is_ok());
        assert!(acc
            .charge(PrivacyCost {
                eps: 0.1,
                delta: 1e-9
            })
            .is_err());
    }
}
