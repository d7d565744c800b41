//! Edge admission: per-tenant token-bucket rate limiting.
//!
//! The front ([`crate::front::Front::admit`]) runs every state-changing
//! request through its tenant's bucket before it reaches a shard — on
//! the in-process path and on the TCP path alike. A rejected request
//! gets a *retryable* [`saba_core::rpc::ErrorCode::RateLimited`] error
//! with a suggested backoff, so a well-behaved client slows down
//! instead of hammering a shard that is already saturated. Buckets
//! refill on the clock the driver passes in — logical seconds under
//! the deterministic driver, which keeps admission decisions
//! reproducible under replayed traces; wall seconds under the threaded
//! one.

use std::collections::HashMap;

/// Token-bucket parameters applied per tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketCfg {
    /// Sustained operations per (logical) second.
    pub rate: f64,
    /// Burst capacity: the bucket's full size in tokens.
    pub burst: f64,
}

impl Default for TokenBucketCfg {
    fn default() -> Self {
        Self {
            rate: 1000.0,
            burst: 100.0,
        }
    }
}

/// Why a [`TokenBucketCfg`] was rejected at construction.
///
/// Both shapes used to be accepted silently and misbehave at runtime:
/// a burst under one token can never hold a whole token, so every
/// request — even the first at zero load — is rejected; a non-positive
/// (or non-finite) rate never refills, and the `retry_after` hint
/// degenerated to a division by `f64::MIN_POSITIVE` (≈ 4.5e307 logical
/// seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionCfgError {
    /// `rate` was NaN, infinite, zero, or negative.
    InvalidRate,
    /// `burst` was NaN or below 1.0 (the bucket could never admit).
    InvalidBurst,
}

impl std::fmt::Display for AdmissionCfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidRate => write!(f, "token-bucket rate must be finite and positive"),
            Self::InvalidBurst => write!(
                f,
                "token-bucket burst must be at least 1.0 (a smaller bucket never admits)"
            ),
        }
    }
}

impl std::error::Error for AdmissionCfgError {}

impl TokenBucketCfg {
    /// Checks the config is usable: finite positive `rate`, `burst ≥ 1`.
    pub fn validate(&self) -> Result<(), AdmissionCfgError> {
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(AdmissionCfgError::InvalidRate);
        }
        if !self.burst.is_finite() || self.burst < 1.0 {
            return Err(AdmissionCfgError::InvalidBurst);
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: f64,
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admit {
    /// Let it through.
    Ok,
    /// Reject; retry after roughly this many logical seconds.
    RateLimited {
        /// Suggested client backoff (time until one token refills).
        retry_after: f64,
    },
}

/// Per-tenant token buckets on a logical clock.
#[derive(Debug, Default)]
pub struct Admission {
    cfg: Option<TokenBucketCfg>,
    buckets: HashMap<u32, Bucket>,
    admitted: u64,
    rejected: u64,
}

impl Admission {
    /// An admission gate with the given per-tenant policy; `None`
    /// disables rate limiting (everything admits).
    ///
    /// Degenerate configs are rejected here rather than misbehaving
    /// silently at admit time (see [`AdmissionCfgError`]).
    pub fn new(cfg: Option<TokenBucketCfg>) -> Result<Self, AdmissionCfgError> {
        if let Some(c) = &cfg {
            c.validate()?;
        }
        Ok(Self {
            cfg,
            ..Self::default()
        })
    }

    /// Charges one token to `tenant` at logical time `now`.
    ///
    /// Time moving backwards (a replayed batch with equal timestamps)
    /// is tolerated: refill is simply zero.
    pub fn try_admit(&mut self, tenant: u32, now: f64) -> Admit {
        let Some(cfg) = self.cfg else {
            self.admitted += 1;
            return Admit::Ok;
        };
        let b = self.buckets.entry(tenant).or_insert(Bucket {
            tokens: cfg.burst,
            last: now,
        });
        let dt = (now - b.last).max(0.0);
        b.tokens = (b.tokens + dt * cfg.rate).min(cfg.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            self.admitted += 1;
            Admit::Ok
        } else {
            self.rejected += 1;
            // `rate` is validated finite-positive at construction, so
            // the hint is always a meaningful backoff.
            Admit::RateLimited {
                retry_after: (1.0 - b.tokens) / cfg.rate,
            }
        }
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_policy_admits_everything() {
        let mut a = Admission::new(None).unwrap();
        for i in 0..10_000 {
            assert_eq!(a.try_admit(0, i as f64 * 1e-9), Admit::Ok);
        }
        assert_eq!(a.rejected(), 0);
    }

    #[test]
    fn burst_then_limited_then_refill() {
        let mut a = Admission::new(Some(TokenBucketCfg {
            rate: 10.0,
            burst: 5.0,
        }))
        .unwrap();
        // The burst admits 5 back-to-back...
        for _ in 0..5 {
            assert_eq!(a.try_admit(7, 0.0), Admit::Ok);
        }
        // ...then the 6th at the same instant is pushed back with a
        // sensible retry hint (1 token at 10/s = 0.1 s).
        match a.try_admit(7, 0.0) {
            Admit::RateLimited { retry_after } => {
                assert!((retry_after - 0.1).abs() < 1e-9, "{retry_after}");
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // After the hinted backoff the request admits.
        assert_eq!(a.try_admit(7, 0.1), Admit::Ok);
        assert_eq!(a.admitted(), 6);
        assert_eq!(a.rejected(), 1);
    }

    #[test]
    fn tenants_are_isolated() {
        let mut a = Admission::new(Some(TokenBucketCfg {
            rate: 1.0,
            burst: 1.0,
        }))
        .unwrap();
        assert_eq!(a.try_admit(1, 0.0), Admit::Ok);
        assert!(matches!(a.try_admit(1, 0.0), Admit::RateLimited { .. }));
        // Tenant 2's bucket is untouched by tenant 1's burn.
        assert_eq!(a.try_admit(2, 0.0), Admit::Ok);
    }

    #[test]
    fn sustained_rate_converges_to_cfg_rate() {
        let mut a = Admission::new(Some(TokenBucketCfg {
            rate: 100.0,
            burst: 10.0,
        }))
        .unwrap();
        let mut ok = 0u64;
        // Offer 10× the sustained rate for 10 logical seconds.
        for i in 0..10_000 {
            if a.try_admit(0, i as f64 * 1e-3) == Admit::Ok {
                ok += 1;
            }
        }
        // Admitted ≈ burst + rate × 10 s.
        assert!((1000..=1100).contains(&ok), "admitted {ok}");
    }

    #[test]
    fn sub_token_burst_rejected_at_construction() {
        // Regression: `burst < 1.0` used to be accepted silently, and the
        // bucket then rejected every request forever — even the very
        // first at zero load, since `tokens >= 1.0` could never hold.
        let err = Admission::new(Some(TokenBucketCfg {
            rate: 100.0,
            burst: 0.5,
        }))
        .expect_err("burst below one token must be rejected");
        assert_eq!(err, AdmissionCfgError::InvalidBurst);
        assert!(TokenBucketCfg {
            rate: 100.0,
            burst: f64::NAN,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn non_positive_rate_rejected_at_construction() {
        // Regression: `rate <= 0.0` used to be accepted silently; the
        // bucket never refilled and the retry hint degenerated into a
        // `f64::MIN_POSITIVE` division (≈ 4.5e307 logical seconds).
        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = Admission::new(Some(TokenBucketCfg { rate, burst: 10.0 }))
                .expect_err("degenerate rate must be rejected");
            assert_eq!(err, AdmissionCfgError::InvalidRate, "rate {rate}");
        }
    }
}
