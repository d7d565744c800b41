//! The logical driver's liveness detector.
//!
//! The [`Supervisor`] tracks the last sign of life it was told of from
//! each shard and declares a shard **dead** once the gap exceeds the
//! missed-beat window. Detection is purely clock-driven, and the clock
//! is the caller's: the supervisor inside [`crate::front::Front`] runs
//! on the logical seconds of [`crate::service::AllocationService`],
//! which is what lets the failover regression assert exact detection
//! times. The threaded driver keeps no wall-clock supervisor: the call
//! that finds its shard dead takes it over (see [`crate::runtime`]).

use std::collections::BTreeSet;

/// Heartbeat cadence and the declare-dead window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// How often a healthy shard beats (seconds).
    pub interval: f64,
    /// A shard silent for longer than this is declared dead. Must
    /// cover several intervals so one late beat is not a death.
    pub window: f64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        Self {
            interval: 0.5,
            window: 2.0,
        }
    }
}

impl HeartbeatConfig {
    /// Validates invariants.
    pub fn validate(&self) -> Result<(), String> {
        if !self.interval.is_finite() || self.interval <= 0.0 {
            return Err(format!("interval must be positive, got {}", self.interval));
        }
        if self.window < self.interval {
            return Err(format!(
                "window {} must cover at least one interval {}",
                self.window, self.interval
            ));
        }
        Ok(())
    }
}

/// Tracks per-shard liveness from heartbeats.
#[derive(Debug)]
pub struct Supervisor {
    cfg: HeartbeatConfig,
    /// Last beat per shard; seeded with the construction time so a
    /// shard that never beats is still detected one window later.
    last_beat: Vec<f64>,
    dead: BTreeSet<usize>,
    deaths: u64,
}

impl Supervisor {
    /// A supervisor over `shards` shards, all presumed alive at `now`.
    ///
    /// # Errors
    ///
    /// `cfg` fails [`HeartbeatConfig::validate`].
    pub fn new(shards: usize, cfg: HeartbeatConfig, now: f64) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            last_beat: vec![now; shards],
            dead: BTreeSet::new(),
            deaths: 0,
        })
    }

    /// Records a heartbeat from `shard` at time `t`. Beats from a
    /// shard already declared dead are ignored — a late straggler must
    /// not cancel a takeover that is already underway; the shard
    /// rejoins via [`Supervisor::revive`].
    pub fn beat(&mut self, shard: usize, t: f64) {
        if self.dead.contains(&shard) {
            return;
        }
        let last = &mut self.last_beat[shard];
        *last = last.max(t);
    }

    /// Sweeps liveness at time `t`; returns shards **newly** declared
    /// dead (each shard is reported exactly once per death).
    pub fn scan(&mut self, t: f64) -> Vec<usize> {
        let mut newly = Vec::new();
        for (shard, &last) in self.last_beat.iter().enumerate() {
            if t - last > self.cfg.window && self.dead.insert(shard) {
                newly.push(shard);
                self.deaths += 1;
            }
        }
        newly
    }

    /// Marks `shard` alive again (standby took over), beating at `t`.
    pub fn revive(&mut self, shard: usize, t: f64) {
        self.dead.remove(&shard);
        self.last_beat[shard] = t;
    }

    /// True if `shard` is currently considered dead.
    pub fn is_dead(&self, shard: usize) -> bool {
        self.dead.contains(&shard)
    }

    /// Total deaths declared over the supervisor's lifetime.
    pub fn deaths(&self) -> u64 {
        self.deaths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig {
            interval: 0.5,
            window: 2.0,
        }
    }

    #[test]
    fn beating_shards_stay_alive() {
        let mut s = Supervisor::new(2, cfg(), 0.0).unwrap();
        let mut t = 0.0;
        while t < 100.0 {
            s.beat(0, t);
            s.beat(1, t);
            t += 0.5;
            assert!(s.scan(t).is_empty(), "at t={t}");
        }
        assert_eq!(s.deaths(), 0);
    }

    #[test]
    fn silent_shard_is_declared_dead_within_the_window() {
        let mut s = Supervisor::new(2, cfg(), 0.0).unwrap();
        // Shard 1 beats; shard 0 goes silent after t=1.
        s.beat(0, 1.0);
        let mut t = 1.0;
        let mut death_at = None;
        while t < 10.0 && death_at.is_none() {
            t += 0.5;
            s.beat(1, t);
            let newly = s.scan(t);
            if newly == [0] {
                death_at = Some(t);
            }
        }
        // Dead strictly after window elapses, at the first scan past it.
        let death_at = death_at.expect("shard 0 must die");
        assert!((death_at - 1.0) > 2.0, "not before the window: {death_at}");
        assert!(
            (death_at - 1.0) <= 2.5,
            "within one scan past it: {death_at}"
        );
        assert!(s.is_dead(0));
        assert!(!s.is_dead(1));
        // A death is reported exactly once (a later scan may kill
        // shard 1, which also went silent, but never re-reports 0).
        let later = s.scan(t + 5.0);
        assert!(!later.contains(&0), "{later:?}");
    }

    #[test]
    fn late_straggler_beat_does_not_cancel_a_death() {
        let mut s = Supervisor::new(1, cfg(), 0.0).unwrap();
        assert_eq!(s.scan(3.0), vec![0]);
        s.beat(0, 3.1); // straggler arrives mid-takeover
        assert!(s.is_dead(0));
        // Only an explicit revive clears the death.
        s.revive(0, 3.2);
        assert!(!s.is_dead(0));
        assert!(s.scan(3.5).is_empty());
        // And a revived shard dies again if it goes silent again.
        assert_eq!(s.scan(6.0), vec![0]);
        assert_eq!(s.deaths(), 2);
    }

    #[test]
    fn config_invariants() {
        assert!(HeartbeatConfig::default().validate().is_ok());
        assert!(HeartbeatConfig {
            interval: 0.0,
            window: 1.0
        }
        .validate()
        .is_err());
        assert!(HeartbeatConfig {
            interval: 1.0,
            window: 0.5
        }
        .validate()
        .is_err());
    }
}
