//! The online re-profiler (§4.2 drift).
//!
//! Fig. 6 shows profiled sensitivity models losing accuracy when
//! runtime conditions depart from the profiling configuration. For
//! long-running streaming jobs
//! ([`saba_workload::StreamingSpec`]), demand drift makes the frozen
//! model progressively wrong. The [`Reprofiler`] watches live
//! `(bandwidth fraction, slowdown)` samples per workload — bandwidth
//! fractions from [`saba_sim::probe::LinkProbe::utilization_samples`],
//! slowdowns from observed stage times — and scores the **prediction
//! error** `1 − R²` of the table's model against them (the Fig. 6
//! accuracy metric, inverted). Past tolerance it re-fits the model and
//! hands back the replacement; the caller pushes it through
//! `CentralController::update_model` /
//! `DistributedController::update_model`, which reprogram only the
//! ports the affected applications cross (the incremental-epoch path)
//! while every application keeps its PL (the §6 sticky-SL invariant).

use saba_core::sensitivity::{SensitivityModel, SensitivityTable};
use saba_telemetry::{EventKind, Registry, TelemetrySink};
use std::collections::BTreeMap;

/// Re-profiler tuning knobs.
#[derive(Debug, Clone)]
pub struct ReprofilerConfig {
    /// Prediction error (`1 − R²`, clamped to `[0, 1]`) above which a
    /// workload's model is re-fitted.
    pub tolerance: f64,
    /// Minimum live samples before a workload is scored at all — a
    /// couple of noisy points must not trip a refit.
    pub min_samples: usize,
    /// Polynomial degree of re-fitted models.
    pub degree: usize,
    /// Sliding-window capacity per workload; the oldest sample is
    /// dropped when a new one arrives at capacity.
    pub window: usize,
}

impl Default for ReprofilerConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.1,
            min_samples: 4,
            degree: 3,
            window: 64,
        }
    }
}

/// One accepted re-fit: the replacement model and the error either side
/// of it.
#[derive(Debug, Clone)]
pub struct Refit {
    /// The re-fitted model (same workload name; the table entry it
    /// replaces).
    pub model: SensitivityModel,
    /// Prediction error of the old model on the live window.
    pub error: f64,
    /// Residual error of the new model on the same window.
    pub refit_error: f64,
}

/// Watches live samples for sensitivity-model drift.
#[derive(Debug, Clone)]
pub struct Reprofiler {
    cfg: ReprofilerConfig,
    windows: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Reprofiler {
    /// Creates a re-profiler.
    ///
    /// # Panics
    ///
    /// Panics if the tolerance is not in `(0, 1)`, the window is empty,
    /// or `min_samples` cannot determine a degree-`degree` fit.
    pub fn new(cfg: ReprofilerConfig) -> Self {
        assert!(
            cfg.tolerance > 0.0 && cfg.tolerance < 1.0,
            "tolerance must be in (0, 1)"
        );
        assert!(
            cfg.min_samples > cfg.degree,
            "need at least degree + 1 samples to fit"
        );
        assert!(cfg.window >= cfg.min_samples, "window smaller than gate");
        Self {
            cfg,
            windows: BTreeMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReprofilerConfig {
        &self.cfg
    }

    /// Prediction error of `model` against live samples: `1 − R²`
    /// clamped to `[0, 1]` (a model worse than the sample mean saturates
    /// at 1).
    pub fn prediction_error(model: &SensitivityModel, samples: &[(f64, f64)]) -> f64 {
        (1.0 - model.accuracy_against(samples)).clamp(0.0, 1.0)
    }

    /// Feeds one live `(bandwidth fraction, slowdown)` observation for
    /// `workload` into its sliding window.
    ///
    /// The window keeps the *latest* measurement per operating point: a
    /// sample at a bandwidth already present replaces the stale entry
    /// instead of accumulating next to it. Telemetry sweeps revisit the
    /// same bandwidth grid every epoch, and mixing pre- and post-drift
    /// slowdowns at one bandwidth would both bias the re-fit and make
    /// the fitted curve non-monotone.
    pub fn observe(&mut self, workload: &str, bandwidth: f64, slowdown: f64) {
        let w = self.windows.entry(workload.to_string()).or_default();
        if let Some(stale) = w.iter().position(|&(b, _)| b == bandwidth) {
            w.remove(stale);
        } else if w.len() == self.cfg.window {
            w.remove(0);
        }
        w.push((bandwidth, slowdown));
    }

    /// Feeds a whole slowdown series (e.g. one
    /// [`saba_core::profiler::to_slowdowns`] sweep).
    pub fn observe_series(&mut self, workload: &str, samples: &[(f64, f64)]) {
        for &(b, d) in samples {
            self.observe(workload, b, d);
        }
    }

    /// Live samples currently windowed for `workload`.
    pub fn window_of(&self, workload: &str) -> &[(f64, f64)] {
        self.windows.get(workload).map_or(&[], Vec::as_slice)
    }

    /// Prediction error of the table's current model for `workload`
    /// against its live window; `None` when the window has not filled
    /// to `min_samples` or the table has no model.
    pub fn error_of(&self, table: &SensitivityTable, workload: &str) -> Option<f64> {
        let w = self.windows.get(workload)?;
        if w.len() < self.cfg.min_samples {
            return None;
        }
        table.get(workload).map(|m| Self::prediction_error(m, w))
    }

    /// Scores every watched workload against `table` and re-fits the
    /// ones whose prediction error exceeds the tolerance. A refit is
    /// accepted only when the new model actually explains the live
    /// window better; accepted refits consume (clear) the window, so a
    /// subsequent poll with no fresh drift is a no-op. Workloads under
    /// tolerance keep their windows and their models bit-identical —
    /// the no-op invariant the conformance suite pins.
    pub fn poll(&mut self, table: &SensitivityTable) -> Vec<Refit> {
        let mut refits = Vec::new();
        for (workload, window) in &mut self.windows {
            if window.len() < self.cfg.min_samples {
                continue;
            }
            let Some(current) = table.get(workload) else {
                continue;
            };
            let error = Self::prediction_error(current, window);
            if error <= self.cfg.tolerance {
                continue;
            }
            let Ok(model) = SensitivityModel::fit(workload, window, self.cfg.degree) else {
                continue;
            };
            let refit_error = Self::prediction_error(&model, window);
            if refit_error >= error {
                continue;
            }
            window.clear();
            refits.push(Refit {
                model,
                error,
                refit_error,
            });
        }
        refits
    }

    /// Exports per-workload drift state into the metrics `registry`:
    /// gauge `reprofile.<workload>.error` (when scoreable against
    /// `table`) and gauge `reprofile.<workload>.samples`.
    pub fn export_to(&self, registry: &mut Registry, table: &SensitivityTable) {
        for (workload, window) in &self.windows {
            registry.set_gauge(
                &format!("reprofile.{workload}.samples"),
                window.len() as f64,
            );
            if let Some(err) = self.error_of(table, workload) {
                registry.set_gauge(&format!("reprofile.{workload}.error"), err);
            }
        }
    }
}

/// Records one [`EventKind::ModelRefit`] per accepted refit into `sink`
/// at simulated time `t`. Guarded on [`TelemetrySink::enabled`], so a
/// null sink pays nothing.
pub fn record_refits<S: TelemetrySink>(t: f64, refits: &[Refit], sink: &mut S) {
    if !sink.enabled() {
        return;
    }
    for r in refits {
        sink.record(
            t,
            EventKind::ModelRefit {
                workload: r.model.workload.clone(),
                error: r.error,
                refit_error: r.refit_error,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_core::profiler::{to_slowdowns, Profiler, ProfilerConfig};
    use saba_core::{
        CentralController, Controller, ControllerConfig, DistributedController, MappingDb, Policy,
    };
    use saba_sim::ids::{AppId, NodeId};
    use saba_sim::topology::{SpineLeafConfig, Topology};
    use saba_workload::streaming_workloads;
    use saba_workload::synthetic::SyntheticConfig;

    fn lr_like() -> Vec<(f64, f64)> {
        [0.1f64, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&b| (b, 0.2 + 0.8 / b.max(0.18)))
            .collect()
    }

    fn flat() -> Vec<(f64, f64)> {
        [0.1f64, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&b| (b, 1.0 + 0.05 * (1.0 - b)))
            .collect()
    }

    fn rp() -> Reprofiler {
        Reprofiler::new(ReprofilerConfig {
            tolerance: 0.1,
            min_samples: 4,
            degree: 2,
            window: 32,
        })
    }

    fn table_with(samples: &[(f64, f64)]) -> SensitivityTable {
        let mut t = SensitivityTable::new();
        t.insert(SensitivityModel::fit("LR", samples, 2).unwrap());
        t
    }

    #[test]
    fn matching_samples_stay_under_tolerance() {
        let table = table_with(&lr_like());
        let mut r = rp();
        r.observe_series("LR", &lr_like());
        assert!(r.error_of(&table, "LR").unwrap() < 0.05);
        assert!(r.poll(&table).is_empty(), "no drift, no refit");
        // Windows survive a no-op poll, so drift can keep accumulating.
        assert_eq!(r.window_of("LR").len(), lr_like().len());
    }

    #[test]
    fn drifted_samples_trigger_an_improving_refit() {
        let table = table_with(&lr_like());
        let mut r = rp();
        r.observe_series("LR", &flat());
        let refits = r.poll(&table);
        assert_eq!(refits.len(), 1);
        let refit = &refits[0];
        assert_eq!(refit.model.workload, "LR");
        assert!(refit.error > 0.1, "error {}", refit.error);
        assert!(
            refit.refit_error < refit.error,
            "{} -> {}",
            refit.error,
            refit.refit_error
        );
        // The refit consumed the window: polling again is a no-op.
        assert!(r.poll(&table).is_empty());
        assert!(r.window_of("LR").is_empty());
    }

    #[test]
    fn gates_on_min_samples_and_known_workloads() {
        let table = table_with(&lr_like());
        let mut r = rp();
        r.observe("LR", 0.5, 9.0);
        r.observe("LR", 1.0, 1.0);
        assert_eq!(r.error_of(&table, "LR"), None, "window not filled");
        assert!(r.poll(&table).is_empty());
        // A workload the table never profiled is watched but never fit.
        r.observe_series("ghost", &flat());
        assert!(r.poll(&table).is_empty());
    }

    #[test]
    fn window_slides_at_capacity() {
        let mut r = Reprofiler::new(ReprofilerConfig {
            window: 4,
            min_samples: 3,
            degree: 2,
            ..Default::default()
        });
        for i in 0..6 {
            r.observe("LR", 0.1 * f64::from(i), f64::from(i));
        }
        let w = r.window_of("LR");
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].1, 2.0, "oldest samples dropped");
    }

    #[test]
    fn resampling_a_bandwidth_replaces_the_stale_entry() {
        let mut r = Reprofiler::new(ReprofilerConfig {
            window: 4,
            min_samples: 3,
            degree: 2,
            ..Default::default()
        });
        r.observe_series("LR", &[(0.25, 2.0), (0.5, 1.5), (1.0, 1.0)]);
        r.observe("LR", 0.5, 1.9);
        let w = r.window_of("LR");
        assert_eq!(w.len(), 3, "same-bandwidth sample must not accumulate");
        assert!(
            w.iter().filter(|&&(b, _)| b == 0.5).eq([&(0.5, 1.9)]),
            "latest measurement wins"
        );
    }

    #[test]
    fn refits_are_recorded_and_exported() {
        let table = table_with(&lr_like());
        let mut r = rp();
        r.observe_series("LR", &flat());
        let err = r.error_of(&table, "LR").unwrap();
        let mut registry = Registry::new();
        r.export_to(&mut registry, &table);
        assert_eq!(registry.gauge("reprofile.LR.samples"), Some(6.0));
        assert_eq!(registry.gauge("reprofile.LR.error"), Some(err));

        let refits = r.poll(&table);
        let mut rec = saba_telemetry::Recorder::default();
        record_refits(12.5, &refits, &mut rec);
        let events: Vec<_> = rec.trace.events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind.name(), "model_refit");
        let mut null = saba_telemetry::NullSink;
        record_refits(12.5, &refits, &mut null);
    }

    /// The end-to-end loop at test scale (the conformance driver runs
    /// the same story on the 1,944-server paper fabric): streaming
    /// demand drift degrades the frozen models, the re-profiler refits,
    /// both controller flavours absorb the push through their
    /// incremental paths, and the incrementally-maintained switch state
    /// matches a from-scratch controller at 1e-6.
    #[test]
    fn streaming_drift_round_trips_through_both_controllers() {
        let syn = SyntheticConfig {
            count: 4,
            profile_nodes: 4,
            stages: (2, 3),
            compute_secs: (2.0, 6.0),
            ..Default::default()
        };
        let streams = streaming_workloads(&syn, 7);
        let profiler = Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        });
        let bases: Vec<_> = streams.iter().map(|s| s.base.clone()).collect();
        let table = profiler.profile_all(&bases).unwrap();

        let topo = Topology::spine_leaf(&SpineLeafConfig::tiny(2));
        let servers = topo.servers().to_vec();
        let mut conns: Vec<(AppId, NodeId, NodeId, u64)> = Vec::new();
        for i in 0..streams.len() {
            for k in 0..3usize {
                let (a, b) = (
                    servers[(2 * i + k) % servers.len()],
                    servers[servers.len() - 1 - (i + k) % (servers.len() / 2)],
                );
                if a != b {
                    conns.push((AppId(i as u32), a, b, (i as u64) << 8 | k as u64));
                }
            }
        }

        // Drifted demand at t = 5000 s: live samples from the drifted
        // plan, scored against the frozen profile-time models.
        let mut r = rp();
        for s in &streams {
            let drifted = s.spec_at(5000.0);
            let live = to_slowdowns(&profiler.measure_samples(s.name(), &drifted.profile_plan()));
            r.observe_series(s.name(), &live);
        }
        let refits = r.poll(&table);
        assert!(!refits.is_empty(), "seeded drift should trip a refit");
        for refit in &refits {
            assert!(refit.refit_error < refit.error, "refit must improve");
        }

        // Incremental vs scratch at 1e-6, both flavours: the live
        // controller absorbs the refits through its incremental path; a
        // scratch controller replays the same logical history (original
        // table, same registrations, connections preloaded, same
        // refits) and must land on the same switch state.
        let ctl_cfg = ControllerConfig::default();
        let db = MappingDb::build(&table, 16, 1);
        let names: Vec<&str> = streams.iter().map(|s| s.name()).collect();
        let models: Vec<&SensitivityModel> = refits.iter().map(|r| &r.model).collect();
        round_trip(&names, &conns, &models, || {
            CentralController::new(ctl_cfg.clone(), table.clone(), &topo)
        });
        round_trip(&names, &conns, &models, || {
            DistributedController::new(ctl_cfg.clone(), db.clone(), &topo, 4)
        });
    }

    fn round_trip<P: Policy>(
        workloads: &[&str],
        conns: &[(AppId, NodeId, NodeId, u64)],
        refits: &[&SensitivityModel],
        fresh: impl Fn() -> Controller<P>,
    ) {
        let registered = || {
            let mut c = fresh();
            for (i, name) in workloads.iter().enumerate() {
                c.register(AppId(i as u32), name).unwrap();
            }
            c
        };
        let mut live = registered();
        for &(app, a, b, tag) in conns {
            live.conn_create(app, a, b, tag).unwrap();
        }
        let mut scratch = registered();
        for &(app, a, b, tag) in conns {
            scratch.preload_connection(app, a, b, tag);
        }
        for model in refits {
            live.update_model(model);
            scratch.update_model(model);
        }
        let close = |x: &[f64], y: &[f64]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(a, b)| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0))
        };
        let (live, scratch) = (live.recompute_all(), scratch.recompute_all());
        assert_eq!(live.len(), scratch.len());
        for (u, v) in live.iter().zip(&scratch) {
            assert_eq!(u.link, v.link);
            assert_eq!(
                u.config.sl_to_queue, v.config.sl_to_queue,
                "link {}",
                u.link.0
            );
            assert!(
                close(&u.config.weights, &v.config.weights),
                "link {}: {:?} vs {:?}",
                u.link.0,
                u.config.weights,
                v.config.weights
            );
        }
    }
}
