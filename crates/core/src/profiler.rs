//! The offline profiler (§4, §7.1, Fig. 4).
//!
//! The profiler deploys a workload on a dedicated set of nodes ①, runs
//! it once per bandwidth point with every NIC token-bucket-throttled to
//! that fraction of link capacity ②, converts completion times into
//! slowdowns, and fits the polynomial sensitivity model ③. The paper's
//! bandwidth points are 5, 10, 25, 50, 75, 90 and 100 % (§7.1).
//!
//! Every isolated run is independent of every other, so each entry
//! point measures through one function that fans the (workload,
//! throttle point) cells out over [`saba_math::parallel_map`], then
//! draws each workload's noise on the caller in throttle order: a
//! table is bit for bit the one a serial loop measures.

use crate::sensitivity::{SensitivityModel, SensitivityTable};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saba_math::{default_threads, parallel_map, FitError};
use saba_sim::engine::{FairShareFabric, Simulation};
use saba_sim::ids::{AppId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_workload::noise::noisy_duration;
use saba_workload::runtime::{run_jobs, JobRuntime};
use saba_workload::spec::{JobPlan, WorkloadSpec};

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Bandwidth fractions to profile at (§7.1's percentages).
    pub bw_points: Vec<f64>,
    /// Polynomial degree `k` of the fitted model (§4.2 studies 1–3).
    pub degree: usize,
    /// Lognormal measurement-noise sigma (0 = noiseless).
    pub noise_sigma: f64,
    /// Seed for the noise stream, so profiles are reproducible.
    pub seed: u64,
    /// NIC line rate in bytes/s.
    pub nic_rate: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            bw_points: vec![0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 1.00],
            degree: 3,
            noise_sigma: 0.03,
            seed: 0x5aba,
            nic_rate: saba_sim::LINK_56G_BPS,
        }
    }
}

/// The offline profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    cfg: ProfilerConfig,
}

/// The raw measurements behind one profile.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// The fitted sensitivity model.
    pub model: SensitivityModel,
    /// Measured completion time per bandwidth point (seconds).
    pub completion_times: Vec<(f64, f64)>,
}

impl Profiler {
    /// Creates a profiler.
    ///
    /// # Panics
    ///
    /// Panics if no bandwidth points are configured, any point is
    /// outside `(0, 1]`, or 100 % is missing (slowdowns are relative to
    /// the unthrottled run, §4.1).
    pub fn new(cfg: ProfilerConfig) -> Self {
        assert!(!cfg.bw_points.is_empty(), "profiler needs bandwidth points");
        assert!(
            cfg.bw_points.iter().all(|&b| b > 0.0 && b <= 1.0),
            "bandwidth points must be in (0, 1]"
        );
        assert!(
            cfg.bw_points.iter().any(|&b| (b - 1.0).abs() < 1e-12),
            "profiling requires the unthrottled (100%) point"
        );
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.cfg
    }

    /// Profiles a workload at its own profiling scale (§4.1).
    pub fn profile(&self, spec: &WorkloadSpec) -> Result<ProfileOutcome, FitError> {
        self.profile_plan(&spec.name, &spec.profile_plan())
    }

    /// Profiles an arbitrary plan (used by the §4.2 accuracy studies to
    /// measure *runtime-scale* sample sets).
    pub fn profile_plan(&self, name: &str, plan: &JobPlan) -> Result<ProfileOutcome, FitError> {
        self.fit(name, self.measure_samples(name, plan))
    }

    /// Measures raw `(bandwidth fraction, completion seconds)` samples
    /// by running the plan in isolation at each throttle.
    pub fn measure_samples(&self, name: &str, plan: &JobPlan) -> Vec<(f64, f64)> {
        let mut measured = self.measure(&[(name, plan)]);
        measured.pop().expect("one plan, one sample set")
    }

    /// Profiles every workload in `specs`, producing the sensitivity
    /// table consumed by the controller (Fig. 4 ③ → §5).
    pub fn profile_all(&self, specs: &[WorkloadSpec]) -> Result<SensitivityTable, FitError> {
        let plans: Vec<JobPlan> = specs.iter().map(WorkloadSpec::profile_plan).collect();
        let named: Vec<(&str, &JobPlan)> = specs
            .iter()
            .zip(&plans)
            .map(|(spec, plan)| (spec.name.as_str(), plan))
            .collect();
        let mut table = SensitivityTable::new();
        for (&(name, _), samples) in named.iter().zip(self.measure(&named)) {
            table.insert(self.fit(name, samples)?.model);
        }
        Ok(table)
    }

    /// Samples of every `(name, plan)`, in order: all the isolated runs
    /// in parallel, then each workload's noise stream drawn in throttle
    /// order, exactly as one run after another would draw it.
    fn measure(&self, plans: &[(&str, &JobPlan)]) -> Vec<Vec<(f64, f64)>> {
        let points = &self.cfg.bw_points;
        let times = parallel_map(plans.len() * points.len(), default_threads(), |cell| {
            let (plan, bw) = (plans[cell / points.len()].1, points[cell % points.len()]);
            run_isolated(plan, bw, self.cfg.nic_rate)
        });
        let noisy = |(&(name, _), times): (&(&str, &JobPlan), &[f64])| {
            let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ hash_name(name));
            let samples = points.iter().zip(times);
            samples
                .map(|(&bw, &t)| (bw, noisy_duration(t, self.cfg.noise_sigma, &mut rng)))
                .collect()
        };
        plans
            .iter()
            .zip(times.chunks(points.len()))
            .map(noisy)
            .collect()
    }

    /// Fits one workload's model to its measured samples.
    fn fit(&self, name: &str, samples: Vec<(f64, f64)>) -> Result<ProfileOutcome, FitError> {
        let model = SensitivityModel::fit(name, &to_slowdowns(&samples), self.cfg.degree)?;
        Ok(ProfileOutcome {
            model,
            completion_times: samples,
        })
    }
}

/// Converts raw completion measurements into slowdown samples, dividing
/// by the unthrottled (highest-bandwidth) measurement.
pub fn to_slowdowns(samples: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let baseline = samples
        .iter()
        .cloned()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bandwidth points"))
        .map(|(_, t)| t)
        .expect("at least one sample");
    samples.iter().map(|&(b, t)| (b, t / baseline)).collect()
}

/// Runs `plan` alone on a single-switch cluster with all NICs throttled
/// to `bw`, returning the completion time.
fn run_isolated(plan: &JobPlan, bw: f64, nic_rate: f64) -> f64 {
    let mut topo = Topology::single_switch(plan.nodes, nic_rate);
    topo.throttle_all_nics(bw);
    let mut sim = Simulation::new(topo, FairShareFabric::default());
    let nodes = sim.topo().servers().to_vec();
    let mut jobs = vec![JobRuntime::new(
        AppId(0),
        ServiceLevel(0),
        nodes,
        plan.clone(),
        0,
    )];
    run_jobs(&mut sim, &mut jobs, |_, _| {}).expect("an isolated job cannot deadlock")[0]
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, for a stable per-workload noise stream.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use saba_workload::synthetic::{synthetic_workloads, SyntheticConfig};
    use saba_workload::{catalog, workload_by_name};

    fn quiet() -> Profiler {
        Profiler::new(ProfilerConfig {
            noise_sigma: 0.0,
            ..Default::default()
        })
    }

    /// The measurement of a profiler that runs one isolated run after
    /// another, drawing each run's noise as it ends.
    fn serial_samples(p: &Profiler, name: &str, plan: &JobPlan) -> Vec<(f64, f64)> {
        let cfg = p.config();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ hash_name(name));
        let runs = cfg.bw_points.iter().map(|&b| {
            let t = run_isolated(plan, b, cfg.nic_rate);
            (b, noisy_duration(t, cfg.noise_sigma, &mut rng))
        });
        runs.collect()
    }

    fn sample_bits(samples: &[(f64, f64)]) -> Vec<(u64, u64)> {
        samples
            .iter()
            .map(|(b, t)| (b.to_bits(), t.to_bits()))
            .collect()
    }

    /// Everything a model holds but its name: degree, coefficients,
    /// R² and samples, floats as their bits.
    fn model_bits(m: &SensitivityModel) -> Vec<u64> {
        let coeffs = m.poly.coeffs().iter().map(|c| c.to_bits());
        let samples = m
            .samples
            .iter()
            .flat_map(|(b, d)| [b.to_bits(), d.to_bits()]);
        let head = [m.degree as u64];
        head.into_iter()
            .chain(coeffs)
            .chain([m.r_squared.to_bits()])
            .chain(samples)
            .collect()
    }

    #[test]
    fn profile_all_is_a_serial_fold_bit_for_bit() {
        let degree2 = ProfilerConfig {
            noise_sigma: 0.0,
            bw_points: vec![0.25, 0.5, 0.75, 1.0],
            degree: 2,
            ..Default::default()
        };
        let synthetic = synthetic_workloads(&SyntheticConfig::default(), 0x5aba);
        let cases = [
            (ProfilerConfig::default(), catalog()),
            (ProfilerConfig::default(), synthetic),
            (degree2, catalog()),
        ];
        for (cfg, specs) in cases {
            let p = Profiler::new(cfg);
            let table = p.profile_all(&specs).unwrap();
            assert_eq!(table.len(), specs.len());
            for spec in &specs {
                let plan = spec.profile_plan();
                let serial = serial_samples(&p, &spec.name, &plan);
                let measured = p.measure_samples(&spec.name, &plan);
                assert_eq!(
                    sample_bits(&measured),
                    sample_bits(&serial),
                    "{}",
                    spec.name
                );
                let degree = p.config().degree;
                let fitted = SensitivityModel::fit(&spec.name, &to_slowdowns(&serial), degree);
                let folded = p.profile(spec).unwrap();
                let got = model_bits(table.get(&spec.name).unwrap());
                assert_eq!(got, model_bits(&fitted.unwrap()), "{}", spec.name);
                assert_eq!(got, model_bits(&folded.model), "{}", spec.name);
                assert_eq!(sample_bits(&folded.completion_times), sample_bits(&serial));
            }
        }
    }

    #[test]
    fn lr_profile_matches_fig1a() {
        let spec = workload_by_name("LR").unwrap();
        let out = quiet().profile(&spec).unwrap();
        let d25 = out.model.predict(0.25);
        let d75 = out.model.predict(0.75);
        assert!((d25 - 3.4).abs() < 0.25, "D(0.25) = {d25}");
        assert!((d75 - 1.3).abs() < 0.15, "D(0.75) = {d75}");
        assert!(out.model.r_squared > 0.95);
    }

    #[test]
    fn slowdowns_are_relative_to_unthrottled() {
        let s = to_slowdowns(&[(0.25, 400.0), (1.0, 100.0), (0.5, 200.0)]);
        assert!(s.contains(&(1.0, 1.0)));
        assert!(s.contains(&(0.25, 4.0)));
    }

    #[test]
    fn degree_increases_fit_quality_for_sql() {
        // SQL's knee (Fig. 5) needs a cubic.
        let spec = workload_by_name("SQL").unwrap();
        let fit_at = |k: usize| {
            let p = Profiler::new(ProfilerConfig {
                degree: k,
                noise_sigma: 0.0,
                ..Default::default()
            });
            p.profile(&spec).unwrap().model.r_squared
        };
        let (r1, r3) = (fit_at(1), fit_at(3));
        assert!(r3 > r1 + 0.1, "k=1: {r1}, k=3: {r3}");
        assert!(r3 > 0.9, "k=3 should fit SQL well, got {r3}");
    }

    #[test]
    fn noise_lowers_r_squared_but_not_fatally() {
        let spec = workload_by_name("LR").unwrap();
        let noisy = Profiler::new(ProfilerConfig {
            noise_sigma: 0.05,
            ..Default::default()
        });
        let out = noisy.profile(&spec).unwrap();
        assert!(out.model.r_squared > 0.8, "r2 = {}", out.model.r_squared);
        assert!(out.model.r_squared < 1.0);
    }

    #[test]
    fn profiles_are_reproducible() {
        let spec = workload_by_name("WC").unwrap();
        let p = Profiler::new(ProfilerConfig::default());
        let a = p.profile(&spec).unwrap();
        let b = p.profile(&spec).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn profile_all_builds_full_table() {
        let table = quiet().profile_all(&catalog()).unwrap();
        assert_eq!(table.len(), 10);
        assert!(table.get("LR").is_some());
        assert!(table.get("Sort").is_some());
        // LR is more sensitive than Sort everywhere below full bandwidth.
        let lr = table.get("LR").unwrap();
        let sort = table.get("Sort").unwrap();
        for b in [0.1, 0.25, 0.5, 0.75] {
            assert!(lr.predict(b) > sort.predict(b), "b = {b}");
        }
    }

    #[test]
    fn runtime_scale_accuracy_drops_for_ni() {
        // Fig. 6b: NI's model degrades most when the dataset scale
        // changes by 10x.
        let p = quiet();
        let ni = workload_by_name("NI").unwrap();
        let profiled = p.profile(&ni).unwrap().model;
        let runtime_samples =
            to_slowdowns(&p.measure_samples("NI", &ni.plan(10.0, ni.profile_nodes)));
        let r2_runtime = profiled.accuracy_against(&runtime_samples);
        assert!(
            r2_runtime < profiled.r_squared - 0.05,
            "NI accuracy should drop: {} -> {}",
            profiled.r_squared,
            r2_runtime
        );
    }

    #[test]
    #[should_panic(expected = "unthrottled")]
    fn missing_100pct_point_rejected() {
        let _ = Profiler::new(ProfilerConfig {
            bw_points: vec![0.25, 0.5],
            ..Default::default()
        });
    }
}
