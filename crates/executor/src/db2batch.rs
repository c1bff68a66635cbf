//! The `db2batch`-style measurement harness.
//!
//! "As the cost estimates used during optimization are not always accurate
//! with respect to what is observed at runtime, the runtime statistics are
//! obtained by executing the alternative QGMs via DB2's db2batch utility
//! tool … Each QGM is run multiple times to obtain an accurate baseline
//! cost, to remove noise related to the server or network load" (§3.2).
//!
//! Each run replays the simulator (first run cold, later runs warm) and
//! perturbs the elapsed time with multiplicative log-normal noise plus
//! occasional anomaly spikes — exactly the contamination the ranking
//! module's K-means clustering is there to remove.

use rand::Rng;

use galo_catalog::Database;
use galo_qgm::Qgm;

use crate::runtime::{Metrics, RunStats, Simulator};

/// One measured execution.
#[derive(Debug, Clone, Copy)]
pub struct RunMeasurement {
    pub elapsed_ms: f64,
    pub metrics: Metrics,
    /// True when the noise model injected an anomaly spike (test-only
    /// introspection; the ranking module must *not* look at this).
    pub anomalous: bool,
}

/// Noise configuration for the harness.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Standard deviation of the log-normal multiplicative noise.
    pub sigma: f64,
    /// Probability of an anomaly spike per run.
    pub anomaly_rate: f64,
    /// Spike magnitude range (multiplier).
    pub anomaly_factor: (f64, f64),
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            sigma: 0.03,
            anomaly_rate: 0.08,
            anomaly_factor: (2.0, 6.0),
        }
    }
}

/// Run a plan `runs` times and collect measurements.
pub fn db2batch<R: Rng>(
    db: &Database,
    qgm: &Qgm,
    runs: usize,
    noise: &NoiseModel,
    rng: &mut R,
) -> Vec<RunMeasurement> {
    let mut out = Vec::with_capacity(runs);
    if runs == 0 {
        return out;
    }
    // A run is a pure function of the plan and `warm`, and the noise is
    // drawn after it: simulate cold once and warm once, and draw each
    // run's noise in run order as if every run had been simulated afresh.
    let sim = Simulator::new(db);
    let plan = sim.prepare(qgm);
    let cold = sim.run_prepared(&plan, false);
    let warm = if runs > 1 {
        sim.run_prepared(&plan, true)
    } else {
        cold
    };
    for i in 0..runs {
        let base: RunStats = if i > 0 { warm } else { cold };
        // Log-normal multiplicative noise: exp(N(0, sigma)).
        let z: f64 = sample_standard_normal(rng);
        let mut elapsed = base.elapsed_ms * (z * noise.sigma).exp();
        let anomalous = rng.gen_bool(noise.anomaly_rate.clamp(0.0, 1.0));
        if anomalous {
            elapsed *= rng.gen_range(noise.anomaly_factor.0..noise.anomaly_factor.1);
        }
        out.push(RunMeasurement {
            elapsed_ms: elapsed,
            metrics: base.metrics,
            anomalous,
        });
    }
    out
}

/// Box-Muller standard normal sample.
fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galo_catalog::{col, ColumnStats, ColumnType, DatabaseBuilder, SystemConfig, Table};
    use galo_optimizer::Optimizer;
    use galo_sql::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Database, Qgm) {
        let mut b = DatabaseBuilder::new("batch", SystemConfig::default_1gb());
        b.add_table(
            Table::new(
                "T",
                vec![
                    col("A", ColumnType::Integer),
                    col("B", ColumnType::Varchar(100)),
                ],
            ),
            500_000,
            vec![
                ColumnStats::uniform(1_000, 0.0, 1_000.0, 4),
                ColumnStats::uniform(100_000, 0.0, 1e6, 50),
            ],
        );
        let db = b.build();
        let q = parse(&db, "q", "SELECT b FROM t WHERE a = 5").unwrap();
        let plan = Optimizer::new(&db).optimize(&q).unwrap();
        (db, plan)
    }

    #[test]
    fn measurements_are_noisy_but_centered() {
        let (db, plan) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let noise = NoiseModel {
            anomaly_rate: 0.0,
            ..NoiseModel::default()
        };
        let runs = db2batch(&db, &plan, 50, &noise, &mut rng);
        assert_eq!(runs.len(), 50);
        let clean = Simulator::new(&db).run(&plan, true).elapsed_ms;
        let mean: f64 =
            runs.iter().skip(1).map(|r| r.elapsed_ms).sum::<f64>() / (runs.len() - 1) as f64;
        assert!(
            (mean / clean - 1.0).abs() < 0.05,
            "mean {mean} should track base {clean}"
        );
        // Noise exists.
        let min = runs
            .iter()
            .map(|r| r.elapsed_ms)
            .fold(f64::INFINITY, f64::min);
        let max = runs.iter().map(|r| r.elapsed_ms).fold(0.0, f64::max);
        assert!(max > min);
    }

    #[test]
    fn anomalies_occur_at_configured_rate() {
        let (db, plan) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let noise = NoiseModel {
            anomaly_rate: 0.5,
            ..NoiseModel::default()
        };
        let runs = db2batch(&db, &plan, 200, &noise, &mut rng);
        let anomalies = runs.iter().filter(|r| r.anomalous).count();
        assert!((60..140).contains(&anomalies), "got {anomalies} anomalies");
        // Anomalous runs are visibly slower than the clean baseline.
        let clean = Simulator::new(&db).run(&plan, true).elapsed_ms;
        for r in runs.iter().filter(|r| r.anomalous) {
            assert!(r.elapsed_ms > clean * 1.5);
        }
    }

    #[test]
    fn first_run_is_cold() {
        let (db, plan) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let noise = NoiseModel {
            sigma: 0.0,
            anomaly_rate: 0.0,
            ..NoiseModel::default()
        };
        let runs = db2batch(&db, &plan, 3, &noise, &mut rng);
        assert!(runs[0].elapsed_ms > runs[1].elapsed_ms);
        assert!((runs[1].elapsed_ms / runs[2].elapsed_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let (db, plan) = setup();
        let noise = NoiseModel::default();
        let a = db2batch(&db, &plan, 10, &noise, &mut StdRng::seed_from_u64(9));
        let b = db2batch(&db, &plan, 10, &noise, &mut StdRng::seed_from_u64(9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.elapsed_ms, y.elapsed_ms);
        }
    }
}
