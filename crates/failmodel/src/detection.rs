//! The detection model: when does the FMS *notice* a latent fault?
//!
//! §III-A's key insight is that the diurnal/weekly patterns of Figures 3–4
//! are detection artifacts: log-based detection only fires when the faulty
//! component gets exercised (so detections track workload), and manual
//! miscellaneous reports follow office hours. We therefore model a latent
//! fault time and sample the detection time from one of three channels.

use dcf_stats::rng::{Rng, RngCore};

use dcf_fleet::{working_hours_weight, UtilizationProfile};
use dcf_trace::{ComponentClass, SimDuration, SimTime};

/// How a fault becomes an FOT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionChannel {
    /// An FMS agent matches a syslog/dmesg pattern — only emitted while the
    /// component is being exercised, so detection intensity follows
    /// workload utilization.
    Syslog,
    /// Periodic status polling by the agent — workload independent.
    Polling,
    /// A human operator files the ticket — follows working hours.
    Manual,
}

/// Parameters of the detection process.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionModel {
    /// Syslog detection intensity (events/hour) at 100% utilization.
    pub syslog_rate_per_hour: f64,
    /// Polling period in hours (detection delay ~ Uniform(0, period)).
    pub poll_period_hours: f64,
    /// Manual reporting intensity (reports/hour) at peak office hours.
    pub manual_rate_per_hour: f64,
    /// Probability that an auto-detected class goes through syslog rather
    /// than polling.
    pub syslog_share_disks: f64,
    /// Same for the platform classes (RAID, board, power, fan, …).
    pub syslog_share_platform: f64,
}

impl Default for DetectionModel {
    fn default() -> Self {
        Self {
            syslog_rate_per_hour: 0.55,
            poll_period_hours: 8.0,
            manual_rate_per_hour: 0.075,
            syslog_share_disks: 0.85,
            syslog_share_platform: 0.60,
        }
    }
}

impl DetectionModel {
    /// A model where detection is workload-independent (the "active failure
    /// probing" mechanism §III-A says the failure management team is
    /// building). Used by the `active-probing` row of `examples/ablations.rs`.
    pub fn active_probing() -> Self {
        Self {
            syslog_share_disks: 0.0,
            syslog_share_platform: 0.0,
            poll_period_hours: 4.0,
            ..Self::default()
        }
    }

    /// Samples the channel a fault of `class` is detected through.
    pub fn sample_channel(&self, rng: &mut dyn RngCore, class: ComponentClass) -> DetectionChannel {
        match class {
            ComponentClass::Miscellaneous => DetectionChannel::Manual,
            ComponentClass::Hdd
            | ComponentClass::Ssd
            | ComponentClass::Memory
            | ComponentClass::FlashCard => {
                if rng.random::<f64>() < self.syslog_share_disks {
                    DetectionChannel::Syslog
                } else {
                    DetectionChannel::Polling
                }
            }
            _ => {
                if rng.random::<f64>() < self.syslog_share_platform {
                    DetectionChannel::Syslog
                } else {
                    DetectionChannel::Polling
                }
            }
        }
    }

    /// Samples the detection time for a fault latent since `fault_time`,
    /// detected through `channel`, on a server with workload `profile`.
    pub fn detection_time(
        &self,
        rng: &mut dyn RngCore,
        channel: DetectionChannel,
        fault_time: SimTime,
        profile: &UtilizationProfile,
    ) -> SimTime {
        match channel {
            DetectionChannel::Syslog => {
                thin_arrival(rng, fault_time, self.syslog_rate_per_hour, |t| {
                    profile.utilization(t)
                })
            }
            DetectionChannel::Polling => {
                let delay_h = rng.random::<f64>() * self.poll_period_hours;
                fault_time + SimDuration::from_secs((delay_h * 3600.0) as u64)
            }
            DetectionChannel::Manual => thin_arrival(
                rng,
                fault_time,
                self.manual_rate_per_hour,
                working_hours_weight,
            ),
        }
    }
}

/// First arrival of a non-homogeneous Poisson process with intensity
/// `max_rate_per_hour × weight(t)` (weight in `[0, 1]`), via thinning.
fn thin_arrival(
    rng: &mut dyn RngCore,
    start: SimTime,
    max_rate_per_hour: f64,
    weight: impl Fn(SimTime) -> f64,
) -> SimTime {
    debug_assert!(max_rate_per_hour > 0.0);
    let mut t = start;
    // Hard cap keeps pathological weights from spinning forever; at the cap
    // the fault is detected regardless (the agent's daily deep scan).
    for _ in 0..10_000 {
        let u: f64 = rng.random::<f64>().max(1e-300);
        let gap_hours = -u.ln() / max_rate_per_hour;
        t += SimDuration::from_secs((gap_hours * 3600.0) as u64 + 1);
        if rng.random::<f64>() < weight(t).clamp(0.0, 1.0) {
            return t;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_stats::rng::StdRng;
    use dcf_trace::WorkloadKind;

    #[test]
    fn misc_is_always_manual() {
        let m = DetectionModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(
                m.sample_channel(&mut rng, ComponentClass::Miscellaneous),
                DetectionChannel::Manual
            );
        }
    }

    #[test]
    fn disks_are_mostly_syslog() {
        let m = DetectionModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let syslog = (0..10_000)
            .filter(|_| m.sample_channel(&mut rng, ComponentClass::Hdd) == DetectionChannel::Syslog)
            .count();
        let share = syslog as f64 / 10_000.0;
        assert!((share - 0.85).abs() < 0.02, "syslog share {share}");
    }

    #[test]
    fn detection_never_precedes_fault() {
        let m = DetectionModel::default();
        let profile = UtilizationProfile::for_workload(WorkloadKind::OnlineService);
        let mut rng = StdRng::seed_from_u64(3);
        let fault = SimTime::from_days(10);
        for channel in [
            DetectionChannel::Syslog,
            DetectionChannel::Polling,
            DetectionChannel::Manual,
        ] {
            for _ in 0..200 {
                let det = m.detection_time(&mut rng, channel, fault, &profile);
                assert!(det >= fault);
            }
        }
    }

    #[test]
    fn syslog_detections_cluster_in_busy_hours() {
        let m = DetectionModel::default();
        let profile = UtilizationProfile::for_workload(WorkloadKind::OnlineService);
        let mut rng = StdRng::seed_from_u64(4);
        let mut hour_counts = [0usize; 24];
        for i in 0..20_000 {
            // Faults spread uniformly through the day.
            let fault = SimTime::from_secs(i * 4321 % (86_400 * 7));
            let det = m.detection_time(&mut rng, DetectionChannel::Syslog, fault, &profile);
            hour_counts[det.hour_of_day() as usize] += 1;
        }
        let afternoon: usize = (13..18).map(|h| hour_counts[h]).sum();
        let night: usize = (1..6).map(|h| hour_counts[h]).sum();
        assert!(
            afternoon as f64 > 1.35 * night as f64,
            "afternoon {afternoon} vs night {night}"
        );
    }

    #[test]
    fn manual_detections_avoid_weekends() {
        let m = DetectionModel::default();
        let profile = UtilizationProfile::for_workload(WorkloadKind::BatchProcessing);
        let mut rng = StdRng::seed_from_u64(5);
        let mut weekend = 0usize;
        let n = 10_000;
        for i in 0..n {
            let fault = SimTime::from_secs(i * 9173 % (86_400 * 28));
            let det = m.detection_time(&mut rng, DetectionChannel::Manual, fault, &profile);
            if det.weekday().is_weekend() {
                weekend += 1;
            }
        }
        // Uniform would give 2/7 ≈ 28.6%; office hours push well below.
        assert!((weekend as f64 / n as f64) < 0.18);
    }

    #[test]
    fn polling_is_time_of_day_independent_and_bounded() {
        let m = DetectionModel::default();
        let profile = UtilizationProfile::for_workload(WorkloadKind::BatchProcessing);
        let mut rng = StdRng::seed_from_u64(6);
        let fault = SimTime::from_days(1);
        for _ in 0..1_000 {
            let det = m.detection_time(&mut rng, DetectionChannel::Polling, fault, &profile);
            let delay = det.since(fault).as_secs() as f64 / 3600.0;
            assert!(delay <= m.poll_period_hours + 1e-9);
        }
    }

    #[test]
    fn active_probing_disables_syslog_channel() {
        let m = DetectionModel::active_probing();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                m.sample_channel(&mut rng, ComponentClass::Hdd),
                DetectionChannel::Polling
            );
        }
    }
}
