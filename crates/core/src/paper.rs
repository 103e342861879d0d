//! The paper's published reference numbers, used by the reproduction
//! harness and EXPERIMENTS.md to report paper-vs-measured.

use dcf_trace::ComponentClass;

/// Table I category shares.
pub const CATEGORY_SHARES: [(&str, f64); 3] = [
    ("D_fixing", 0.703),
    ("D_error", 0.280),
    ("D_falsealarm", 0.017),
];

/// Table II failure shares per component class (fractions).
pub const COMPONENT_SHARES: [(ComponentClass, f64); 11] = [
    (ComponentClass::Hdd, 0.8184),
    (ComponentClass::Miscellaneous, 0.1020),
    (ComponentClass::Memory, 0.0306),
    (ComponentClass::Power, 0.0174),
    (ComponentClass::RaidCard, 0.0123),
    (ComponentClass::FlashCard, 0.0067),
    (ComponentClass::Motherboard, 0.0057),
    (ComponentClass::Ssd, 0.0031),
    (ComponentClass::Fan, 0.0019),
    (ComponentClass::HddBackboard, 0.0014),
    (ComponentClass::Cpu, 0.0004),
];

/// Table II failure share of `class` (a fraction).
pub fn component_share(class: ComponentClass) -> f64 {
    COMPONENT_SHARES
        .iter()
        .find(|(c, _)| *c == class)
        .map(|(_, s)| *s)
        .expect("Table II lists every component class")
}

/// Table V batch frequencies `(class, r100, r200, r500)` in percent.
pub const BATCH_FREQUENCIES: [(ComponentClass, f64, f64, f64); 10] = [
    (ComponentClass::Hdd, 55.4, 22.5, 2.5),
    (ComponentClass::Miscellaneous, 3.7, 1.3, 0.1),
    (ComponentClass::Power, 0.7, 0.4, 0.0),
    (ComponentClass::Memory, 0.4, 0.4, 0.1),
    (ComponentClass::RaidCard, 0.4, 0.2, 0.1),
    (ComponentClass::FlashCard, 0.1, 0.1, 0.0),
    (ComponentClass::Fan, 0.1, 0.0, 0.0),
    (ComponentClass::Motherboard, 0.0, 0.0, 0.0),
    (ComponentClass::Ssd, 0.0, 0.0, 0.0),
    (ComponentClass::Cpu, 0.0, 0.0, 0.0),
];

/// Fleet-wide mean time between failures, minutes (§III-B).
pub const MTBF_MINUTES: f64 = 6.8;
/// Per-data-center MTBF range, minutes (§III-B).
pub const MTBF_BY_DC_RANGE_MINUTES: (f64, f64) = (32.0, 390.0);
/// Days in the observation window.
pub const TRACE_DAYS: u64 = 1_411;
/// Approximate total FOT count ("over 290,000").
pub const TOTAL_FOTS: usize = 290_000;

/// §III-C lifecycle claims.
pub mod lifecycle {
    /// RAID-card failures within the first six months of service (47.4%).
    pub const RAID_FIRST_6_MONTHS: f64 = 0.474;
    /// HDD infant failure rate vs months 4–9 (+20%).
    pub const HDD_INFANT_OVER_TROUGH: f64 = 1.20;
    /// Motherboard failures after year 3 (72.1%).
    pub const MOTHERBOARD_AFTER_36_MONTHS: f64 = 0.721;
    /// Flash-card failures within the first 12 months (1.4%).
    pub const FLASH_FIRST_12_MONTHS: f64 = 0.014;
}

/// §III-D repeat/skew claims.
pub mod repeats {
    /// Fixed components that never repeat (> 85%).
    pub const NEVER_REPEAT_SHARE: f64 = 0.85;
    /// Ever-failed servers with repeating failures (~4.5%).
    pub const REPEAT_SERVER_SHARE: f64 = 0.045;
    /// The pathological server's FOT count (> 400).
    pub const MAX_FOTS_ONE_SERVER: u32 = 400;
}

/// Table IV buckets (out of 24 data centers).
pub mod table_iv {
    /// p < 0.01.
    pub const REJECTED_001: usize = 10;
    /// 0.01 ≤ p < 0.05.
    pub const BORDERLINE: usize = 4;
    /// p ≥ 0.05.
    pub const ACCEPTED: usize = 10;
}

/// §V-B correlated-component claims.
pub mod correlation {
    /// Ever-failed servers with same-day multi-component failures (0.49%).
    pub const PAIR_SERVER_SHARE: f64 = 0.0049;
    /// Two-component incidents involving a misc report (71.5%).
    pub const MISC_INVOLVED_SHARE: f64 = 0.715;
    /// The dominant Table VI cell: HDD–misc pairs (349).
    pub const HDD_MISC_PAIRS: usize = 349;
}

/// §VI response-time claims.
pub mod response {
    /// MTTR for `D_fixing`, days.
    pub const FIXING_MEAN_DAYS: f64 = 42.2;
    /// Median RT for `D_fixing`, days.
    pub const FIXING_MEDIAN_DAYS: f64 = 6.1;
    /// MTTR for `D_falsealarm`, days.
    pub const FALSE_ALARM_MEAN_DAYS: f64 = 19.1;
    /// Median RT for `D_falsealarm`, days.
    pub const FALSE_ALARM_MEDIAN_DAYS: f64 = 4.9;
    /// Share of FOTs with RT > 140 days (10%).
    pub const OVER_140_DAYS: f64 = 0.10;
    /// Share of FOTs with RT > 200 days (2%).
    pub const OVER_200_DAYS: f64 = 0.02;
    /// Median RT of the top-1% product lines, days (Figure 11).
    pub const TOP_LINES_MEDIAN_DAYS: f64 = 47.0;
    /// Among lines with <100 failures, share with median RT > 100 days.
    pub const SMALL_LINE_OVER_100D_SHARE: f64 = 0.21;
    /// Cross-line standard deviation of median RT, days.
    pub const LINE_STD_DEV_DAYS: f64 = 30.2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_shares_sum_to_about_one() {
        let total: f64 = COMPONENT_SHARES.iter().map(|(_, s)| s).sum();
        assert!((total - 0.9999).abs() < 0.001, "sum {total}");
    }

    #[test]
    fn component_share_covers_every_class() {
        assert_eq!(component_share(ComponentClass::Hdd), 0.8184);
        for class in ComponentClass::ALL {
            assert!(component_share(class) > 0.0, "{class:?}");
        }
    }

    #[test]
    fn category_shares_sum_to_one() {
        let total: f64 = CATEGORY_SHARES.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_iv_buckets_cover_24_dcs() {
        assert_eq!(
            table_iv::REJECTED_001 + table_iv::BORDERLINE + table_iv::ACCEPTED,
            24
        );
    }
}
