//! Failure types (`error_type` in the FOT schema).
//!
//! The FMS records over 70 types across nine component classes; Table III
//! of the paper documents the most important ones and Figure 2 shows their
//! per-class shares. We model the named types from the paper verbatim plus
//! a representative set for the remaining classes.

use crate::ComponentClass;

/// Severity of a failure type: some types are fatal stops, others are
/// early warnings of potential failure (§II-A, Table III discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The component has stopped working (e.g. HDD `NotReady`).
    Fatal,
    /// A predictive or degraded-state alert (e.g. HDD `SMARTFail`).
    Warning,
}

/// A failure type as recorded in an FOT's `error_type` field.
///
/// Types named in the paper (Table III, Table VIII) keep their exact names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FailureType {
    // --- HDD (Table III a) ---
    /// Some HDD SMART value exceeds the predefined threshold.
    SmartFail,
    /// The RAID prediction error count exceeds the threshold.
    RaidPdPreErr,
    /// Some device file could not be detected.
    Missing,
    /// Some device file could not be accessed.
    NotReady,
    /// Failures detected on sectors that are not accessed.
    PendingLba,
    /// Large number of failed sectors detected on the HDD.
    TooMany,
    /// IO requests stuck in D status.
    DStatus,
    /// Repeated-fix marker type seen in the paper's Table VIII example.
    SixthFixing,

    // --- RAID card (Table III b) ---
    /// The bad block table (BBT) could not be accessed.
    BbtFail,
    /// The max bad block rate exceeds the predefined threshold.
    HighMaxBbRate,
    /// Abnormal cache setting due to BBU problems; degrades performance.
    RaidVdNoBbuCacheErr,

    // --- Flash card (Table III c) ---
    /// Flash card bad block table failure.
    FlashBbtFail,
    /// Flash card bad block rate exceeds threshold.
    FlashHighBbRate,
    /// Flash card device missing from the PCIe bus.
    FlashMissing,

    // --- Memory (Table III d) ---
    /// Large number of correctable errors detected.
    DimmCe,
    /// Uncorrectable errors detected on the memory.
    DimmUe,

    // --- SSD ---
    /// SSD SMART/media wearout indicator exceeded.
    SsdSmartFail,
    /// SSD reached its wear-leveling life limit.
    SsdWearOut,
    /// SSD device not ready.
    SsdNotReady,

    // --- Power ---
    /// PSU output voltage out of range.
    PsuVoltageFail,
    /// PSU internal fan failed.
    PsuFanFail,
    /// PSU absent / not responding.
    PsuMissing,

    // --- Fan ---
    /// Fan speed below threshold.
    FanSpeedLow,
    /// Fan stalled.
    FanStall,

    // --- Motherboard ---
    /// Board sensor or BMC failure.
    MbSensorFail,
    /// POST/boot failure attributed to the board.
    MbPostFail,
    /// Faulty SAS card on the board (the paper's batch Case 2).
    SasCardFail,

    // --- HDD backboard ---
    /// Backboard/backplane link errors.
    BackboardErr,

    // --- CPU ---
    /// Machine-check exception attributed to the CPU.
    CpuMce,
    /// CPU cache errors exceeded threshold.
    CpuCacheErr,

    // --- Miscellaneous (manually entered, §II-A) ---
    /// Manual ticket with no description at all (44% of misc FOTs).
    ManualNoDescription,
    /// Manual ticket the operator suspects is HDD-related (~25%).
    ManualSuspectHdd,
    /// Manual ticket marked "server crash" without clear reason (~25%).
    ManualServerCrash,
    /// Other manual tickets (remaining ~6%).
    ManualOther,
}

impl FailureType {
    /// Every failure type, grouped by class in [`ComponentClass::ALL`] order.
    pub const ALL: [FailureType; 34] = [
        FailureType::SmartFail,
        FailureType::RaidPdPreErr,
        FailureType::Missing,
        FailureType::NotReady,
        FailureType::PendingLba,
        FailureType::TooMany,
        FailureType::DStatus,
        FailureType::SixthFixing,
        FailureType::BbtFail,
        FailureType::HighMaxBbRate,
        FailureType::RaidVdNoBbuCacheErr,
        FailureType::FlashBbtFail,
        FailureType::FlashHighBbRate,
        FailureType::FlashMissing,
        FailureType::DimmCe,
        FailureType::DimmUe,
        FailureType::SsdSmartFail,
        FailureType::SsdWearOut,
        FailureType::SsdNotReady,
        FailureType::PsuVoltageFail,
        FailureType::PsuFanFail,
        FailureType::PsuMissing,
        FailureType::FanSpeedLow,
        FailureType::FanStall,
        FailureType::MbSensorFail,
        FailureType::MbPostFail,
        FailureType::SasCardFail,
        FailureType::BackboardErr,
        FailureType::CpuMce,
        FailureType::CpuCacheErr,
        FailureType::ManualNoDescription,
        FailureType::ManualSuspectHdd,
        FailureType::ManualServerCrash,
        FailureType::ManualOther,
    ];

    /// Dense index in [`FailureType::ALL`] order, which is declaration
    /// order (`all_lists_the_types_in_their_order` pins it).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The component class this failure type belongs to.
    pub fn class(self) -> ComponentClass {
        use FailureType::*;
        match self {
            SmartFail | RaidPdPreErr | Missing | NotReady | PendingLba | TooMany | DStatus
            | SixthFixing => ComponentClass::Hdd,
            BbtFail | HighMaxBbRate | RaidVdNoBbuCacheErr => ComponentClass::RaidCard,
            FlashBbtFail | FlashHighBbRate | FlashMissing => ComponentClass::FlashCard,
            DimmCe | DimmUe => ComponentClass::Memory,
            SsdSmartFail | SsdWearOut | SsdNotReady => ComponentClass::Ssd,
            PsuVoltageFail | PsuFanFail | PsuMissing => ComponentClass::Power,
            FanSpeedLow | FanStall => ComponentClass::Fan,
            MbSensorFail | MbPostFail | SasCardFail => ComponentClass::Motherboard,
            BackboardErr => ComponentClass::HddBackboard,
            CpuMce | CpuCacheErr => ComponentClass::Cpu,
            ManualNoDescription | ManualSuspectHdd | ManualServerCrash | ManualOther => {
                ComponentClass::Miscellaneous
            }
        }
    }

    /// Whether the type is a hard stop or an early warning.
    pub fn severity(self) -> Severity {
        use FailureType::*;
        match self {
            // Predictive / degraded-state alerts.
            SmartFail | RaidPdPreErr | PendingLba | HighMaxBbRate | RaidVdNoBbuCacheErr
            | FlashHighBbRate | DimmCe | SsdSmartFail | FanSpeedLow | MbSensorFail
            | CpuCacheErr => Severity::Warning,
            // Everything else is a hard failure.
            _ => Severity::Fatal,
        }
    }

    /// All failure types belonging to `class`.
    pub fn types_of(class: ComponentClass) -> Vec<FailureType> {
        Self::ALL
            .iter()
            .copied()
            .filter(|t| t.class() == class)
            .collect()
    }

    /// Fatal-severity types of `class` as a static slice, in
    /// [`FailureType::ALL`] order (the same order a
    /// [`FailureType::types_of`] + severity filter would produce).
    ///
    /// This is the allocation-free lookup behind the simulator's
    /// escalation sampling, which runs inside per-server hot loops.
    pub fn fatal_types_of(class: ComponentClass) -> &'static [FailureType] {
        use FailureType::*;
        match class {
            ComponentClass::Hdd => &[Missing, NotReady, TooMany, DStatus, SixthFixing],
            ComponentClass::RaidCard => &[BbtFail],
            ComponentClass::FlashCard => &[FlashBbtFail, FlashMissing],
            ComponentClass::Memory => &[DimmUe],
            ComponentClass::Ssd => &[SsdWearOut, SsdNotReady],
            ComponentClass::Power => &[PsuVoltageFail, PsuFanFail, PsuMissing],
            ComponentClass::Fan => &[FanStall],
            ComponentClass::Motherboard => &[MbPostFail, SasCardFail],
            ComponentClass::HddBackboard => &[BackboardErr],
            ComponentClass::Cpu => &[CpuMce],
            ComponentClass::Miscellaneous => &[
                ManualNoDescription,
                ManualSuspectHdd,
                ManualServerCrash,
                ManualOther,
            ],
        }
    }

    /// The type's name as it appears in FOTs (paper spelling where defined).
    pub fn name(self) -> &'static str {
        use FailureType::*;
        match self {
            SmartFail => "SMARTFail",
            RaidPdPreErr => "RaidPdPreErr",
            Missing => "Missing",
            NotReady => "NotReady",
            PendingLba => "PendingLBA",
            TooMany => "TooMany",
            DStatus => "DStatus",
            SixthFixing => "SixthFixing",
            BbtFail => "BBTFail",
            HighMaxBbRate => "HighMaxBbRate",
            RaidVdNoBbuCacheErr => "RaidVdNoBBU-CacheErr",
            FlashBbtFail => "FlashBBTFail",
            FlashHighBbRate => "FlashHighBbRate",
            FlashMissing => "FlashMissing",
            DimmCe => "DIMMCE",
            DimmUe => "DIMMUE",
            SsdSmartFail => "SSDSmartFail",
            SsdWearOut => "SSDWearOut",
            SsdNotReady => "SSDNotReady",
            PsuVoltageFail => "PSUVoltageFail",
            PsuFanFail => "PSUFanFail",
            PsuMissing => "PSUMissing",
            FanSpeedLow => "FanSpeedLow",
            FanStall => "FanStall",
            MbSensorFail => "MBSensorFail",
            MbPostFail => "MBPostFail",
            SasCardFail => "SASCardFail",
            BackboardErr => "BackboardErr",
            CpuMce => "CPUMce",
            CpuCacheErr => "CPUCacheErr",
            ManualNoDescription => "Manual-NoDescription",
            ManualSuspectHdd => "Manual-SuspectHDD",
            ManualServerCrash => "Manual-ServerCrash",
            ManualOther => "Manual-Other",
        }
    }
}

impl std::fmt::Display for FailureType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_types() {
        for class in ComponentClass::ALL {
            assert!(
                !FailureType::types_of(class).is_empty(),
                "{class} has no failure types"
            );
        }
    }

    #[test]
    fn all_list_is_complete_and_consistent() {
        // Sum of per-class lists equals ALL.
        let total: usize = ComponentClass::ALL
            .iter()
            .map(|&c| FailureType::types_of(c).len())
            .sum();
        assert_eq!(total, FailureType::ALL.len());
    }

    #[test]
    fn paper_examples_have_expected_classes_and_severities() {
        assert_eq!(FailureType::SmartFail.class(), ComponentClass::Hdd);
        assert_eq!(FailureType::SmartFail.severity(), Severity::Warning);
        assert_eq!(FailureType::NotReady.severity(), Severity::Fatal);
        assert_eq!(FailureType::DimmUe.class(), ComponentClass::Memory);
        assert_eq!(FailureType::DimmCe.severity(), Severity::Warning);
        assert_eq!(
            FailureType::SasCardFail.class(),
            ComponentClass::Motherboard
        );
        assert_eq!(FailureType::BbtFail.class(), ComponentClass::RaidCard);
    }

    #[test]
    fn all_lists_the_types_in_their_order() {
        // Tallies indexed by `ALL` position come out in `Ord` order.
        assert!(FailureType::ALL.windows(2).all(|w| w[0] < w[1]));
        for (i, t) in FailureType::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i, "{t}");
        }
    }

    #[test]
    fn names_match_paper_spelling() {
        assert_eq!(FailureType::SmartFail.name(), "SMARTFail");
        assert_eq!(FailureType::PendingLba.name(), "PendingLBA");
        assert_eq!(FailureType::DimmCe.to_string(), "DIMMCE");
        assert_eq!(
            FailureType::RaidVdNoBbuCacheErr.name(),
            "RaidVdNoBBU-CacheErr"
        );
    }

    #[test]
    fn fatal_types_match_the_dynamic_definition() {
        for class in ComponentClass::ALL {
            let expected: Vec<FailureType> = FailureType::types_of(class)
                .into_iter()
                .filter(|t| t.severity() == Severity::Fatal)
                .collect();
            assert_eq!(
                FailureType::fatal_types_of(class),
                expected.as_slice(),
                "static fatal slice out of sync for {class}"
            );
        }
    }

    #[test]
    fn misc_types_are_manual() {
        for t in FailureType::types_of(ComponentClass::Miscellaneous) {
            assert!(t.name().starts_with("Manual-"));
        }
    }
}
