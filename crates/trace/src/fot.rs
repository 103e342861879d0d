//! The failure operation ticket (FOT) — the unit record of the entire study.

use crate::{
    ComponentClass, DataCenterId, FailureType, FotId, OperatorId, ProductLineId, RackPosition,
    ServerId, SimTime,
};

/// The three FOT categories of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FotCategory {
    /// `D_fixing` — operators issue a repair order (70.3% in the paper).
    Fixing,
    /// `D_error` — not repaired (typically out-of-warranty); the server is
    /// left in production or decommissioned (28.0%).
    Error,
    /// `D_falsealarm` — marked as a false alarm (1.7%).
    FalseAlarm,
}

impl FotCategory {
    /// All categories in Table I order.
    pub const ALL: [FotCategory; 3] = [
        FotCategory::Fixing,
        FotCategory::Error,
        FotCategory::FalseAlarm,
    ];

    /// The paper's name for the category.
    pub fn name(self) -> &'static str {
        match self {
            FotCategory::Fixing => "D_fixing",
            FotCategory::Error => "D_error",
            FotCategory::FalseAlarm => "D_falsealarm",
        }
    }

    /// Whether FOTs of this category count as *failures* in the paper's
    /// analyses ("we consider every FOT in D_fixing or D_error as a
    /// failure", §II).
    pub fn is_failure(self) -> bool {
        !matches!(self, FotCategory::FalseAlarm)
    }

    /// Whether FOTs of this category carry an operator response
    /// (`D_fixing` and `D_falsealarm` do; `D_error` does not).
    pub fn has_response(self) -> bool {
        !matches!(self, FotCategory::Error)
    }
}

impl std::fmt::Display for FotCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The closing action an operator took on an FOT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorAction {
    /// Issued a repair order to the repair contractors (closes the FOT).
    IssueRepairOrder,
    /// Marked the ticket as a false alarm.
    MarkFalseAlarm,
}

/// An operator's recorded response to an FOT (present for `D_fixing` and
/// `D_falsealarm` tickets only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorResponse {
    /// Which operator closed the ticket.
    pub operator: OperatorId,
    /// When the ticket was closed (`op_time`); response time is
    /// `op_time − error_time`.
    pub op_time: SimTime,
    /// The closing action.
    pub action: OperatorAction,
}

/// A failure operation ticket, mirroring the paper's schema (§II):
/// id, host id, hostname, host idc, error device, error type, error time,
/// error position, error detail, plus the operator-response fields.
///
/// A `Fot` is a by-value view of one ticket: [`crate::Trace`] stores its
/// tickets as [`crate::FotColumns`], and [`crate::Trace::fots`],
/// [`crate::Trace::fot`] and the population iterators hand out rows that
/// borrow only the interned detail string. Rows built by hand (tests,
/// imports) go into a trace through [`crate::Trace::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fot<'a> {
    /// Ticket id, unique within a trace.
    pub id: FotId,
    /// The host the failure occurred on (`host_id`).
    pub server: ServerId,
    /// The data center hosting the server (`host_idc`).
    pub data_center: DataCenterId,
    /// The product line owning the server.
    pub product_line: ProductLineId,
    /// Component class of the failed device (`error_device` class).
    pub device: ComponentClass,
    /// Slot of the failed device within its class (disk bay, DIMM slot, …);
    /// used to build the device path and to detect repeating failures.
    pub device_slot: u8,
    /// The failure type (`error_type`).
    pub failure_type: FailureType,
    /// Detection timestamp (`error_time`).
    pub error_time: SimTime,
    /// The server's rack slot (`error_position`).
    pub rack_position: RackPosition,
    /// Free-text detail (`error_detail`).
    pub detail: &'a str,
    /// Ticket category per Table I.
    pub category: FotCategory,
    /// Operator response; `Some` iff `category.has_response()`.
    pub response: Option<OperatorResponse>,
}

impl Fot<'_> {
    /// The device path string as it would appear in the ticket
    /// (e.g. `sdc`, `dimm3`, `psu_2`, `fan_8` — the style of Tables VII/VIII).
    pub fn device_path(&self) -> String {
        device_path_for(self.device, self.device_slot)
    }

    /// Response time `RT = op_time − error_time`, if the ticket has a response.
    pub fn response_time(&self) -> Option<crate::SimDuration> {
        self.response.map(|r| r.op_time.since(self.error_time))
    }

    /// Whether this FOT counts as a failure in the paper's sense
    /// (`D_fixing` or `D_error`).
    pub fn is_failure(&self) -> bool {
        self.category.is_failure()
    }

    /// Key identifying the *physical component* the ticket refers to —
    /// `(server, class, slot)` — used for repeat-failure detection (§III-D).
    pub fn component_key(&self) -> (ServerId, ComponentClass, u8) {
        (self.server, self.device, self.device_slot)
    }
}

/// Linux-style device path for a `(class, slot)` pair — the shared
/// renderer behind [`Fot::device_path`] and the columnar ticket views,
/// which only carry dense class tags and slot numbers.
pub fn device_path_for(class: ComponentClass, slot: u8) -> String {
    let mut path = String::new();
    write_device_path(&mut path, class, slot);
    path
}

/// Appends the [`device_path_for`] path to `out` without allocating.
pub fn write_device_path(out: &mut String, class: ComponentClass, slot: u8) {
    use std::fmt::Write as _;
    let _ = match class {
        ComponentClass::Hdd => write!(out, "sd{}", (b'a' + slot % 26) as char),
        ComponentClass::Ssd => write!(out, "nvme{slot}"),
        ComponentClass::Memory => write!(out, "dimm{slot}"),
        ComponentClass::Power => write!(out, "psu_{slot}"),
        ComponentClass::Fan => write!(out, "fan_{slot}"),
        ComponentClass::RaidCard => write!(out, "raid0"),
        ComponentClass::FlashCard => write!(out, "flash{slot}"),
        ComponentClass::Motherboard => write!(out, "mb0"),
        ComponentClass::HddBackboard => write!(out, "backboard0"),
        ComponentClass::Cpu => write!(out, "cpu{slot}"),
        ComponentClass::Miscellaneous => write!(out, "host"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fot() -> Fot<'static> {
        Fot {
            id: FotId::new(1),
            server: ServerId::new(10),
            data_center: DataCenterId::new(2),
            product_line: ProductLineId::new(5),
            device: ComponentClass::Hdd,
            device_slot: 2,
            failure_type: FailureType::SmartFail,
            error_time: SimTime::from_days(10),
            rack_position: RackPosition::new(22),
            detail: "SMART threshold exceeded",
            category: FotCategory::Fixing,
            response: Some(OperatorResponse {
                operator: OperatorId::new(3),
                op_time: SimTime::from_days(16),
                action: OperatorAction::IssueRepairOrder,
            }),
        }
    }

    #[test]
    fn categories_match_paper_semantics() {
        assert!(FotCategory::Fixing.is_failure());
        assert!(FotCategory::Error.is_failure());
        assert!(!FotCategory::FalseAlarm.is_failure());
        assert!(FotCategory::Fixing.has_response());
        assert!(!FotCategory::Error.has_response());
        assert!(FotCategory::FalseAlarm.has_response());
        assert_eq!(FotCategory::Fixing.name(), "D_fixing");
    }

    #[test]
    fn response_time_is_six_days() {
        let fot = sample_fot();
        assert_eq!(fot.response_time().unwrap().as_days_f64(), 6.0);
        assert!(fot.is_failure());
    }

    #[test]
    fn device_paths_look_right() {
        let mut fot = sample_fot();
        assert_eq!(fot.device_path(), "sdc");
        fot.device = ComponentClass::Memory;
        fot.device_slot = 3;
        assert_eq!(fot.device_path(), "dimm3");
        fot.device = ComponentClass::Power;
        fot.device_slot = 1;
        assert_eq!(fot.device_path(), "psu_1");
    }

    #[test]
    fn component_key_distinguishes_slots() {
        let a = sample_fot();
        let mut b = sample_fot();
        b.device_slot = 3;
        assert_ne!(a.component_key(), b.component_key());
    }
}
