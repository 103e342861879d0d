//! Ticket construction: turns detections into validated FOTs.
//!
//! The FMS architecture (Figure 1): agents on hosts detect failures and a
//! central service records tickets, which operators then review from the
//! failure pool. [`TicketFactory`] is that central service's write path —
//! it owns the id sequence and stamps every field of the paper's schema.

use dcf_failmodel::types::detail_str;
use dcf_trace::{
    ComponentClass, FailureType, Fot, FotCategory, FotId, OperatorResponse, ServerMeta, SimTime,
};

/// A detection event as reported by a host agent or a human operator,
/// before categorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Which server.
    pub server: u32,
    /// Failed component class.
    pub class: ComponentClass,
    /// Component slot within its class.
    pub slot: u8,
    /// Concrete failure type.
    pub failure_type: FailureType,
    /// Detection timestamp (`error_time`).
    pub time: SimTime,
}

/// The central FMS ticket writer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TicketFactory {
    next_id: u64,
}

impl TicketFactory {
    /// A fresh factory starting ids at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tickets issued so far.
    pub fn issued(&self) -> u64 {
        self.next_id
    }

    /// Builds the next ticket from a detection, the server's metadata, the
    /// assigned category and the (already sampled) operator response.
    /// The ticket borrows its failure type's static detail string, so
    /// making one allocates nothing.
    ///
    /// The caller guarantees the category/response pairing; the trace
    /// re-validates it at assembly time.
    pub fn make_fot(
        &mut self,
        detection: Detection,
        server: &ServerMeta,
        category: FotCategory,
        response: Option<OperatorResponse>,
    ) -> Fot<'static> {
        debug_assert_eq!(server.id.raw(), detection.server);
        let id = FotId::new(self.next_id);
        self.next_id += 1;
        Fot {
            id,
            server: server.id,
            data_center: server.data_center,
            product_line: server.product_line,
            device: detection.class,
            device_slot: detection.slot,
            failure_type: detection.failure_type,
            error_time: detection.time,
            rack_position: server.position,
            detail: detail_str(detection.failure_type),
            category,
            response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_trace::{
        DataCenterId, OperatorAction, OperatorId, ProductLineId, RackId, RackPosition, ServerId,
        SimDuration,
    };

    fn server() -> ServerMeta {
        ServerMeta {
            id: ServerId::new(7),
            hostname: "dc00-r0000-u05-s000007".into(),
            data_center: DataCenterId::new(2),
            product_line: ProductLineId::new(3),
            rack: RackId::new(0),
            position: RackPosition::new(5),
            generation: 1,
            deploy_time: SimTime::ORIGIN,
            warranty: SimDuration::from_days(1000),
            hdd_count: 12,
            ssd_count: 0,
            cpu_count: 2,
            dimm_count: 8,
            fan_count: 4,
            psu_count: 2,
            has_raid_card: true,
            has_flash_card: false,
        }
    }

    #[test]
    fn ids_are_sequential_and_fields_copied() {
        let mut factory = TicketFactory::new();
        let s = server();
        let det = Detection {
            server: 7,
            class: ComponentClass::Hdd,
            slot: 3,
            failure_type: FailureType::SmartFail,
            time: SimTime::from_days(9),
        };
        let a = factory.make_fot(det, &s, FotCategory::Error, None);
        let b = factory.make_fot(det, &s, FotCategory::Error, None);
        assert_eq!(a.id.raw(), 0);
        assert_eq!(b.id.raw(), 1);
        assert_eq!(factory.issued(), 2);
        assert_eq!(a.data_center, DataCenterId::new(2));
        assert_eq!(a.product_line, ProductLineId::new(3));
        assert_eq!(a.rack_position, RackPosition::new(5));
        assert!(a.detail.contains("SMART"));
    }

    #[test]
    fn response_is_attached_verbatim() {
        let mut factory = TicketFactory::new();
        let s = server();
        let det = Detection {
            server: 7,
            class: ComponentClass::Memory,
            slot: 1,
            failure_type: FailureType::DimmUe,
            time: SimTime::from_days(3),
        };
        let resp = OperatorResponse {
            operator: OperatorId::new(9),
            op_time: SimTime::from_days(5),
            action: OperatorAction::IssueRepairOrder,
        };
        let fot = factory.make_fot(det, &s, FotCategory::Fixing, Some(resp));
        assert_eq!(fot.response, Some(resp));
        assert_eq!(fot.response_time().unwrap().as_days_f64(), 2.0);
    }
}
