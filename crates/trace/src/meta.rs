//! Fleet metadata carried alongside the tickets.
//!
//! The analyses need more than the tickets themselves: monthly failure
//! *rates* (Figure 6) need per-age component populations, the rack-position
//! study (§IV) needs per-position server counts, and the product-line
//! response study (§VI-C) needs workload/fault-tolerance context. The FMS
//! knows all of this (its agents report host metadata); a [`crate::Trace`]
//! therefore bundles these snapshot records.

use crate::{
    ComponentClass, DataCenterId, ProductLineId, RackId, RackPosition, ServerId, SimDuration,
    SimTime,
};

/// Snapshot of one server's identity, placement, and hardware inventory.
///
/// A small `Copy` record: the hostname is not stored but derived from the
/// placement ([`ServerMeta::hostname`]), so a fleet of them is one flat
/// allocation that copies and frees in one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerMeta {
    /// Dense server id.
    pub id: ServerId,
    /// Hosting data center.
    pub data_center: DataCenterId,
    /// Owning product line.
    pub product_line: ProductLineId,
    /// Rack within the data center.
    pub rack: RackId,
    /// Slot position within the rack.
    pub position: RackPosition,
    /// Hardware generation (the paper's fleet spans ~5 generations).
    pub generation: u8,
    /// When the server entered production.
    pub deploy_time: SimTime,
    /// Warranty length from deployment; failures after
    /// `deploy_time + warranty` typically become `D_error`.
    pub warranty: SimDuration,
    /// Number of spinning disks.
    pub hdd_count: u8,
    /// Number of SSDs.
    pub ssd_count: u8,
    /// Number of CPUs (sockets).
    pub cpu_count: u8,
    /// Number of DIMMs.
    pub dimm_count: u8,
    /// Number of chassis fans.
    pub fan_count: u8,
    /// Number of power supplies.
    pub psu_count: u8,
    /// Whether the server has a RAID card.
    pub has_raid_card: bool,
    /// Whether the server has a PCIe flash card.
    pub has_flash_card: bool,
}

impl ServerMeta {
    /// Appends the server's hostname, `dcNN-rNNNN-uNN-sNNNNNN` (data
    /// center, rack, slot position and server id, each zero-padded to its
    /// width), to `buf` without going through `format!`.
    pub fn write_hostname(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"dc");
        push_padded(buf, u64::from(self.data_center.raw()), 2);
        buf.extend_from_slice(b"-r");
        push_padded(buf, u64::from(self.rack.raw()), 4);
        buf.extend_from_slice(b"-u");
        push_padded(buf, u64::from(self.position.raw()), 2);
        buf.extend_from_slice(b"-s");
        push_padded(buf, u64::from(self.id.raw()), 6);
    }

    /// The server's hostname, e.g. `dc03-r0012-u22-s004711`; see
    /// [`ServerMeta::write_hostname`].
    pub fn hostname(&self) -> String {
        let mut buf = Vec::with_capacity(22);
        self.write_hostname(&mut buf);
        String::from_utf8(buf).expect("hostnames are ASCII")
    }

    /// The server's warranty expiry instant.
    pub fn warranty_end(&self) -> SimTime {
        self.deploy_time + self.warranty
    }

    /// Whether the server is out of warranty at `t`.
    pub fn out_of_warranty_at(&self, t: SimTime) -> bool {
        t >= self.warranty_end()
    }

    /// Age in service at `t` (zero before deployment).
    pub fn age_at(&self, t: SimTime) -> SimDuration {
        t.since(self.deploy_time)
    }

    /// Number of individually tracked components of `class` on this server.
    ///
    /// The dataset reports per-server counts for HDD/SSD/CPU (footnote 2 of
    /// the paper); for the other classes the count is the physical number of
    /// modules, used when we estimate per-component exposure.
    pub fn component_count(&self, class: ComponentClass) -> u32 {
        match class {
            ComponentClass::Hdd => self.hdd_count as u32,
            ComponentClass::Ssd => self.ssd_count as u32,
            ComponentClass::Cpu => self.cpu_count as u32,
            ComponentClass::Memory => self.dimm_count as u32,
            ComponentClass::Fan => self.fan_count as u32,
            ComponentClass::Power => self.psu_count as u32,
            ComponentClass::RaidCard => self.has_raid_card as u32,
            ComponentClass::FlashCard => self.has_flash_card as u32,
            ComponentClass::Motherboard | ComponentClass::HddBackboard => 1,
            ComponentClass::Miscellaneous => 1,
        }
    }
}

/// Zero-padded decimal append, byte-identical to `{v:0width$}` formatting
/// (values wider than `width` print all their digits).
fn push_padded(buf: &mut Vec<u8>, mut v: u64, width: usize) {
    let mut tmp = [b'0'; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    i = i.min(tmp.len() - width);
    buf.extend_from_slice(&tmp[i..]);
}

/// Snapshot of one data center.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenterMeta {
    /// Data center id.
    pub id: DataCenterId,
    /// Short name, e.g. `DC-07`.
    pub name: String,
    /// Year construction finished. The paper finds that ~90% of data centers
    /// built after 2014 show spatially uniform failure rates.
    pub built_year: u16,
    /// Whether the cooling design is the modern, uniform kind (post-2014
    /// builds) rather than under-floor cooling with hot top-of-rack slots.
    pub modern_cooling: bool,
    /// Number of rack slot positions in this data center's rack design.
    pub rack_positions: u8,
}

impl DataCenterMeta {
    /// Whether the data center was built after 2014 (the paper's split).
    pub fn built_after_2014(&self) -> bool {
        self.built_year > 2014
    }
}

/// Kind of workload a product line runs; drives utilization rhythms and
/// operator urgency in the models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Large-scale batch processing (e.g. Hadoop) — high software fault
    /// tolerance, slow operator response (§VI-C).
    BatchProcessing,
    /// User-facing online service — strict operation guidelines, fast
    /// responses, more SSDs.
    OnlineService,
    /// Distributed storage service.
    Storage,
    /// Anything else.
    Mixed,
}

/// How much software fault tolerance a product line has; the paper ties
/// operator response times to this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultTolerance {
    /// Little redundancy; hardware failures are urgent.
    Low,
    /// Some redundancy.
    Medium,
    /// Fully replicated/self-healing (e.g. Hadoop-style clusters).
    High,
}

/// Snapshot of one product line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductLineMeta {
    /// Product line id.
    pub id: ProductLineId,
    /// Short name, e.g. `pl-websearch-042`.
    pub name: String,
    /// Workload class.
    pub workload: WorkloadKind,
    /// Software fault-tolerance level.
    pub fault_tolerance: FaultTolerance,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_server() -> ServerMeta {
        ServerMeta {
            id: ServerId::new(1),
            data_center: DataCenterId::new(1),
            product_line: ProductLineId::new(1),
            rack: RackId::new(1),
            position: RackPosition::new(5),
            generation: 2,
            deploy_time: SimTime::from_days(100),
            warranty: SimDuration::from_days(3 * 365),
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
    fn hostnames_match_format_machinery() {
        let s = sample_server();
        assert_eq!(s.hostname(), "dc01-r0001-u05-s000001");
        for (dc, rack, pos, id) in [
            (0u16, 0u32, 0u8, 0u32),
            (7, 4321, 35, 159_999),
            (123, 99_999, 255, 4_000_000_000),
        ] {
            let s = ServerMeta {
                id: ServerId::new(id),
                data_center: DataCenterId::new(dc),
                rack: RackId::new(rack),
                position: RackPosition::new(pos),
                ..sample_server()
            };
            assert_eq!(
                s.hostname(),
                format!("dc{dc:02}-r{rack:04}-u{pos:02}-s{id:06}"),
            );
        }
    }

    #[test]
    fn warranty_boundaries() {
        let s = sample_server();
        let end = s.warranty_end();
        assert_eq!(end, SimTime::from_days(100 + 3 * 365));
        assert!(!s.out_of_warranty_at(SimTime::from_days(100)));
        assert!(s.out_of_warranty_at(end));
    }

    #[test]
    fn age_is_zero_before_deploy() {
        let s = sample_server();
        assert_eq!(s.age_at(SimTime::from_days(50)).as_secs(), 0);
        assert_eq!(s.age_at(SimTime::from_days(130)).as_days_f64(), 30.0);
    }

    #[test]
    fn component_counts() {
        let s = sample_server();
        assert_eq!(s.component_count(ComponentClass::Hdd), 12);
        assert_eq!(s.component_count(ComponentClass::Ssd), 0);
        assert_eq!(s.component_count(ComponentClass::RaidCard), 1);
        assert_eq!(s.component_count(ComponentClass::FlashCard), 0);
        assert_eq!(s.component_count(ComponentClass::Motherboard), 1);
    }

    #[test]
    fn dc_build_year_split() {
        let old = DataCenterMeta {
            id: DataCenterId::new(1),
            name: "DC-01".into(),
            built_year: 2012,
            modern_cooling: false,
            rack_positions: 40,
        };
        let new = DataCenterMeta {
            built_year: 2015,
            modern_cooling: true,
            ..old.clone()
        };
        assert!(!old.built_after_2014());
        assert!(new.built_after_2014());
    }
}
