//! The assembled [`Fleet`]: servers, data centers and product lines, with
//! the indices the failure models and FMS need.

use dcf_trace::{
    DataCenterId, DataCenterMeta, ProductLineId, ProductLineMeta, RackId, ServerId, ServerMeta,
};

use crate::datacenter::DataCenter;
use crate::product_line::ProductLine;
use crate::FleetConfig;

/// A fully built fleet. Construct via [`crate::FleetBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    config: FleetConfig,
    data_centers: Vec<DataCenter>,
    product_lines: Vec<ProductLine>,
    servers: Vec<ServerMeta>,
    /// `racks[dc][rack]` → servers in that rack.
    racks: Vec<Vec<Vec<ServerId>>>,
    /// `by_line[line]` → servers of that product line.
    by_line: Vec<Vec<ServerId>>,
}

impl Fleet {
    /// Assembles a fleet from parts (used by the builder).
    pub(crate) fn from_parts(
        config: FleetConfig,
        data_centers: Vec<DataCenter>,
        product_lines: Vec<ProductLine>,
        servers: Vec<ServerMeta>,
        racks: Vec<Vec<Vec<ServerId>>>,
    ) -> Self {
        let mut by_line = vec![Vec::new(); product_lines.len()];
        for s in &servers {
            by_line[s.product_line.index()].push(s.id);
        }
        Self {
            config,
            data_centers,
            product_lines,
            servers,
            racks,
            by_line,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// All servers, indexed by [`ServerId`].
    pub fn servers(&self) -> &[ServerMeta] {
        &self.servers
    }

    /// One server.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn server(&self, id: ServerId) -> &ServerMeta {
        &self.servers[id.index()]
    }

    /// All data centers.
    pub fn data_centers(&self) -> &[DataCenter] {
        &self.data_centers
    }

    /// One data center.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn data_center(&self, id: DataCenterId) -> &DataCenter {
        &self.data_centers[id.index()]
    }

    /// All product lines.
    pub fn product_lines(&self) -> &[ProductLine] {
        &self.product_lines
    }

    /// One product line.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn product_line(&self, id: ProductLineId) -> &ProductLine {
        &self.product_lines[id.index()]
    }

    /// Servers of one product line.
    pub fn servers_of_line(&self, id: ProductLineId) -> &[ServerId] {
        &self.by_line[id.index()]
    }

    /// Rack index: `racks()[dc][rack]` → servers in that rack.
    pub fn racks(&self) -> &[Vec<Vec<ServerId>>] {
        &self.racks
    }

    /// Servers in one rack.
    ///
    /// # Panics
    ///
    /// Panics on foreign ids.
    pub fn servers_of_rack(&self, dc: DataCenterId, rack: RackId) -> &[ServerId] {
        &self.racks[dc.index()][rack.index()]
    }

    /// Servers on one PDU (all racks in the PDU group), the §V-A Case 3
    /// blast radius: one slice per rack, in rack order.
    pub fn servers_of_pdu(
        &self,
        dc: DataCenterId,
        pdu: u32,
    ) -> impl Iterator<Item = &[ServerId]> + '_ {
        self.data_center(dc)
            .racks_of_pdu(pdu)
            .map(move |rack| self.servers_of_rack(dc, rack))
    }

    /// The spatial failure multiplier for a server (its DC's cooling profile
    /// at its rack position).
    pub fn spatial_multiplier(&self, id: ServerId) -> f64 {
        let s = self.server(id);
        self.data_center(s.data_center)
            .position_multiplier(s.position.raw())
    }

    /// Snapshot of the metadata bundled into a [`dcf_trace::Trace`].
    pub fn snapshot(&self) -> (Vec<ServerMeta>, Vec<DataCenterMeta>, Vec<ProductLineMeta>) {
        (
            self.servers.clone(),
            self.data_centers.iter().map(|d| d.meta.clone()).collect(),
            self.product_lines.iter().map(|p| p.meta.clone()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetBuilder, FleetConfig};

    fn small_fleet() -> Fleet {
        FleetBuilder::new(FleetConfig::small())
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn indices_are_consistent() {
        let fleet = small_fleet();
        // Every server reachable through its rack.
        for (dc_idx, dc_racks) in fleet.racks().iter().enumerate() {
            for (rack_idx, rack) in dc_racks.iter().enumerate() {
                for &sid in rack {
                    let s = fleet.server(sid);
                    assert_eq!(s.data_center.index(), dc_idx);
                    assert_eq!(s.rack.index(), rack_idx);
                }
            }
        }
        // by_line partition covers every server exactly once.
        let total: usize = fleet
            .product_lines()
            .iter()
            .map(|l| fleet.servers_of_line(l.id()).len())
            .sum();
        assert_eq!(total, fleet.servers().len());
    }

    #[test]
    fn pdu_groups_cover_multiple_racks() {
        let fleet = small_fleet();
        let dc = fleet.data_centers()[0].id();
        let racks: Vec<&[ServerId]> = fleet.servers_of_pdu(dc, 0).collect();
        assert!(racks.len() > 1, "PDU spans several racks");
        for (i, rack) in racks.iter().enumerate() {
            assert_eq!(
                *rack,
                fleet.servers_of_rack(dc, dcf_trace::RackId::new(i as u32))
            );
        }
        // Every server sits on exactly one PDU of its DC.
        let dcenter = fleet.data_center(dc);
        let on_pdus: usize = (0..dcenter.pdu_count())
            .flat_map(|pdu| fleet.servers_of_pdu(dc, pdu))
            .map(<[ServerId]>::len)
            .sum();
        let in_dc = fleet
            .servers()
            .iter()
            .filter(|s| s.data_center == dc)
            .count();
        assert_eq!(on_pdus, in_dc);
    }

    #[test]
    fn spatial_multiplier_reflects_hot_positions() {
        let fleet = small_fleet();
        let dc0 = &fleet.data_centers()[0];
        let hot = dc0.hot_positions.clone();
        let hot_server = fleet
            .servers()
            .iter()
            .find(|s| s.data_center.index() == 0 && hot.contains(&s.position.raw()));
        if let Some(s) = hot_server {
            assert!(fleet.spatial_multiplier(s.id) > 1.2);
        }
        // Modern DCs are flat everywhere.
        let modern = fleet
            .data_centers()
            .iter()
            .find(|d| d.meta.modern_cooling)
            .unwrap();
        for s in fleet
            .servers()
            .iter()
            .filter(|s| s.data_center == modern.id())
        {
            assert_eq!(fleet.spatial_multiplier(s.id), 1.0);
        }
    }

    #[test]
    fn snapshot_matches_fleet() {
        let fleet = small_fleet();
        let (servers, dcs, lines) = fleet.snapshot();
        assert_eq!(servers.len(), fleet.servers().len());
        assert_eq!(dcs.len(), fleet.data_centers().len());
        assert_eq!(lines.len(), fleet.product_lines().len());
    }
}
