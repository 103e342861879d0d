//! Deterministic fleet construction from a [`FleetConfig`] and a seed.

use dcf_obs::MetricsRegistry;
use dcf_stats::rng::{Rng, StdRng};

use dcf_trace::{
    DataCenterId, DataCenterMeta, ProductLineId, ProductLineMeta, RackId, RackPosition, ServerId,
    ServerMeta, SimDuration, SimTime,
};

use crate::datacenter::{CoolingDesign, DataCenter};
use crate::error::FleetError;
use crate::fleet::Fleet;
use crate::hardware::HardwareProfile;
use crate::product_line::{fault_tolerance_for, workload_for_rank, zipf_shares, ProductLine};
use crate::FleetConfig;

/// Builds fleets deterministically: the same `(config, seed)` always yields
/// the same fleet, independent of everything else.
///
/// # Examples
///
/// ```
/// use dcf_fleet::{FleetBuilder, FleetConfig};
///
/// let fleet = FleetBuilder::new(FleetConfig::small()).seed(7).build().unwrap();
/// assert_eq!(fleet.servers().len(), 2_000);
/// let again = FleetBuilder::new(FleetConfig::small()).seed(7).build().unwrap();
/// assert_eq!(fleet.servers(), again.servers());
/// ```
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    config: FleetConfig,
    seed: u64,
    metrics: MetricsRegistry,
}

impl FleetBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            seed: 0,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a metrics registry: `build` records a `fleet.build` phase
    /// span (with a nested `fleet.place_servers` span) and `fleet.*`
    /// counters. Metrics never consume RNG draws, so the built fleet is
    /// identical with or without them.
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builds the fleet.
    ///
    /// # Errors
    ///
    /// Returns the [`FleetError`] for the first violated configuration
    /// constraint.
    pub fn build(self) -> Result<Fleet, FleetError> {
        self.config.validate()?;
        let metrics = self.metrics;
        let build_span = metrics.phase("fleet.build");
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_f1ee_7000_0001);

        let data_centers = build_data_centers(&cfg, &mut rng);
        let product_lines = build_product_lines(&cfg);
        let line_dcs = assign_lines_to_dcs(&cfg, &product_lines, &mut rng);
        let place_span = metrics.phase("fleet.place_servers");
        let (servers, racks) =
            place_servers(&cfg, &data_centers, &product_lines, &line_dcs, &mut rng);
        drop(place_span);

        // Patch actual rack counts into the DataCenter records.
        let mut data_centers = data_centers;
        for (dc, dc_racks) in data_centers.iter_mut().zip(&racks) {
            dc.racks = dc_racks.len() as u32;
        }

        metrics.add("fleet.data_centers.built", data_centers.len() as u64);
        metrics.add("fleet.product_lines.built", product_lines.len() as u64);
        metrics.add("fleet.servers.built", servers.len() as u64);
        metrics.add(
            "fleet.racks.built",
            racks.iter().map(|dc| dc.len() as u64).sum(),
        );
        drop(build_span);

        Ok(Fleet::from_parts(
            cfg,
            data_centers,
            product_lines,
            servers,
            racks,
        ))
    }
}

/// Builds the data-center roster.
///
/// Indices 0 and 1 are pinned to the paper's §IV examples:
/// * **DC 0 ("data center A")** — old build, nearly flat gradient but two
///   hot positions (22: next to the rack power module, 35: near the rack
///   top) mildly elevated — uniformity is *not* rejected but μ±2σ anomaly
///   detection flags both positions.
/// * **DC 1 ("data center B")** — old build with a strong thermal gradient;
///   uniformity is rejected at 0.01.
///
/// The remaining old DCs draw gradients from a wide range and modern DCs
/// are flat, which reproduces Table IV's rejected/borderline/accepted split.
fn build_data_centers(cfg: &FleetConfig, rng: &mut StdRng) -> Vec<DataCenter> {
    let n = cfg.data_centers;
    let modern_target = (cfg.modern_cooling_fraction * n as f64).round() as usize;
    // Pinned example DCs (0 and 1) are old builds, so cap the modern count
    // at n − 2 — unless the config asks for a fully modern fleet (the
    // `modern-cooling` ablation), which overrides the pins.
    let modern_count = if cfg.modern_cooling_fraction >= 1.0 {
        n
    } else {
        modern_target.min(n.saturating_sub(2))
    };

    (0..n)
        .map(|i| {
            // The last `modern_count` indices are the modern builds.
            let modern = i >= n - modern_count;
            let built_year = if modern {
                2015 + (i % 2) as u16
            } else {
                2011 + (i % 4) as u16
            };
            let meta = DataCenterMeta {
                id: DataCenterId::new(i as u16),
                name: format!("DC-{i:02}"),
                built_year,
                modern_cooling: modern,
                rack_positions: cfg.rack_positions,
            };
            let top = cfg.rack_positions.saturating_sub(5);
            let (cooling, hot, boost) = if modern {
                (CoolingDesign::Modern, vec![], 1.0)
            } else if i == 0 {
                // "Data center A": flat but with two anomalous positions.
                (
                    CoolingDesign::UnderFloor { gradient: 0.02 },
                    vec![22.min(top), top],
                    // Mild enough that the DC-wide chi-squared cannot reject,
                    // strong enough that mu±2sigma still flags both slots.
                    1.33,
                )
            } else if i == 1 {
                // "Data center B": strong thermal gradient.
                (CoolingDesign::UnderFloor { gradient: 0.85 }, vec![], 1.0)
            } else {
                // Old builds come in three severities: clearly bad cooling
                // (rejected at 0.01), mildly uneven (the Table IV borderline
                // band), and nearly flat (accepted).
                let (gradient, with_hot) = match i % 3 {
                    0 => (rng.random_range(0.50..1.00), rng.random_bool(0.7)),
                    1 => (rng.random_range(0.45..0.60), false),
                    _ => (rng.random_range(0.10..0.18), false),
                };
                let hot = if with_hot { vec![22.min(top)] } else { vec![] };
                let boost = rng.random_range(1.25..1.7);
                (CoolingDesign::UnderFloor { gradient }, hot, boost)
            };
            // Rack count is patched after placement; start with 0.
            DataCenter::new(meta, cooling, hot, boost, 0, cfg.racks_per_pdu)
        })
        .collect()
}

fn build_product_lines(cfg: &FleetConfig) -> Vec<ProductLine> {
    let shares = zipf_shares(cfg.product_lines, 0.95);
    shares
        .iter()
        .enumerate()
        .map(|(rank, &share)| {
            let workload = workload_for_rank(rank);
            let meta = ProductLineMeta {
                id: ProductLineId::new(rank as u16),
                name: format!("pl-{:?}-{rank:03}", workload).to_lowercase(),
                workload,
                fault_tolerance: fault_tolerance_for(workload, rank),
            };
            ProductLine::new(meta, share)
        })
        .collect()
}

/// Which data centers each product line may occupy. Line 0 (the big batch
/// line of the §V-A case study) is pinned to DC 0 alone.
fn assign_lines_to_dcs(
    cfg: &FleetConfig,
    lines: &[ProductLine],
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    lines
        .iter()
        .enumerate()
        .map(|(rank, _)| {
            if rank == 0 {
                vec![0]
            } else {
                let spread = rng.random_range(1..=3usize.min(cfg.data_centers));
                let mut dcs: Vec<usize> = Vec::with_capacity(spread);
                while dcs.len() < spread {
                    let dc = rng.random_range(0..cfg.data_centers);
                    if !dcs.contains(&dc) {
                        dcs.push(dc);
                    }
                }
                dcs.sort_unstable();
                dcs
            }
        })
        .collect()
}

/// Occupied slot positions for a rack: always leaves `skip` slots empty at
/// the extremes, alternating the exact band with rack parity so per-position
/// populations differ (the paper normalizes failure rates by them).
fn occupied_positions(cfg: &FleetConfig, rack_parity: u64) -> Vec<u8> {
    let n = cfg.rack_positions;
    let skip = (n - cfg.servers_per_rack) as usize;
    let low = skip / 2;
    let high = skip - low;
    let offset = (rack_parity % 2) as u8;
    (0..n)
        .filter(|&p| {
            let lo_band = p >= offset && p < offset + low as u8;
            let hi_band = p + offset + high as u8 >= n && p + offset < n;
            !(lo_band || hi_band)
        })
        .take(cfg.servers_per_rack as usize)
        .collect()
}

type RackIndex = Vec<Vec<Vec<ServerId>>>;

fn place_servers(
    cfg: &FleetConfig,
    dcs: &[DataCenter],
    lines: &[ProductLine],
    line_dcs: &[Vec<usize>],
    rng: &mut StdRng,
) -> (Vec<ServerMeta>, RackIndex) {
    // Per-DC server budgets, Zipf-skewed with DC 0 the largest.
    let dc_shares = zipf_shares(cfg.data_centers, 0.4);
    let mut budgets: Vec<usize> = dc_shares
        .iter()
        .map(|s| (s * cfg.servers as f64).floor() as usize)
        .collect();
    let mut assigned: usize = budgets.iter().sum();
    let n_budgets = budgets.len();
    let mut i = 0;
    while assigned < cfg.servers {
        budgets[i % n_budgets] += 1;
        assigned += 1;
        i += 1;
    }

    // Per-DC weighted line choices.
    let mut dc_lines: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cfg.data_centers];
    for (rank, dcs_of_line) in line_dcs.iter().enumerate() {
        for &dc in dcs_of_line {
            dc_lines[dc].push((rank, lines[rank].target_share / dcs_of_line.len() as f64));
        }
    }
    for per_dc in &mut dc_lines {
        if per_dc.is_empty() {
            per_dc.push((lines.len() - 1, 1.0)); // fallback: smallest line
        }
    }

    let deploy_span_days = cfg.pre_window_days + cfg.deploy_until_day;
    let mut servers = Vec::with_capacity(cfg.servers);
    let mut racks: RackIndex = vec![Vec::new(); cfg.data_centers];

    for (dc_idx, &budget) in budgets.iter().enumerate() {
        let dc = &dcs[dc_idx];
        let choices = &dc_lines[dc_idx];
        let weight_total: f64 = choices.iter().map(|(_, w)| w).sum();
        let mut remaining = budget;
        let mut rack_no: u32 = 0;
        while remaining > 0 {
            // Pick the rack's product line by weighted draw.
            let mut pick = rng.random::<f64>() * weight_total;
            let mut line_rank = choices[0].0;
            for &(rank, w) in choices {
                if pick < w {
                    line_rank = rank;
                    break;
                }
                pick -= w;
            }
            let line = &lines[line_rank];

            // Rack-level deployment date: growth-weighted (fleet expands),
            // so u^0.7 skews toward later days.
            let u: f64 = rng.random();
            let deploy_day = (u.powf(0.7) * deploy_span_days as f64) as u64;
            let deploy_time = SimTime::from_days(deploy_day);
            let generation = ((deploy_day * cfg.generations as u64) / (deploy_span_days + 1))
                .min(cfg.generations as u64 - 1) as u8;
            let hw = HardwareProfile::for_workload(line.meta.workload, generation);

            let positions = occupied_positions(cfg, rack_no as u64);
            let mut rack_servers = Vec::with_capacity(positions.len());
            for &pos in &positions {
                if remaining == 0 {
                    break;
                }
                let id = ServerId::new(servers.len() as u32);
                rack_servers.push(id);
                servers.push(ServerMeta {
                    id,
                    data_center: dc.id(),
                    product_line: line.id(),
                    rack: RackId::new(rack_no),
                    position: RackPosition::new(pos),
                    generation,
                    deploy_time,
                    warranty: SimDuration::from_days(cfg.warranty_days),
                    hdd_count: hw.hdd_count,
                    ssd_count: hw.ssd_count,
                    cpu_count: hw.cpu_count,
                    dimm_count: hw.dimm_count,
                    fan_count: hw.fan_count,
                    psu_count: hw.psu_count,
                    has_raid_card: hw.has_raid_card,
                    has_flash_card: hw.has_flash_card,
                });
                remaining -= 1;
            }
            racks[dc_idx].push(rack_servers);
            rack_no += 1;
        }
    }

    (servers, racks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupied_positions_vary_with_parity() {
        let cfg = FleetConfig::small(); // 40 positions, 36 per rack
        let even = occupied_positions(&cfg, 0);
        let odd = occupied_positions(&cfg, 1);
        assert_eq!(even.len(), 36);
        assert_eq!(odd.len(), 36);
        assert_ne!(even, odd);
        // Middle positions are always occupied.
        assert!(even.contains(&20) && odd.contains(&20));
    }

    #[test]
    fn build_is_deterministic() {
        let a = FleetBuilder::new(FleetConfig::small())
            .seed(3)
            .build()
            .unwrap();
        let b = FleetBuilder::new(FleetConfig::small())
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(a.servers(), b.servers());
        let c = FleetBuilder::new(FleetConfig::small())
            .seed(4)
            .build()
            .unwrap();
        assert_ne!(a.servers(), c.servers());
    }

    #[test]
    fn build_respects_budget_and_ids_are_dense() {
        let fleet = FleetBuilder::new(FleetConfig::small())
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(fleet.servers().len(), 2_000);
        for (i, s) in fleet.servers().iter().enumerate() {
            assert_eq!(s.id.index(), i);
        }
    }

    #[test]
    fn dc_zero_is_old_with_two_hot_positions() {
        let fleet = FleetBuilder::new(FleetConfig::small())
            .seed(1)
            .build()
            .unwrap();
        let dc0 = &fleet.data_centers()[0];
        assert!(!dc0.meta.modern_cooling);
        assert_eq!(dc0.hot_positions.len(), 2);
        assert!(dc0.hot_positions.contains(&22));
        // DC 1 has the strong gradient.
        let dc1 = &fleet.data_centers()[1];
        let mults = dc1.position_multipliers();
        assert!(mults.last().unwrap() > &1.3);
    }

    #[test]
    fn modern_fraction_is_respected() {
        let fleet = FleetBuilder::new(FleetConfig::paper())
            .seed(1)
            .build()
            .unwrap();
        let modern = fleet
            .data_centers()
            .iter()
            .filter(|d| d.meta.modern_cooling)
            .count();
        assert_eq!(modern, 10);
        for dc in fleet
            .data_centers()
            .iter()
            .filter(|d| d.meta.modern_cooling)
        {
            assert!(dc.meta.built_after_2014());
        }
    }

    #[test]
    fn line_zero_lives_only_in_dc_zero() {
        let fleet = FleetBuilder::new(FleetConfig::small())
            .seed(2)
            .build()
            .unwrap();
        for s in fleet.servers() {
            if s.product_line == ProductLineId::new(0) {
                assert_eq!(s.data_center, DataCenterId::new(0));
            }
        }
        // And it is the biggest line.
        let line0 = fleet
            .servers()
            .iter()
            .filter(|s| s.product_line == ProductLineId::new(0))
            .count();
        assert!(line0 * 4 > fleet.servers().len() / fleet.product_lines().len());
    }

    #[test]
    fn deployment_spans_pre_window_and_window() {
        let cfg = FleetConfig::small();
        let fleet = FleetBuilder::new(cfg.clone()).seed(5).build().unwrap();
        let window_start = cfg.pre_window_days;
        let before = fleet
            .servers()
            .iter()
            .filter(|s| s.deploy_time.day_index() < window_start)
            .count();
        let after = fleet.servers().len() - before;
        assert!(before > 0, "some servers predate the window");
        assert!(after > 0, "deployment continues into the window");
    }

    #[test]
    fn racks_are_homogeneous_in_line_and_deploy_time() {
        let fleet = FleetBuilder::new(FleetConfig::small())
            .seed(6)
            .build()
            .unwrap();
        for (dc_idx, dc_racks) in fleet.racks().iter().enumerate() {
            for rack in dc_racks.iter().take(10) {
                let first = fleet.server(rack[0]);
                for &sid in rack {
                    let s = fleet.server(sid);
                    assert_eq!(s.product_line, first.product_line);
                    assert_eq!(s.deploy_time, first.deploy_time);
                    assert_eq!(s.data_center.raw() as usize, dc_idx);
                }
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = FleetConfig::small();
        cfg.window_days = 0;
        assert!(matches!(
            FleetBuilder::new(cfg).build(),
            Err(FleetError::EmptyWindow)
        ));
    }
}
