//! Scheme construction: one enum of buildable schemes, one erased engine.
//!
//! [`Engine`] is a shared handle on a built [`DynScheme`] plus its static
//! model. Building is the only scheme-specific step; the engine derefs to
//! the erased scheme, so every query — any scheme, channel configuration,
//! antenna count, loss model, workload — goes through
//! [`DynScheme::drive`] (or [`DynScheme::drive_traced`]) with nothing
//! forwarded in between. Cloning an engine copies two pointers, so pool
//! jobs hold their own.

use std::ops::Deref;
use std::sync::Arc;

use dsi_bptree::{BpAir, BpAirConfig};
use dsi_broadcast::{ChannelConfig, DynScheme, LayoutError};
use dsi_core::{DsiAir, DsiConfig, DsiScheme, KnnStrategy};
use dsi_datagen::SpatialDataset;
use dsi_geom::Point;
use dsi_rtree::{RTreeAir, RtreeAirConfig};
use dsi_verify::{StaticModel, Verifiable, VerifyReport, Violation};

/// Which air index to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// DSI with a full configuration and a kNN strategy.
    Dsi(DsiConfig, KnnStrategy),
    /// STR-packed R-tree with the distributed layout.
    RTree,
    /// HCI: B+-tree over HC values.
    Hci,
}

impl Scheme {
    /// The paper's main DSI configuration (two-segment reorganized
    /// broadcast, conservative navigation) at a given capacity.
    pub fn dsi_reorganized(capacity: u32) -> Self {
        Scheme::Dsi(
            DsiConfig::paper_reorganized().with_capacity(capacity),
            KnnStrategy::Conservative,
        )
    }

    /// DSI on the original ascending-HC broadcast.
    pub fn dsi_original(capacity: u32, strategy: KnnStrategy) -> Self {
        Scheme::Dsi(DsiConfig::paper_default().with_capacity(capacity), strategy)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Dsi(..) => "DSI",
            Scheme::RTree => "R-tree",
            Scheme::Hci => "HCI",
        }
    }
}

/// A built broadcast behind the unified [`DynScheme`] interface. Derefs
/// to the erased scheme (`engine.drive(..)`, `engine.cycle_packets()`,
/// …); cheap to clone.
#[derive(Clone)]
pub struct Engine {
    scheme: Arc<dyn DynScheme>,
    /// The static pointer-graph model extracted at build time, so any
    /// engine — whatever scheme or placement produced it — can be handed
    /// to the `dsi-verify` analyzer without re-deriving scheme internals.
    model: Arc<StaticModel>,
}

impl Deref for Engine {
    type Target = dyn DynScheme;

    fn deref(&self) -> &Self::Target {
        &*self.scheme
    }
}

impl Engine {
    /// Builds the single-channel broadcast program for `scheme` at
    /// `capacity` bytes.
    pub fn build(scheme: Scheme, dataset: &SpatialDataset, capacity: u32) -> Self {
        Self::build_channels(scheme, dataset, capacity, ChannelConfig::single())
    }

    /// Builds the broadcast program for `scheme` scheduled over the
    /// channels of `channels`.
    pub fn build_channels(
        scheme: Scheme,
        dataset: &SpatialDataset,
        capacity: u32,
        channels: ChannelConfig,
    ) -> Self {
        match Self::try_build_channels(scheme, dataset, capacity, channels) {
            Ok(e) => e,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Engine::build_channels`]: a channel configuration the
    /// cycle cannot be scheduled over (zero channels, stranded explicit
    /// assignment, …) comes back as its structural [`LayoutError`], so
    /// batch drivers like the experiment matrix can reject the cell with
    /// a diagnostic and keep running.
    pub fn try_build_channels(
        scheme: Scheme,
        dataset: &SpatialDataset,
        capacity: u32,
        channels: ChannelConfig,
    ) -> Result<Self, LayoutError> {
        let (scheme, model): (Arc<dyn DynScheme>, StaticModel) = match scheme {
            Scheme::Dsi(cfg, strategy) => {
                let s = DsiScheme {
                    air: DsiAir::try_build_channels(
                        dataset,
                        cfg.with_capacity(capacity),
                        channels,
                    )?,
                    strategy,
                };
                let model = s.static_model();
                (Arc::new(s), model)
            }
            Scheme::RTree => {
                let pts: Vec<(u32, Point)> =
                    dataset.objects().iter().map(|o| (o.id, o.pos)).collect();
                let air =
                    RTreeAir::try_build_channels(&pts, RtreeAirConfig::new(capacity), channels)?;
                let model = air.static_model();
                (Arc::new(air), model)
            }
            Scheme::Hci => {
                let air = BpAir::try_build_channels(dataset, BpAirConfig::new(capacity), channels)?;
                let model = air.static_model();
                (Arc::new(air), model)
            }
        };
        Ok(Self {
            scheme,
            model: Arc::new(model),
        })
    }

    /// The static model extracted when this engine was built.
    pub fn static_model(&self) -> &StaticModel {
        &self.model
    }

    /// Runs the full `dsi-verify` analysis (structure, progress, bounds)
    /// over this engine's broadcast program.
    pub fn verify(&self) -> Result<VerifyReport, Vec<Violation>> {
        dsi_verify::verify(&self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_dataset_n;
    use dsi_broadcast::{AntennaConfig, LossModel, Query};
    use dsi_geom::Rect;

    #[test]
    fn all_engines_answer_identically() {
        let ds = uniform_dataset_n(300);
        let w = Rect::new(0.2, 0.2, 0.5, 0.55);
        let q = Point::new(0.4, 0.3);
        let want_w = ds.brute_window(&w);
        let want_k = ds.brute_knn(q, 7);
        for scheme in [
            Scheme::dsi_reorganized(64),
            Scheme::dsi_original(64, KnnStrategy::Aggressive),
            Scheme::RTree,
            Scheme::Hci,
        ] {
            let e = Engine::build(scheme, &ds, 64);
            let k1 = AntennaConfig::single();
            let out = e.drive(17, LossModel::None, 5, k1, &Query::Window(w));
            assert_eq!(out.ids, want_w);
            assert!(out.stats.tuning_packets <= out.stats.latency_packets);
            let out = e.drive(17, LossModel::None, 5, k1, &Query::Knn(q, 7));
            assert_eq!(out.ids, want_k);
            assert!(out.stats.tuning_packets <= out.stats.latency_packets);
        }
    }

    #[test]
    fn channelized_engines_answer_identically() {
        let ds = uniform_dataset_n(250);
        let w = Rect::new(0.1, 0.3, 0.45, 0.6);
        let q = Point::new(0.6, 0.55);
        for chan in [
            ChannelConfig::blocked(2, 1),
            ChannelConfig::striped(2, 1),
            ChannelConfig::index_data(2, 1, 2),
        ] {
            for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci] {
                let e = Engine::build_channels(scheme, &ds, 64, chan.clone());
                assert_eq!(e.n_channels(), 2);
                let k1 = AntennaConfig::single();
                let out = e.drive(31, LossModel::iid(0.2), 9, k1, &Query::Window(w));
                assert_eq!(out.ids, ds.brute_window(&w), "{chan:?}");
                let out = e.drive(31, LossModel::iid(0.2), 9, k1, &Query::Knn(q, 4));
                assert_eq!(out.ids, ds.brute_knn(q, 4), "{chan:?}");
            }
        }
    }
}
