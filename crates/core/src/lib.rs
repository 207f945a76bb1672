//! **DSI** — a fully distributed spatial index for wireless data broadcast.
//!
//! This crate reproduces the primary contribution of Lee & Zheng (ICDE
//! 2005): a linear, fully distributed air index over a Hilbert-curve data
//! ordering. Every frame of the broadcast cycle carries a small *index
//! table* whose entries point exponentially far ahead (`r⁰, r¹, …` frames,
//! Chord-style), so a client can start searching the instant it tunes in,
//! hop toward any target region in `O(log nF)` steps (*energy-efficient
//! forwarding*), and recover from lost packets at the very next frame —
//! the properties the paper's §1 claims and §4–5 measure.
//!
//! # Quick start
//!
//! ```
//! use dsi_broadcast::{LossModel, Tuner};
//! use dsi_core::{DsiAir, DsiConfig, KnnStrategy};
//! use dsi_datagen::{uniform, SpatialDataset};
//! use dsi_geom::{Point, Rect};
//!
//! // Server side: build the broadcast program.
//! let dataset = SpatialDataset::build(&uniform(500, 42), 10);
//! let air = DsiAir::build(&dataset, DsiConfig::paper_reorganized());
//!
//! // Client side: tune in anywhere, run queries, read the metrics.
//! let mut tuner = Tuner::tune_in(air.program(), 1234, LossModel::None, 7);
//! let in_window = air.window_query(&mut tuner, &Rect::new(0.2, 0.2, 0.4, 0.4));
//! assert_eq!(in_window, dataset.brute_window(&Rect::new(0.2, 0.2, 0.4, 0.4)));
//!
//! let mut tuner = Tuner::tune_in(air.program(), 99, LossModel::None, 8);
//! let knn = air.knn_query(&mut tuner, Point::new(0.5, 0.5), 3, KnnStrategy::Conservative);
//! assert_eq!(knn, dataset.brute_knn(Point::new(0.5, 0.5), 3));
//! let stats = tuner.stats();
//! assert!(stats.tuning_bytes() <= stats.latency_bytes());
//! ```
//!
//! # Modules
//!
//! * [`DsiConfig`] / framing — §3.1's tunables (index base `r`, object
//!   factor via framing policy, packet capacity) and §3.5's broadcast
//!   reorganization (`segments = m`).
//! * [`DsiAir`] — the built broadcast: packet program, index tables, frame
//!   metadata; plus the client algorithms [`DsiAir::point_query`] (EEF),
//!   [`DsiAir::window_query`] (Algorithm 1) and [`DsiAir::knn_query`]
//!   (Algorithm 2, conservative/aggressive).
//! * [`IndexTable`] — the ⟨HC′, P⟩ entry structure with its on-air wire
//!   format ([`IndexTable::encode`] / [`IndexTable::decode`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod client;
mod config;
mod eef;
pub mod hotpath;
mod knn;
mod layout;
pub mod share;
mod state;
mod table;
mod verify;
mod window;

pub use build::{DsiAir, DsiPacket, DsiScheme, FrameMeta};
pub use config::{
    compute_framing, DsiConfig, Framing, FramingPolicy, ReorgStyle, ENTRY_BYTES, HC_BYTES,
    OBJECT_BYTES, PACKET_HEADER_BYTES, POINTER_BYTES, TABLE_HEADER_BYTES,
};
pub use knn::KnnStrategy;
#[doc(hidden)]
pub use knn::{testkit as knn_testkit, KnnProbe};
pub use layout::DsiLayout;
pub use table::{DecodeError, IndexTable, TableEntry};
