//! # rlb — Reordering-Robust Load Balancing in Lossless Datacenter Networks
//!
//! A from-scratch Rust reproduction of **RLB** (Hu, He, Wang, Luo, Huang —
//! ICPP 2023): a building block that makes existing datacenter
//! load-balancing schemes robust to the packet reordering caused by
//! Priority-based Flow Control (PFC) in lossless Ethernet fabrics.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`engine`] | `rlb-engine` | picosecond clock, deterministic event queue |
//! | [`metrics`] | `rlb-metrics` | FCT/OOD statistics, tables |
//! | [`workloads`] | `rlb-workloads` | flow-size CDFs, Poisson/incast/burst traffic |
//! | [`transport`] | `rlb-transport` | go-back-N and DCQCN state machines |
//! | [`lb`] | `rlb-lb` | ECMP, Presto, LetFlow, Hermes, DRILL |
//! | [`core`] | `rlb-core` | **RLB itself**: PFC prediction, CNM warnings, Algorithm 1 |
//! | [`net`] | `rlb-net` | the packet-level lossless-fabric simulator |
//!
//! ## Quickstart
//!
//! ```
//! use rlb::net::{Scenario, SteadyStateConfig};
//! use rlb::lb::Scheme;
//! use rlb::core::RlbConfig;
//! use rlb::engine::SimTime;
//!
//! // Web Search at 60% load on a 4x4 leaf-spine fabric, DRILL+RLB.
//! let mut cfg = SteadyStateConfig::default();
//! cfg.horizon = SimTime::from_us(300); // tiny horizon for the doctest
//! let result = Scenario::steady_state(&cfg, Scheme::Drill, Some(RlbConfig::default())).run();
//! println!("avg FCT = {:.3} ms", result.summary().avg_fct_ms);
//! assert_eq!(result.counters.buffer_drops, 0);
//! ```

pub use rlb_core as core;
pub use rlb_engine as engine;
pub use rlb_lb as lb;
pub use rlb_metrics as metrics;
pub use rlb_net as net;
pub use rlb_transport as transport;
pub use rlb_workloads as workloads;
