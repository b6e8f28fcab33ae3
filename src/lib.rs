//! # sixgen — a reproduction of 6Gen (IMC 2017)
//!
//! Facade crate re-exporting the full reproduction of Murdock et al.,
//! *Target Generation for Internet-wide IPv6 Scanning* (IMC 2017): the 6Gen
//! target generation algorithm, the Entropy/IP and pattern baselines, the
//! simulated IPv6 Internet and scanner substrate, routing, datasets, and
//! reporting. See `README.md` for a tour and `DESIGN.md` for the
//! paper-to-code map.

#![forbid(unsafe_code)]

pub mod run;
pub mod serve;

pub use sixgen_addr as addr;
pub use sixgen_baselines as baselines;
pub use sixgen_core as core;
pub use sixgen_datasets as datasets;
pub use sixgen_entropy_ip as entropy_ip;
pub use sixgen_obs as obs;
pub use sixgen_report as report;
pub use sixgen_routing as routing;
pub use sixgen_simnet as simnet;
