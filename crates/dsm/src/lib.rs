//! # dsm — compatibility shim
//!
//! DSM (§9 of the SRM paper) is SRM's engine on one wide disk: the `D`
//! disks as one disk whose blocks hold `D·B` records, merging eq. 41's
//! `R_DSM = (M/B − 2D)/2D` runs at a time — `srm_core::SrmSorter` under
//! `srm_core::EngineKind::Dsm`.  This crate keeps the one name external
//! drivers still import: staging an input is the same for both sorts.

pub use pdisk::write_unsorted_input as write_unsorted_stripes;
