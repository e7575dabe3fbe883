//! Empty.  `srmbench/Cargo.lock` names this crate as a dependency of five
//! workspace crates; it goes with those lines (ROADMAP item 1).
