//! The many-connections-per-thread grouping of the one client engine
//! (see [`crate::client`]); kept as a module path for its importers.

pub use crate::client::run_mux_load;
