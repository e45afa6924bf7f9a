//! Physical operator implementations.

pub mod agg;
pub mod exchange;
pub mod filter;
pub mod join;
pub mod remote;
pub mod retry;
pub mod scan;
pub mod semijoin;
pub mod sort;

#[cfg(test)]
mod protocol;
