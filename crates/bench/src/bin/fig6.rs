//! Figure 6 — throughput and fairness vs. register file size for FLUSH
//! and RaT ([`Figure::Fig6`]).

use rat_bench::figures::{self, Figure};

fn main() {
    figures::main(&[Figure::Fig6]);
}
