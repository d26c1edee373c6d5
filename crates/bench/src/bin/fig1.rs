//! Figure 1 — throughput and fairness of the I-fetch policies
//! ([`Figure::Fig1`]).

use rat_bench::figures::{self, Figure};

fn main() {
    figures::main(&[Figure::Fig1]);
}
