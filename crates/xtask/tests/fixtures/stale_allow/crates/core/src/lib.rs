//! Allows that suppress nothing: one whose rule never fires on its line,
//! one naming no rule, one without a reason.  The sweep reports each.

pub fn f() {} // xlint:allow(Z1) — nothing is copied here
pub fn g() {} // xlint:allow(Q9) — typo
pub fn h(p: &[u8]) -> Vec<u8> { p.to_vec() } // xlint:allow(Z1)
