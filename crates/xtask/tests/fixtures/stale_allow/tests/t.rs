//! A stale allow in a test file, where no lexical rule applies.

fn t() {} // xlint:allow(B1) — nothing syncs here
