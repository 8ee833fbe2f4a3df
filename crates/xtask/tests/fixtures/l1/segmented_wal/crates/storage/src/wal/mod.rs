//! Mini segmented-WAL workspace: shared state lives in the directory
//! module, the background worker in a submodule.  Pins two L1
//! behaviours the real `storage/src/wal/` split depends on: fields of a
//! `pub(crate)` struct count as lock vocabulary, and the `mod.rs`
//! vocabulary extends to sibling files so holds in submodules are
//! modelled at all.

mod compactor;

use std::sync::{Condvar, Mutex};

pub(crate) struct WalShared {
    inner: Mutex<u64>,
    comp: Mutex<bool>,
    comp_cv: Condvar,
    journal: std::fs::File,
}

impl WalShared {
    pub fn commit(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner += 1;
        self.journal.sync_data().unwrap();
    }

    pub fn size(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        *inner
    }
}
