//! Known-bad L1 fixture: `persist` holds `a` across a blocking barrier,
//! and `persist_via_helper` holds it across a helper that reaches one.

use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u64>,
    file: std::fs::File,
}

impl Pair {
    pub fn persist(&self) {
        let _guard = self.a.lock().unwrap();
        self.file.sync_data().unwrap();
    }

    pub fn persist_via_helper(&self) {
        let _guard = self.a.lock().unwrap();
        barrier(&self.file);
    }
}

fn barrier(file: &std::fs::File) {
    file.sync_all().unwrap();
}
