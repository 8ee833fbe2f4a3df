//! Known-good twin of `held_across_io`: the barrier runs only after the
//! guard is dropped, and a temporary guard dies with its statement.

use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u64>,
    file: std::fs::File,
}

impl Pair {
    pub fn persist(&self) {
        let guard = self.a.lock().unwrap();
        let dirty = *guard > 0;
        drop(guard);
        if dirty {
            self.file.sync_data().unwrap();
        }
    }

    pub fn persist_after_peek(&self) {
        let dirty = *self.a.lock().unwrap() > 0;
        if dirty {
            barrier(&self.file);
        }
    }
}

fn barrier(file: &std::fs::File) {
    file.sync_all().unwrap();
}
