//! Reject fixture (crate `serve`): an inverted acquisition pair and an
//! undeclared mutex.

use std::sync::Mutex;

pub struct Daemon {
    jobs: Mutex<Vec<u64>>,
    fleet: Mutex<u8>,
    state: Mutex<Vec<u8>>,
    cache_dir: Mutex<String>,
}

impl Daemon {
    pub fn claim_backwards(&self) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let f = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
        drop((s, f));
    }

    pub fn undeclared(&self) {
        let d = self.cache_dir.lock().unwrap_or_else(|e| e.into_inner());
        let j = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        drop((d, j));
    }
}
