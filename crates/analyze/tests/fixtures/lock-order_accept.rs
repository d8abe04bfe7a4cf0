//! Accept fixture (crate `serve`): acquisitions follow the declared
//! order (jobs → fleet → state), wrapper methods resolve to their
//! lock names, and a deliberate out-of-order touch is waived.

use std::sync::{Mutex, MutexGuard, PoisonError};

pub struct Daemon {
    jobs: Mutex<Vec<u64>>,
    fleet: Mutex<u8>,
    state: Mutex<Vec<u8>>,
}

impl Daemon {
    fn lock_fleet(&self) -> MutexGuard<'_, u8> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn claim(&self) {
        let j = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let f = self.lock_fleet();
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        drop((j, f, s));
    }

    pub fn deliver_then_count(&self) {
        {
            let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            drop(s);
        }
        // lint: allow(lock-order) — the state guard was dropped above;
        // the acquisitions never overlap.
        let f = self.lock_fleet();
        drop(f);
    }
}
