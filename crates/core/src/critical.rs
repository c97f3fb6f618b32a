//! Named critical sections (`#pragma omp critical(name)`).
//!
//! The paper's H.264 decoder hides the Picture Info Buffer and Decoded
//! Picture Buffer from the dependence system (their availability is only
//! known at execution time) and instead protects the fetch/release
//! statements inside the task bodies with `omp critical`. This module gives
//! the same facility: a registry of named mutexes, created lazily on first
//! use. The empty name maps to the single anonymous critical section, as in
//! OpenMP.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Registry of named critical sections.
pub struct CriticalSections {
    sections: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl CriticalSections {
    /// Create an empty registry.
    pub fn new() -> Self {
        CriticalSections {
            sections: Mutex::new(HashMap::new()),
        }
    }

    /// Execute `f` while holding the critical section `name`. Sections with
    /// different names do not exclude each other; all users of the same name
    /// are mutually exclusive.
    pub fn enter<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let section = self.section(name);
        let _guard = section.lock();
        f()
    }

    fn section(&self, name: &str) -> Arc<Mutex<()>> {
        let mut map = self.sections.lock();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone()
    }
}

impl Default for CriticalSections {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CriticalSections {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let named = self.sections.lock().len();
        write!(f, "CriticalSections({named} named sections)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn returns_closure_value() {
        let cs = CriticalSections::new();
        let v = cs.enter("x", || 42);
        assert_eq!(v, 42);
        assert_eq!(cs.sections.lock().len(), 1);
    }

    #[test]
    fn same_name_is_mutually_exclusive() {
        let cs = Arc::new(CriticalSections::new());
        let counter = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cs = cs.clone();
                let counter = counter.clone();
                let max_seen = max_seen.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        cs.enter("dpb", || {
                            let now = counter.fetch_add(1, Ordering::SeqCst) + 1;
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            counter.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "never more than one thread inside the same named section"
        );
    }

    #[test]
    fn different_names_do_not_exclude() {
        // Enter section "a", and from inside it enter "b": must not deadlock.
        let cs = CriticalSections::new();
        let r = cs.enter("a", || cs.enter("b", || 7));
        assert_eq!(r, 7);
        assert_eq!(cs.sections.lock().len(), 2);
    }

    #[test]
    fn anonymous_section_is_shared() {
        let cs = CriticalSections::new();
        cs.enter("", || {});
        cs.enter("", || {});
        assert_eq!(cs.sections.lock().len(), 1);
    }

    #[test]
    fn debug_and_default() {
        let cs = CriticalSections::default();
        assert!(format!("{cs:?}").contains("0 named sections"));
    }
}
