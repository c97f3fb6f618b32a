//! Machine and runtime cost parameters used by both execution models.
//!
//! Defaults are calibrated to a 2011-era 4-socket, 32-core cc-NUMA x86
//! server running a Nanos++-style runtime: microsecond-scale task management
//! overheads, millisecond-scale thread wake-up tails for blocking barriers at
//! high thread counts, and a moderate cache-locality benefit for
//! producer→consumer task pairs scheduled back to back on one core.

/// Cost parameters of the simulated machine and runtimes. All times are in
/// nanoseconds of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// Number of sockets (NUMA domains) of the machine being modelled.
    pub sockets: usize,
    /// Total number of cores of the modelled machine.
    pub max_cores: usize,
    /// Serial cost, on the master thread, of creating one task (building the
    /// descriptor and inserting it into the dependence graph).
    pub task_create_ns: u64,
    /// Per-task cost on the executing core (scheduling, dependence release).
    pub task_dispatch_ns: u64,
    /// Cost of stealing a task from another core's queue.
    pub steal_ns: u64,
    /// Fixed cost of a polling task barrier.
    pub polling_barrier_base_ns: u64,
    /// Per-core additional cost of a polling task barrier.
    pub polling_barrier_per_core_ns: u64,
    /// Fixed cost of a blocking (condition-variable) barrier.
    pub blocking_barrier_base_ns: u64,
    /// Per-thread additional cost of a blocking barrier (wake-up chain and
    /// re-scheduling tail; the dominant term at high thread counts).
    pub blocking_barrier_per_core_ns: u64,
    /// Fraction of the *memory-bound* part of a task's cost saved when it
    /// executes on the same core as its producer (warm cache).
    pub locality_bonus: f64,
    /// Multiplicative penalty applied to the memory-bound part of a task's
    /// cost when its producer ran on a different socket.
    pub numa_penalty: f64,
    /// How long after its producer finished a consumer task can still find
    /// the produced data in the core's private caches. Consumers scheduled
    /// on the producer's core within this window earn the locality bonus;
    /// later ones find the data evicted.
    pub cache_retention_ns: u64,
    /// One-time cost of creating a worker thread (Pthreads start-up).
    pub thread_create_ns: u64,
}

/// How a task's input data relates to the core it executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLocality {
    /// No producer (initial data) or unknown placement.
    Neutral,
    /// The producer ran on the same core recently enough that the data is
    /// still cached.
    Warm,
    /// The producer ran on the same socket (or the same core, too long ago).
    SameSocket,
    /// The producer ran on a different socket.
    RemoteSocket,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            sockets: 4,
            max_cores: 32,
            task_create_ns: 1_200,
            task_dispatch_ns: 450,
            steal_ns: 900,
            polling_barrier_base_ns: 800,
            polling_barrier_per_core_ns: 60,
            blocking_barrier_base_ns: 6_000,
            blocking_barrier_per_core_ns: 40_000,
            locality_bonus: 0.35,
            numa_penalty: 1.30,
            cache_retention_ns: 3_000_000,
            thread_create_ns: 60_000,
        }
    }
}

impl MachineParams {
    /// Cores per socket of the modelled machine.
    pub fn cores_per_socket(&self) -> usize {
        (self.max_cores / self.sockets).max(1)
    }

    /// Socket that core `core` belongs to.
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket()
    }

    /// Cost of one polling task barrier episode across `cores` cores.
    pub fn polling_barrier_ns(&self, cores: usize) -> u64 {
        self.polling_barrier_base_ns + self.polling_barrier_per_core_ns * cores as u64
    }

    /// Cost of one blocking thread barrier episode across `cores` threads.
    ///
    /// The per-core term models the wake-up chain and the probability that at
    /// least one thread was descheduled and pays a scheduler-tick latency:
    /// empirically the cost of `pthread_barrier_wait` rounds grows roughly
    /// linearly with the thread count on the machine class the paper uses.
    pub fn blocking_barrier_ns(&self, cores: usize) -> u64 {
        if cores <= 1 {
            return self.blocking_barrier_base_ns / 4;
        }
        self.blocking_barrier_base_ns + self.blocking_barrier_per_core_ns * cores as u64
    }

    /// Effective cost of a task of `cost_ns` total work with `mem_fraction`
    /// of it memory bound, given where its input data lives.
    pub fn effective_task_cost(
        &self,
        cost_ns: u64,
        mem_fraction: f64,
        locality: DataLocality,
    ) -> u64 {
        let mem = cost_ns as f64 * mem_fraction.clamp(0.0, 1.0);
        let compute = cost_ns as f64 - mem;
        let mem_cost = match locality {
            DataLocality::Warm => mem * (1.0 - self.locality_bonus),
            DataLocality::RemoteSocket => mem * self.numa_penalty,
            DataLocality::SameSocket | DataLocality::Neutral => mem,
        };
        (compute + mem_cost).round() as u64
    }

    /// Classify the locality of a consumer starting at `start_ns` on `core`,
    /// whose producer ran on `producer_core` and finished at
    /// `producer_finish_ns`.
    pub fn classify_locality(
        &self,
        core: usize,
        producer: Option<(usize, u64)>,
        start_ns: u64,
    ) -> DataLocality {
        match producer {
            None => DataLocality::Neutral,
            Some((p, finish)) => {
                if p == core && start_ns.saturating_sub(finish) <= self.cache_retention_ns {
                    DataLocality::Warm
                } else if self.socket_of(p) == self.socket_of(core) {
                    DataLocality::SameSocket
                } else {
                    DataLocality::RemoteSocket
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_are_sane() {
        let m = MachineParams::default();
        assert_eq!(m.max_cores, 32);
        assert_eq!(m.cores_per_socket(), 8);
        assert!(m.locality_bonus > 0.0 && m.locality_bonus < 1.0);
        assert!(m.numa_penalty >= 1.0);
    }

    #[test]
    fn socket_mapping() {
        let m = MachineParams::default();
        assert_eq!(m.socket_of(0), 0);
        assert_eq!(m.socket_of(7), 0);
        assert_eq!(m.socket_of(8), 1);
        assert_eq!(m.socket_of(31), 3);
    }

    #[test]
    fn blocking_barrier_is_much_more_expensive_at_scale() {
        let m = MachineParams::default();
        assert!(m.blocking_barrier_ns(32) > 10 * m.polling_barrier_ns(32));
        assert!(m.blocking_barrier_ns(32) > m.blocking_barrier_ns(8));
        // Single thread pays almost nothing.
        assert!(m.blocking_barrier_ns(1) < m.blocking_barrier_ns(2));
    }

    #[test]
    fn polling_barrier_grows_mildly_with_cores() {
        let m = MachineParams::default();
        let delta = m.polling_barrier_ns(32) - m.polling_barrier_ns(1);
        assert!(
            delta < 10_000,
            "polling barrier stays in the microsecond range"
        );
    }

    #[test]
    fn locality_bonus_reduces_memory_bound_cost() {
        let m = MachineParams::default();
        let base = m.effective_task_cost(1_000_000, 0.6, DataLocality::Neutral);
        let warm = m.effective_task_cost(1_000_000, 0.6, DataLocality::Warm);
        let remote = m.effective_task_cost(1_000_000, 0.6, DataLocality::RemoteSocket);
        assert!(warm < base, "warm-cache consumer is faster");
        assert!(remote > base, "cross-socket consumer is slower");
        // Compute-only tasks are unaffected.
        assert_eq!(
            m.effective_task_cost(500_000, 0.0, DataLocality::Warm),
            m.effective_task_cost(500_000, 0.0, DataLocality::Neutral)
        );
    }

    #[test]
    fn effective_cost_clamps_mem_fraction() {
        let m = MachineParams::default();
        let a = m.effective_task_cost(100_000, 2.0, DataLocality::Warm);
        let b = m.effective_task_cost(100_000, 1.0, DataLocality::Warm);
        assert_eq!(a, b);
    }

    #[test]
    fn locality_classification_uses_core_socket_and_recency() {
        let m = MachineParams::default();
        assert_eq!(m.classify_locality(3, None, 100), DataLocality::Neutral);
        // Same core, recent: warm.
        assert_eq!(
            m.classify_locality(3, Some((3, 1_000_000)), 1_500_000),
            DataLocality::Warm
        );
        // Same core, but long after the producer: data evicted.
        assert_eq!(
            m.classify_locality(3, Some((3, 1_000_000)), 100_000_000),
            DataLocality::SameSocket
        );
        // Different core, same socket.
        assert_eq!(
            m.classify_locality(3, Some((5, 0)), 0),
            DataLocality::SameSocket
        );
        // Different socket.
        assert_eq!(
            m.classify_locality(3, Some((20, 0)), 0),
            DataLocality::RemoteSocket
        );
    }
}
