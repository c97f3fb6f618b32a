//! Hand-rolled thread-per-stage pipelines.
//!
//! This is the structure the Pthreads variant of `h264dec` uses instead of
//! task annotations: one dedicated thread per pipeline stage, connected by
//! bounded blocking queues. Items flow through every stage in order (each
//! stage is a single thread reading from a FIFO), so output order equals
//! input order.

use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::queue::BoundedQueue;

/// Per-stage throughput counters, reported by [`Pipeline::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Stage names in pipeline order.
    pub stage_names: Vec<String>,
    /// Items processed by each stage.
    pub items_per_stage: Vec<u64>,
}

type StageFn<T> = Box<dyn FnMut(T) -> T + Send + 'static>;

struct Stage<T> {
    name: String,
    f: StageFn<T>,
}

/// A linear pipeline over items of type `T` with one thread per stage.
pub struct Pipeline<T> {
    stages: Vec<Stage<T>>,
    queue_capacity: usize,
}

impl<T: Send + 'static> Pipeline<T> {
    /// Create an empty pipeline whose inter-stage queues hold at most
    /// `queue_capacity` items (the "in-flight window", analogous to the
    /// circular-buffer depth N of the OmpSs version).
    ///
    /// # Panics
    /// Panics if `queue_capacity == 0`.
    pub fn new(queue_capacity: usize) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        Pipeline {
            stages: Vec::new(),
            queue_capacity,
        }
    }

    /// Append a stage executing `f` on every item.
    pub fn stage(mut self, name: &str, f: impl FnMut(T) -> T + Send + 'static) -> Self {
        self.stages.push(Stage {
            name: name.to_string(),
            f: Box::new(f),
        });
        self
    }

    /// Feed `items` through the pipeline, returning the processed items in
    /// input order together with per-stage statistics.
    ///
    /// The source is fed from a dedicated thread while this thread drains the
    /// sink, so the bounded inter-stage queues provide backpressure without
    /// ever deadlocking, regardless of how many items flow through.
    ///
    /// # Panics
    /// Panics if the pipeline has no stages or if a stage panics.
    pub fn run<I>(self, items: I) -> (Vec<T>, PipelineStats)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: Send,
    {
        assert!(!self.stages.is_empty(), "pipeline needs at least one stage");
        let n_stages = self.stages.len();
        let capacity = self.queue_capacity;

        // queues[0] feeds stage 0, queues[i] connects stage i-1 to stage i,
        // queues[n] collects the output.
        let queues: Vec<BoundedQueue<T>> = (0..=n_stages)
            .map(|_| BoundedQueue::new(capacity))
            .collect();
        let counters: Vec<Arc<Mutex<u64>>> =
            (0..n_stages).map(|_| Arc::new(Mutex::new(0))).collect();
        let stage_names: Vec<String> = self.stages.iter().map(|s| s.name.clone()).collect();

        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(n_stages);
        for (i, stage) in self.stages.into_iter().enumerate() {
            let input = queues[i].clone();
            let output = queues[i + 1].clone();
            let counter = counters[i].clone();
            let mut f = stage.f;
            let name = stage.name.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pipeline-{name}"))
                    .spawn(move || {
                        while let Ok(item) = input.pop() {
                            let out = f(item);
                            *counter.lock() += 1;
                            if output.push(out).is_err() {
                                break;
                            }
                        }
                        output.close();
                    })
                    .expect("failed to spawn pipeline stage thread"),
            );
        }

        // Feed the source from a helper thread while this thread drains the
        // sink; with both ends active the bounded queues can never wedge.
        let mut out = Vec::new();
        let source = queues[0].clone();
        let sink = queues[n_stages].clone();
        let iter = items.into_iter();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for item in iter {
                    if source.push(item).is_err() {
                        break;
                    }
                }
                source.close();
            });
            while let Ok(item) = sink.pop() {
                out.push(item);
            }
        });
        for h in handles {
            h.join().expect("pipeline stage panicked");
        }

        let stats = PipelineStats {
            stage_names,
            items_per_stage: counters.iter().map(|c| *c.lock()).collect(),
        };
        (out, stats)
    }
}

impl<T> std::fmt::Debug for Pipeline<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pipeline({} stages, window {})",
            self.stages.len(),
            self.queue_capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Pipeline::<u32>::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = Pipeline::<u32>::new(1).run(vec![1]);
    }

    #[test]
    fn single_stage_maps_items_in_order() {
        let p = Pipeline::new(2).stage("double", |x: u32| x * 2);
        let (out, stats) = p.run(0..10u32);
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(stats.items_per_stage, vec![10]);
        assert_eq!(stats.stage_names, vec!["double".to_string()]);
    }

    #[test]
    fn multi_stage_composes_in_order() {
        let p = Pipeline::new(4)
            .stage("add1", |x: u64| x + 1)
            .stage("times3", |x: u64| x * 3)
            .stage("sub2", |x: u64| x - 2);
        let (out, stats) = p.run(0..100u64);
        let expected: Vec<u64> = (0..100).map(|x| (x + 1) * 3 - 2).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.items_per_stage, vec![100, 100, 100]);
    }

    #[test]
    fn stateful_stages_see_items_in_input_order() {
        // A stage with internal state (like a decoder context) relies on
        // in-order delivery.
        let p = Pipeline::new(3).stage("running-sum", {
            let mut acc = 0u64;
            move |x: u64| {
                acc += x;
                acc
            }
        });
        let (out, _) = p.run(1..=5u64);
        assert_eq!(out, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let p = Pipeline::new(2).stage("id", |x: u8| x);
        let (out, stats) = p.run(Vec::new());
        assert!(out.is_empty());
        assert_eq!(stats.items_per_stage, vec![0]);
    }

    #[test]
    fn small_window_still_processes_everything() {
        let p = Pipeline::new(1)
            .stage("a", |x: u32| x + 1)
            .stage("b", |x: u32| x + 1)
            .stage("c", |x: u32| x + 1)
            .stage("d", |x: u32| x + 1)
            .stage("e", |x: u32| x + 1);
        let (out, _) = p.run(0..200u32);
        assert_eq!(out, (5..205).collect::<Vec<_>>());
    }

    #[test]
    fn debug_format() {
        let p = Pipeline::<u8>::new(4).stage("x", |v| v);
        assert!(format!("{p:?}").contains("1 stages"));
    }
}
