//! The OmpSs execution model: task graphs, dynamic scheduling, locality,
//! polling barriers.

use crate::dag::{list_schedule, ScheduleOptions, SimDag, SimTaskSpec};
use crate::machine::MachineParams;
use crate::workloads::{BenchmarkWorkload, Phase, PipelineShape, Structure};

/// Virtual execution time of `workload` under the OmpSs model on `cores`
/// cores.
pub fn execution_time_ns(
    workload: &BenchmarkWorkload,
    cores: usize,
    machine: &MachineParams,
) -> u64 {
    match &workload.structure {
        Structure::Phased(phases) => phased_time_ns(phases, cores, machine, true),
        Structure::Pipeline(shape) => pipeline_time_ns(shape, cores, machine),
    }
}

/// Phased execution under the task model. Consecutive phases whose second
/// member is `linked_to_previous` form one task graph (no barrier in
/// between — the dependences carry the ordering); every graph ends with a
/// polling task barrier (`taskwait`). `locality` toggles the locality-aware
/// scheduler (used by the locality ablation experiment).
pub fn phased_time_ns(
    phases: &[Phase],
    cores: usize,
    machine: &MachineParams,
    locality: bool,
) -> u64 {
    let mut total = 0u64;
    let mut i = 0;
    let options = ScheduleOptions {
        creation_overhead: true,
        dispatch_overhead: true,
        locality_aware: locality,
    };
    while i < phases.len() {
        // Collect the segment of phases joined by producer→consumer links.
        let mut j = i + 1;
        while j < phases.len() && phases[j].linked_to_previous {
            j += 1;
        }
        let segment = &phases[i..j];
        // Serial master work of each phase in the segment happens outside the
        // task graph (between taskwait and the next spawn burst).
        for p in segment {
            total += p.serial_ns;
        }
        let dag = build_segment_dag(segment);
        let result = list_schedule(&dag, cores, machine, &options);
        total += result.makespan_ns + machine.polling_barrier_ns(cores);
        i = j;
    }
    total
}

fn build_segment_dag(segment: &[Phase]) -> SimDag {
    let mut dag = SimDag::new();
    let mut previous_phase_ids: Vec<usize> = Vec::new();
    for (pi, phase) in segment.iter().enumerate() {
        let mut ids = Vec::with_capacity(phase.tasks.len());
        for (ti, task) in phase.tasks.iter().enumerate() {
            let deps = if pi > 0 && phase.linked_to_previous {
                // Task i consumes the output of task i of the previous phase.
                previous_phase_ids
                    .get(ti)
                    .map(|&d| vec![d])
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            ids.push(dag.push(SimTaskSpec::new(task.cost_ns, task.mem_fraction, deps)));
        }
        previous_phase_ids = ids;
    }
    dag
}

/// Pipeline execution under the task model, following Listing 1: one task
/// per stage per frame, each stage serialised across frames through its
/// `inout` context, with the reconstruction stage split into
/// `ceil(mb_rows / group_rows)` row-group tasks (the granularity the paper
/// says OmpSs must use to amortise task overhead).
pub fn pipeline_time_ns(shape: &PipelineShape, cores: usize, machine: &MachineParams) -> u64 {
    let dag = build_pipeline_dag(shape);
    let result = list_schedule(&dag, cores, machine, &ScheduleOptions::ompss());
    result.makespan_ns + machine.polling_barrier_ns(cores)
}

/// Build the Listing-1 task graph for the whole sequence.
pub fn build_pipeline_dag(shape: &PipelineShape) -> SimDag {
    let groups = shape.mb_rows.div_ceil(shape.group_rows).max(1);
    let mut dag = SimDag::new();
    let mut prev_read: Option<usize> = None;
    let mut prev_parse: Option<usize> = None;
    let mut prev_entropy: Option<usize> = None;
    let mut prev_reconstruct: Vec<usize> = Vec::new();
    let mut prev_output: Option<usize> = None;

    for _frame in 0..shape.frames {
        // read: inout(*rc) serialises it against the previous read.
        let read = dag.push(SimTaskSpec::new(
            shape.read_ns,
            0.2,
            prev_read.into_iter().collect(),
        ));
        // parse: needs this frame's read, serialised against previous parse.
        let mut deps = vec![read];
        deps.extend(prev_parse);
        let parse = dag.push(SimTaskSpec::new(shape.parse_ns, 0.1, deps));
        // entropy decode: needs the parse, serialised against previous ED.
        let mut deps = vec![parse];
        deps.extend(prev_entropy);
        let entropy = dag.push(SimTaskSpec::new(shape.entropy_ns, 0.3, deps));
        // reconstruction: split into row groups; every group needs this
        // frame's ED and the whole previous frame (motion-compensation
        // reference).
        let group_cost = shape.reconstruct_ns / groups as u64;
        let mut rec_ids = Vec::with_capacity(groups);
        for _g in 0..groups {
            let mut deps = vec![entropy];
            deps.extend(prev_reconstruct.iter().copied());
            rec_ids.push(dag.push(SimTaskSpec::new(group_cost, shape.mem_fraction, deps)));
        }
        // output: needs the reconstructed frame, serialised against the
        // previous output.
        let mut deps = rec_ids.clone();
        deps.extend(prev_output);
        let output = dag.push(SimTaskSpec::new(shape.output_ns, 0.2, deps));

        prev_read = Some(read);
        prev_parse = Some(parse);
        prev_entropy = Some(entropy);
        prev_reconstruct = rec_ids;
        prev_output = Some(output);
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, TaskCost};

    fn machine() -> MachineParams {
        MachineParams::default()
    }

    #[test]
    fn single_phase_scales_with_cores() {
        let phases = vec![Phase::uniform(128, 1_000_000, 0.2)];
        let t1 = phased_time_ns(&phases, 1, &machine(), true);
        let t8 = phased_time_ns(&phases, 8, &machine(), true);
        let t32 = phased_time_ns(&phases, 32, &machine(), true);
        assert!(t8 < t1 / 4, "8 cores must give solid speedup");
        assert!(t32 < t8, "more cores keep helping for a big phase");
    }

    #[test]
    fn serial_sections_are_charged() {
        let mut p = Phase::uniform(8, 1_000_000, 0.0);
        p.serial_ns = 5_000_000;
        let with = phased_time_ns(&[p.clone()], 4, &machine(), true);
        p.serial_ns = 0;
        let without = phased_time_ns(&[p], 4, &machine(), true);
        assert_eq!(with - without, 5_000_000);
    }

    #[test]
    fn linked_phases_avoid_a_barrier_and_gain_locality() {
        let producer = Phase::uniform(64, 1_000_000, 0.8);
        let mut consumer = Phase::uniform(64, 1_000_000, 0.8);
        consumer.linked_to_previous = true;
        let fused = phased_time_ns(&[producer.clone(), consumer.clone()], 8, &machine(), true);
        let mut unlinked_consumer = consumer.clone();
        unlinked_consumer.linked_to_previous = false;
        let split = phased_time_ns(&[producer, unlinked_consumer], 8, &machine(), true);
        assert!(
            fused < split,
            "fused producer-consumer graph must beat two barrier-separated phases: {fused} vs {split}"
        );
    }

    #[test]
    fn locality_ablation_shows_a_benefit_on_linked_phases() {
        let producer = Phase::uniform(64, 800_000, 0.8);
        let mut consumer = Phase {
            tasks: vec![
                TaskCost {
                    cost_ns: 800_000,
                    mem_fraction: 0.9
                };
                64
            ],
            linked_to_previous: true,
            serial_ns: 0,
        };
        consumer.linked_to_previous = true;
        let with = phased_time_ns(&[producer.clone(), consumer.clone()], 8, &machine(), true);
        let without = phased_time_ns(&[producer, consumer], 8, &machine(), false);
        assert!(
            with < without,
            "locality scheduling must help: {with} vs {without}"
        );
    }

    #[test]
    fn pipeline_dag_has_expected_task_count() {
        let shape = PipelineShape {
            frames: 10,
            read_ns: 1,
            parse_ns: 1,
            entropy_ns: 100,
            reconstruct_ns: 700,
            output_ns: 1,
            mb_rows: 68,
            group_rows: 10,
            mem_fraction: 0.5,
        };
        let dag = build_pipeline_dag(&shape);
        // 5 stages per frame, with reconstruction split into ceil(68/10) = 7
        // groups → 4 + 7 = 11 tasks per frame.
        assert_eq!(dag.len(), 10 * 11);
    }

    #[test]
    fn pipeline_speedup_saturates_with_grouping() {
        let w = workload("h264dec");
        let m = machine();
        let t1 = execution_time_ns(&w, 1, &m);
        let t8 = execution_time_ns(&w, 8, &m);
        let t16 = execution_time_ns(&w, 16, &m);
        let t32 = execution_time_ns(&w, 32, &m);
        assert!(t8 < t1, "some scaling up to 8 cores");
        let s16 = t1 as f64 / t16 as f64;
        let s32 = t1 as f64 / t32 as f64;
        assert!(
            s32 < s16 * 1.15,
            "grouped pipeline must saturate: s16={s16:.2}, s32={s32:.2}"
        );
        assert!(s32 < 12.0, "exposed parallelism is capped by the grouping");
    }

    #[test]
    fn grouping_trades_parallelism_for_overhead() {
        let base = match workload("h264dec").structure {
            Structure::Pipeline(p) => p,
            _ => unreachable!(),
        };
        let m = machine();
        // Whole-frame reconstruction tasks (maximal grouping) leave almost no
        // intra-frame parallelism: much slower at 32 cores than the default
        // grouping.
        let mut whole_frame = base;
        whole_frame.group_rows = base.mb_rows;
        let t_whole = pipeline_time_ns(&whole_frame, 32, &m);
        let t_default = pipeline_time_ns(&base, 32, &m);
        assert!(
            t_whole > t_default * 3 / 2,
            "whole-frame tasks must be much slower at 32 cores: {t_whole} vs {t_default}"
        );
        // Very fine tasks pay more task-management overhead at 1 core.
        let mut fine = base;
        fine.group_rows = 1;
        let t_fine_1 = pipeline_time_ns(&fine, 1, &m);
        let t_default_1 = pipeline_time_ns(&base, 1, &m);
        assert!(
            t_fine_1 > t_default_1,
            "finer granularity must cost more overhead on one core: {t_fine_1} vs {t_default_1}"
        );
    }

    #[test]
    fn all_workloads_simulate_without_panicking() {
        for w in crate::workloads::all_workloads() {
            for cores in [1usize, 8, 32] {
                let t = execution_time_ns(&w, cores, &machine());
                assert!(t > 0, "{} at {cores} cores", w.name);
            }
        }
    }
}
