//! `fig10_cold`: the 130 Fig 10 cells through `Runner`, cold, no disk
//! cache. Nearly all host time is in the simulator stack.

use std::time::Instant;

use crate::harness::{cell_records, check_digest, check_direct, run_rounds, Measured, Sweep, JOBS};
use crate::inputs::fig10_cells;
use crate::spans::Tracer;

/// Rounds a run needs: the best of ten rounds repeats from run to run,
/// and their 1300 cell runs leave ten beyond the request p99.
const MIN_ROUNDS: usize = 10;

/// Runs the workload for `seconds` (longer if it still lacks samples).
pub fn run(seed: u64, seconds: u64, trace: bool, tracer: &Tracer) -> Measured {
    let cells = fig10_cells(seed);
    let records: u64 = cells.iter().map(cell_records).sum();
    let mut m = Measured {
        sample: ["base", "dice36"]
            .iter()
            .filter_map(|tag| cells.iter().find(|c| c.tag == *tag).cloned())
            .collect(),
        // A request to the runner is one cell, served in the cell's host
        // time.
        requests_are_cells: true,
        ..Measured::default()
    };
    run_rounds(
        seconds,
        trace,
        tracer,
        &mut m,
        false,
        |m| m.sweeps.len() < MIN_ROUNDS,
        |m, tracer, round| {
            // Set-up declares the cells, as `experiments fig10` does,
            // then builds the runner.
            let declared = Instant::now();
            let round_cells = fig10_cells(seed);
            let declare = declared.elapsed();
            let sweep = Sweep::run(round_cells, JOBS);
            let wall = sweep.wall.as_secs_f64();
            m.setup_s.push((declare + sweep.setup).as_secs_f64());
            m.sim_records_per_s.push(records as f64 / wall);
            m.requests_per_s
                .push(sweep.result.outcomes.len() as f64 / wall);
            m.sweeps.push(sweep.stats(cells.len()));

            let digest = sweep.record(m, tracer, "");
            check_digest(m, round, digest, cells.len());
            // One cell per round, rotating, must match a direct System run.
            let probe = &cells[round % cells.len()];
            check_direct(
                m,
                probe,
                sweep.report_json(&probe.tag, &probe.workload.name),
            );
            if round == 0 {
                m.reports = sweep.reports();
            }
            wall
        },
    );
    m
}
