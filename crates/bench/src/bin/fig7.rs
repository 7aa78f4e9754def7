//! Fig. 7 — capture runtime overhead on the DBLP dataset (D1–D5; the
//! paper plots D3 separately because its absolute runtime dominates).

use pebble_bench::{exec_config, ms, overhead_pct, steps, DBLP_BASE};
use pebble_core::run_captured;
use pebble_dataflow::{run, NoSink};
use pebble_workloads::{dblp_context, dblp_scenarios};

fn main() {
    let cfg = exec_config();
    println!("Fig. 7 — capture runtime overhead, DBLP scenarios");
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "size", "scen.", "plain ms", "capture ms", "overhead", "+persist ms", "overhead"
    );
    for size in steps(DBLP_BASE) {
        let ctx = dblp_context(size);
        for s in dblp_scenarios() {
            let times = pebble_bench::time_interleaved(
                7,
                &mut [
                    &mut || {
                        run(&s.program, &ctx, cfg, &NoSink).unwrap();
                    },
                    &mut || {
                        run_captured(&s.program, &ctx, cfg).unwrap();
                    },
                    &mut || {
                        // Capture and persist the pebbles in the segment
                        // format the store serves, as the paper's
                        // deployment does (provenance is stored for later
                        // querying; cf. Sec. 7.3.2).
                        let r = run_captured(&s.program, &ctx, cfg).unwrap();
                        std::hint::black_box(pebble_serve::persist(&r));
                    },
                ],
            );
            let (plain, captured, persisted) = (times[0], times[1], times[2]);
            println!(
                "{:<8} {:>8} {:>12} {:>12} {:>9.0}% {:>12} {:>9.0}%",
                size,
                s.name,
                ms(plain),
                ms(captured),
                overhead_pct(plain, captured),
                ms(persisted),
                overhead_pct(plain, persisted)
            );
        }
    }
}
