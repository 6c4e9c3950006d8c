//! Power-corridor enforcement (paper Figure 6, use case §3.2.5).
//!
//! Two malleable EPOP applications share a fleet whose total draw must stay
//! inside a contractual corridor. The invasive resource manager predicts
//! violations and redistributes nodes at application-declared phase
//! boundaries; this demo renders the resulting power trace as ASCII art and
//! compares enforcement strategies.
//!
//! Run with: `cargo run --release --example power_corridor`

use powerstack::prelude::*;

fn sparkline(series: &[(f64, f64)], lo: f64, hi: f64, width: usize) -> String {
    // Downsample to `width` buckets; mark in-corridor samples with block
    // glyphs scaled by power, violations with '^' (over) or '_' (under).
    if series.is_empty() {
        return String::new();
    }
    let glyphs = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
    ];
    let n = series.len();
    let max_p = series
        .iter()
        .map(|&(_, p)| p)
        .fold(0.0, f64::max)
        .max(hi * 1.1);
    (0..width)
        .map(|i| {
            let idx = i * n / width;
            let p = series[idx].1;
            if p > hi {
                '^'
            } else if p < lo {
                '_'
            } else {
                glyphs[((p / max_p) * (glyphs.len() - 1) as f64) as usize]
            }
        })
        .collect()
}

fn main() {
    let n_nodes = 16;
    let peak = n_nodes as f64 * 450.0;
    let corridor = (peak * 0.35, peak * 0.75);
    println!(
        "fleet: {n_nodes} nodes (~{:.1} kW peak); corridor: [{:.1} kW, {:.1} kW]\n",
        peak / 1e3,
        corridor.0 / 1e3,
        corridor.1 / 1e3
    );

    for strategy in [
        CorridorStrategy::None,
        CorridorStrategy::NodeRedistribution,
        CorridorStrategy::PowerCapping,
        CorridorStrategy::Dvfs,
    ] {
        let seeds = SeedTree::new(20200905);
        let fleet = NodeManager::fleet(
            n_nodes,
            NodeConfig::server_default(),
            &VariationModel::typical(),
            &seeds,
        );
        let mut irm = Irm::new(fleet, corridor, strategy, seeds.subtree("irm"));
        irm.launch(EpopApp::uniform("epop-a", 600.0, 20, NodeCountRule::Any), 8);
        irm.launch(EpopApp::uniform("epop-b", 600.0, 20, NodeCountRule::Any), 6);
        let report = irm.run(SimDuration::from_secs(1), SimTime::from_secs(4 * 3600));
        let series = irm.trace().series("system_power");
        println!("--- {strategy:?} ---");
        println!("  {}", sparkline(&series, corridor.0, corridor.1, 100));
        println!(
            "  in-corridor {:.1}% | {} over / {} under | makespan {:.0} s | {:.2} MJ | {} redistributions",
            report.in_corridor_fraction * 100.0,
            report.upper_violations,
            report.lower_violations,
            report.makespan.as_secs_f64(),
            report.energy_j / 1e6,
            report.redistributions,
        );
        if strategy == CorridorStrategy::NodeRedistribution {
            let events: Vec<String> = irm
                .trace()
                .of_kind("redistribute")
                .take(6)
                .map(|(t, d)| format!("t={:.0}s {d:?}", t.as_secs_f64()))
                .collect();
            println!("  first redistribution events: {}", events.join("; "));
        }
        println!();
    }
    println!("legend: block height = power inside corridor, '^' over, '_' under");
}
