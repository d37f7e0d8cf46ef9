//! `gcr` — gated clock routing from plain-text inputs. Run it with no
//! arguments for the usage; `gcr init-example DIR` writes a
//! ready-to-run example input set.
//!
//! File formats:
//! * sinks: one `x y cap_pf` triple per line (`#` comments allowed); sink
//!   `i` is module `i` of the RTL;
//! * rtl / trace: see [`gcr_activity::io`].
//!
//! `--trace` names the *instruction* trace input; `--trace-out` writes a
//! Chrome-trace timeline of the routing flow itself (activity scan,
//! Equation-3 merge, embedding, evaluation) for `chrome://tracing`.
//!
//! `gcr experiment NAME` prints one of the paper's tables and figures or
//! an extension study on the synthetic benchmarks (see
//! [`gcr_report::Experiment`]).
// CLI entry point: aborting with the expect message is the intended
// failure mode for bad inputs or a broken terminal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use gcr_activity::{io as aio, ActivityTables};
use gcr_core::{
    evaluate, evaluate_buffered, evaluate_with_mask, node_activity, reduce_gates_untied,
    route_gated, ControllerPlan, DeviceRole, ReductionParams, RouterConfig,
};
use gcr_cts::{build_buffered_tree, Sink};
use gcr_geometry::{BBox, Point};
use gcr_rctree::{to_spice, Technology};
use gcr_report::{render_svg, run_experiment, Experiment, ExperimentOptions, SvgOptions};
use gcr_trace::{ChromeTraceSink, EchoWarnSink, TraceSink, Tracer};
use gcr_workloads::io::parse_sinks;
use gcr_workloads::TsayBenchmark;

const USAGE: &str = "\
usage: gcr route --sinks F --rtl F --trace F [--die W H] [--strength S]
                 [--svg OUT] [--spice OUT] [--save OUT] [--controllers K]
                 [--optimal] [--trace-out OUT]
           (routes flat at any size: one greedy merge over every sink)
       gcr evaluate --design F --rtl F --trace F
       gcr experiment NAME [FLAGS], where NAME [FLAGS] is one of
           table4 | fig3 | fig6 | optimal_reduction [--quick]
           fig4 | fig5 | ablations | tech_scaling | reduction_vs_trace
           breakdown | corners | skew_tradeoff [--bench r1..r5]
           render_tree [--bench r1..r5] [--out SVG]
           variance [--seeds N]
           all [--quick] [--out HTML]
       gcr init-example DIR
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("route") => match parse_route(&args[1..]) {
            Ok(route) => route_command(route),
            Err(e) => return usage_error(&e),
        },
        Some("evaluate") => match parse_evaluate(&args[1..]) {
            Ok(eval) => evaluate_command(eval),
            Err(e) => return usage_error(&e),
        },
        Some("init-example") => init_example(&args[1..]),
        Some("experiment") => match parse_experiment(&args[1..]) {
            Ok((exp, opts)) => run_experiment(exp, &opts),
            Err(e) => return usage_error(&e),
        },
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a usage error and the usage to stderr: exit code 2.
fn usage_error(e: &str) -> ExitCode {
    eprint!("error: {e}\n{USAGE}");
    ExitCode::from(2)
}

/// The flags of `gcr route`.
struct RouteArgs {
    sinks_path: String,
    rtl_path: String,
    trace_path: String,
    die: Option<(f64, f64)>,
    strength: f64,
    svg_out: Option<String>,
    spice_out: Option<String>,
    save_out: Option<String>,
    optimal: bool,
    controllers: NonZeroUsize,
    trace_out: Option<String>,
}

/// The flags of `gcr evaluate`.
struct EvaluateArgs {
    design_path: String,
    rtl_path: String,
    trace_path: String,
}

/// The value after `flag`.
fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("missing value after {flag}"))
}

/// Parses `gcr route FLAGS`. Every error is a usage error that names its
/// flag: an unknown flag, a missing flag or value, or a value out of
/// range, all rejected before any file is read.
fn parse_route(args: &[String]) -> Result<RouteArgs, String> {
    let (mut sinks, mut rtl, mut trace) = (None, None, None);
    let mut die = None;
    let mut strength = 0.2;
    let (mut svg_out, mut spice_out, mut save_out, mut trace_out) = (None, None, None, None);
    let mut optimal = false;
    let mut controllers = NonZeroUsize::MIN;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sinks" => sinks = Some(flag_value(&mut it, a)?.to_owned()),
            "--rtl" => rtl = Some(flag_value(&mut it, a)?.to_owned()),
            "--trace" => trace = Some(flag_value(&mut it, a)?.to_owned()),
            "--strength" => {
                let v = flag_value(&mut it, a)?;
                strength = v
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=1.0).contains(s))
                    .ok_or_else(|| format!("--strength takes a number in [0, 1], not {v}"))?;
            }
            "--svg" => svg_out = Some(flag_value(&mut it, a)?.to_owned()),
            "--spice" => spice_out = Some(flag_value(&mut it, a)?.to_owned()),
            "--save" => save_out = Some(flag_value(&mut it, a)?.to_owned()),
            "--optimal" => optimal = true,
            "--controllers" => {
                let v = flag_value(&mut it, a)?;
                controllers = v
                    .parse()
                    .map_err(|_| format!("--controllers takes a positive count, not {v}"))?;
            }
            "--trace-out" => trace_out = Some(flag_value(&mut it, a)?.to_owned()),
            "--die" => {
                let (w, h) = (flag_value(&mut it, a)?, flag_value(&mut it, a)?);
                let side = |v: &str| v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0);
                die = Some(side(w).zip(side(h)).ok_or_else(|| {
                    format!("--die takes a finite positive width and height, not {w} {h}")
                })?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RouteArgs {
        sinks_path: sinks.ok_or("--sinks is required")?,
        rtl_path: rtl.ok_or("--rtl is required")?,
        trace_path: trace.ok_or("--trace is required")?,
        die,
        strength,
        svg_out,
        spice_out,
        save_out,
        optimal,
        controllers,
        trace_out,
    })
}

/// Parses `gcr evaluate FLAGS`, with the usage errors of [`parse_route`].
fn parse_evaluate(args: &[String]) -> Result<EvaluateArgs, String> {
    let (mut design, mut rtl, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--design" => design = Some(flag_value(&mut it, a)?.to_owned()),
            "--rtl" => rtl = Some(flag_value(&mut it, a)?.to_owned()),
            "--trace" => trace = Some(flag_value(&mut it, a)?.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(EvaluateArgs {
        design_path: design.ok_or("--design is required")?,
        rtl_path: rtl.ok_or("--rtl is required")?,
        trace_path: trace.ok_or("--trace is required")?,
    })
}

fn route_command(route: RouteArgs) -> Result<(), Box<dyn std::error::Error>> {
    let chrome = route
        .trace_out
        .as_ref()
        .map(|_| Arc::new(ChromeTraceSink::new()));
    let tracer = match &chrome {
        Some(sink) => Tracer::new(Arc::new(EchoWarnSink::new(
            Arc::clone(sink) as Arc<dyn TraceSink>
        ))),
        None => Tracer::disabled(),
    };

    let sinks = parse_sinks(&fs::read_to_string(&route.sinks_path)?)?;
    let rtl = aio::parse_rtl(&fs::read_to_string(&route.rtl_path)?, Some(sinks.len()))?;
    let stream = aio::parse_trace(&rtl, &fs::read_to_string(&route.trace_path)?)?;

    let die = match route.die {
        Some((w, h)) => BBox::new(Point::ORIGIN, Point::new(w, h)),
        None => BBox::of_points(sinks.iter().map(Sink::location)).ok_or("no sinks")?,
    };
    let tech = Technology::default();
    let mut config = RouterConfig::new(tech.clone(), die);
    if route.controllers.get() > 1 {
        let levels = (route.controllers.get() as f64).log(4.0).round() as u32;
        config = config.with_controller(ControllerPlan::distributed(die, levels.max(1)));
    }

    let buffered = evaluate_buffered(&build_buffered_tree(&tech, &sinks, config.source())?, &tech);
    // The timeline covers the gated flow only, not the buffered baseline.
    let _entered = tracer.enter();
    let tables = ActivityTables::scan(&rtl, &stream);
    let routing = route_gated(&sinks, &tables, &config)?;
    let gated = evaluate(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        &tech,
        DeviceRole::Gate,
    );
    let mask = if route.optimal {
        gcr_core::reduce_gates_optimal(&routing, &tech, config.controller())
    } else {
        reduce_gates_untied(
            &routing,
            &tech,
            &ReductionParams::from_strength_scaled(
                route.strength,
                &tech,
                die.half_perimeter() / 8.0,
            ),
        )
    };
    let reduced = evaluate_with_mask(
        &routing.tree,
        &routing.node_stats,
        config.controller(),
        &tech,
        &mask,
    );

    println!("sinks      : {}", sinks.len());
    println!(
        "instructions/trace: {} / {} cycles",
        rtl.num_instructions(),
        stream.len()
    );
    println!("buffered   : {buffered}");
    println!("gated      : {gated}");
    println!(
        "reduced    : {reduced} ({} of {} gates controlled)",
        mask.iter().filter(|&&k| k).count(),
        routing.tree.device_count()
    );
    println!(
        "power      : reduced = {:.0}% of buffered; skew = {:.2e} ps",
        100.0 * reduced.total_switched_cap / buffered.total_switched_cap,
        reduced.skew
    );

    // Cycle-accurate cross-check against the trace that produced the
    // probabilities — exact by construction; printed as evidence.
    let sim = gcr_core::simulate_stream(
        &routing.tree,
        &routing.node_modules,
        &mask,
        &rtl,
        &stream,
        config.controller(),
        &tech,
    );
    println!(
        "simulated  : {:.3} pF/cycle over {} cycles (Δ vs analytic {:.1e})",
        sim.total_switched_cap,
        sim.cycles,
        (sim.total_switched_cap - reduced.total_switched_cap).abs()
    );

    if let Some(path) = route.save_out {
        fs::write(
            &path,
            gcr_cts::save_design(&routing.topology, &sinks, &routing.tree, config.source()),
        )?;
        println!("design     : wrote {path}");
    }
    if let Some(path) = route.spice_out {
        let (rc, sinks_rc) = routing.tree.to_rc_tree(&tech);
        fs::write(&path, to_spice(&rc, &sinks_rc, "gcr gated clock tree"))?;
        println!("spice      : wrote {path}");
    }
    if let Some(path) = route.svg_out {
        let options = SvgOptions {
            node_stats: Some(routing.node_stats.clone()),
            controlled: Some(mask),
            ..SvgOptions::default()
        };
        fs::write(
            &path,
            render_svg(&routing.tree, die, config.controller(), &options),
        )?;
        println!("svg        : wrote {path}");
    }
    if let (Some(path), Some(sink)) = (&route.trace_out, &chrome) {
        sink.write_to(path)?;
        println!("flow trace : wrote {path}");
    }
    Ok(())
}

/// `gcr evaluate`: reload a saved design, rebuild the activity statistics
/// from the given RTL/trace, and report its switched capacitance.
fn evaluate_command(eval: EvaluateArgs) -> Result<(), Box<dyn std::error::Error>> {
    let loaded = gcr_cts::load_design(&fs::read_to_string(&eval.design_path)?)?;
    let rtl = aio::parse_rtl(
        &fs::read_to_string(&eval.rtl_path)?,
        Some(loaded.sinks.len()),
    )?;
    let stream = aio::parse_trace(&rtl, &fs::read_to_string(&eval.trace_path)?)?;
    let tables = ActivityTables::scan(&rtl, &stream);

    let tech = Technology::default();
    let tree = gcr_cts::embed(
        &loaded.topology,
        &loaded.sinks,
        &tech,
        &loaded.assignment,
        loaded.source,
    )?;
    // Sink i is module i.
    let identity: Vec<usize> = (0..loaded.sinks.len()).collect();
    let (_, stats) = node_activity(&loaded.topology, &identity, &tables);
    let die = BBox::of_points(loaded.sinks.iter().map(Sink::location)).ok_or("no sinks")?;
    let plan = ControllerPlan::centralized(&die);
    let report = evaluate(&tree, &stats, &plan, &tech, DeviceRole::Gate);
    println!(
        "reloaded   : {} sinks, {} devices",
        tree.num_sinks(),
        tree.device_count()
    );
    println!("evaluation : {report}");
    println!("skew       : {:.2e} ps", report.skew);
    Ok(())
}

/// Parses `gcr experiment NAME [FLAGS]`. Every error is a usage error:
/// an unknown experiment, a flag the experiment does not take, or a bad
/// value, all rejected before any workload is generated.
fn parse_experiment(args: &[String]) -> Result<(Experiment, ExperimentOptions), String> {
    let name = args.first().ok_or("experiment needs a name")?;
    let exp = Experiment::from_name(name).ok_or_else(|| format!("unknown experiment {name}"))?;
    let mut opts = ExperimentOptions::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if !exp.flags().contains(&a.as_str()) {
            return Err(format!("experiment {name} does not take {a}"));
        }
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--bench" => {
                let v = flag_value(&mut it, a)?;
                opts.bench = TsayBenchmark::from_name(v)
                    .filter(|b| TsayBenchmark::ALL.contains(b))
                    .ok_or_else(|| format!("--bench takes r1..r5, not {v}"))?;
            }
            "--seeds" => {
                let v = flag_value(&mut it, a)?;
                opts.seeds = v
                    .parse()
                    .map_err(|_| format!("--seeds takes a positive count, not {v}"))?;
            }
            "--out" => opts.out = Some(flag_value(&mut it, a)?.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((exp, opts))
}

fn init_example(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.first().ok_or("init-example needs a directory")?;
    fs::create_dir_all(dir)?;
    let d = Path::new(dir);
    fs::write(
        d.join("sinks.txt"),
        "\
# x y cap_pf — sink i is module i
1000 1000 0.05
5000 1200 0.04
1500 5000 0.06
5200 5100 0.05
3000 3000 0.03
5500 3000 0.04
",
    )?;
    fs::write(
        d.join("rtl.txt"),
        "\
# Table 1 of Oh & Pedram, DATE 1998
I1: M1 M2 M3 M5
I2: M1 M4
I3: M2 M5 M6
I4: M3 M4
",
    )?;
    fs::write(
        d.join("trace.txt"),
        "I1 I2 I4 I1 I3 I2 I1 I1 I2 I1 I3 I1 I2 I3 I1 I1 I2 I2 I4 I2\n",
    )?;
    println!(
        "wrote {dir}/{{sinks,rtl,trace}}.txt — try:\n  \
         gcr route --sinks {dir}/sinks.txt --rtl {dir}/rtl.txt --trace {dir}/trace.txt"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_flag_selects_every_published_benchmark() {
        for b in TsayBenchmark::ALL {
            let args = ["breakdown", "--bench", b.name()].map(String::from);
            let (exp, opts) = parse_experiment(&args).unwrap();
            assert_eq!((exp, opts.bench), (Experiment::Breakdown, b));
        }
    }
}
