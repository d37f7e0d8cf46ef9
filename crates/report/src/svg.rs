use std::fmt::Write as _;

use gcr_activity::EnableStats;
use gcr_core::ControllerPlan;
use gcr_cts::ClockTree;
use gcr_geometry::BBox;

/// Options for [`render_svg`].
#[derive(Clone, Debug)]
pub struct SvgOptions {
    /// Output image width in pixels (height follows the die aspect).
    pub width_px: f64,
    /// Draw the enable star wires to each *controlled* gate.
    pub draw_control: bool,
    /// Per-node enable statistics for gate coloring (green = rarely on,
    /// red = always on); `None` renders all gates neutral.
    pub node_stats: Option<Vec<EnableStats>>,
    /// Which gates are controlled (untied gates render hollow); `None`
    /// treats every device as controlled.
    pub controlled: Option<Vec<bool>>,
}

impl Default for SvgOptions {
    fn default() -> Self {
        Self {
            width_px: 800.0,
            draw_control: true,
            node_stats: None,
            controlled: None,
        }
    }
}

/// Renders an embedded clock tree as a standalone SVG document: die
/// outline, clock wires, sinks (dots), gates (squares, colored by their
/// enable probability when stats are supplied), and optionally the enable
/// star routing to the controller(s).
///
/// The output is deterministic and suitable for golden-file testing; see
/// `gcr experiment render_tree` for a file-producing front end.
///
/// # Panics
///
/// Panics if `node_stats`/`controlled` are present but do not cover every
/// tree node.
#[must_use]
pub fn render_svg(
    tree: &ClockTree,
    die: BBox,
    controller: &ControllerPlan,
    options: &SvgOptions,
) -> String {
    if let Some(stats) = &options.node_stats {
        assert_eq!(stats.len(), tree.len(), "stats must cover every node");
    }
    if let Some(c) = &options.controlled {
        assert_eq!(c.len(), tree.len(), "controlled mask must cover every node");
    }
    let scale = options.width_px / die.width().max(1.0);
    let h = die.height() * scale;
    let px = |x: f64| (x - die.min().x) * scale;
    // SVG y grows downward; flip so the die reads like a floorplan.
    let py = |y: f64| h - (y - die.min().y) * scale;

    let mut s = String::new();
    let _ = writeln!(
        s,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"##,
        options.width_px, h, options.width_px, h
    );
    let _ = writeln!(
        s,
        r##"<rect x="0" y="0" width="{:.0}" height="{:.0}" fill="#fbfbf8" stroke="#888"/>"##,
        options.width_px, h
    );

    // Enable star wires first (underneath everything).
    if options.draw_control {
        for (id, _) in tree.devices() {
            if let Some(c) = &options.controlled {
                if !c[id.index()] {
                    continue;
                }
            }
            let g = tree.gate_location(id);
            let cp = controller.controller_for(g);
            let _ = writeln!(
                s,
                r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#b9a" stroke-width="0.5" opacity="0.5"/>"##,
                px(cp.x),
                py(cp.y),
                px(g.x),
                py(g.y)
            );
        }
        // Controllers as diamonds.
        let mut controllers: Vec<gcr_geometry::Point> = Vec::new();
        for (id, _) in tree.devices() {
            let cp = controller.controller_for(tree.gate_location(id));
            if !controllers.iter().any(|p| p.manhattan(cp) < 1e-9) {
                controllers.push(cp);
            }
        }
        for cp in controllers {
            let _ = writeln!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="8" height="8" transform="rotate(45 {:.1} {:.1})" fill="#94d"/>"##,
                px(cp.x) - 4.0,
                py(cp.y) - 4.0,
                px(cp.x),
                py(cp.y)
            );
        }
    }

    // Clock wires: the realized rectilinear routes, trombone detours
    // included.
    for route in gcr_cts::realize_routes(tree) {
        let mut d = String::new();
        for (k, p) in route.points.iter().enumerate() {
            let _ = write!(
                d,
                "{}{:.1} {:.1}",
                if k == 0 { "M " } else { " L " },
                px(p.x),
                py(p.y)
            );
        }
        let _ = writeln!(
            s,
            r##"<path d="{d}" fill="none" stroke="#345" stroke-width="1.2"/>"##
        );
    }

    // Gates at edge tops.
    for (id, _) in tree.devices() {
        let g = tree.gate_location(id);
        let controlled = options.controlled.as_ref().is_none_or(|c| c[id.index()]);
        let fill = match (&options.node_stats, controlled) {
            (_, false) => "none".to_owned(),
            (Some(stats), true) => {
                let p = stats[id.index()].signal.clamp(0.0, 1.0);
                format!(
                    "rgb({},{},60)",
                    (255.0 * p) as u32,
                    (200.0 * (1.0 - p)) as u32
                )
            }
            (None, true) => "#777".to_owned(),
        };
        let _ = writeln!(
            s,
            r##"<rect x="{:.1}" y="{:.1}" width="5" height="5" fill="{fill}" stroke="#333" stroke-width="0.6"/>"##,
            px(g.x) - 2.5,
            py(g.y) - 2.5
        );
    }

    // Sinks.
    for i in 0..tree.num_sinks() {
        let p = tree.node(tree.sink_id(i)).location();
        let _ = writeln!(
            s,
            r##"<circle cx="{:.1}" cy="{:.1}" r="2.5" fill="#067"/>"##,
            px(p.x),
            py(p.y)
        );
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_activity::{ActivityTables, CpuModel};
    use gcr_core::{route_gated, RouterConfig};
    use gcr_cts::Sink;
    use gcr_geometry::Point;
    use gcr_rctree::Technology;

    fn fixture() -> (gcr_core::GatedRouting, RouterConfig) {
        let sinks: Vec<Sink> = (0..8)
            .map(|i| {
                Sink::new(
                    Point::new(
                        500.0 + f64::from(i % 4) * 2_000.0,
                        500.0 + f64::from(i / 4) * 4_000.0,
                    ),
                    0.04,
                )
            })
            .collect();
        let model = CpuModel::builder(8)
            .instructions(6)
            .seed(4)
            .build()
            .unwrap();
        let tables = ActivityTables::scan(model.rtl(), &model.generate_stream(1_000));
        let die = BBox::new(Point::new(0.0, 0.0), Point::new(8_000.0, 6_000.0));
        let config = RouterConfig::new(Technology::default(), die);
        (route_gated(&sinks, &tables, &config).unwrap(), config)
    }

    #[test]
    fn renders_complete_document() {
        let (routing, config) = fixture();
        let svg = render_svg(
            &routing.tree,
            config.die(),
            config.controller(),
            &SvgOptions::default(),
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // 8 sinks, 15 wires... at least the sinks are all present.
        assert_eq!(svg.matches("<circle").count(), 8);
        // All 15 nodes carry gates.
        assert_eq!(svg.matches("<rect").count(), 15 + 1 + 1); // gates + die + controller
        assert!(svg.contains("<line"), "control stars missing");
    }

    #[test]
    fn stats_color_gates_and_mask_hides_stars() {
        let (routing, config) = fixture();
        let n = routing.tree.len();
        let options = SvgOptions {
            node_stats: Some(routing.node_stats.clone()),
            controlled: Some(vec![false; n]),
            ..SvgOptions::default()
        };
        let svg = render_svg(&routing.tree, config.die(), config.controller(), &options);
        // No controlled gates -> no star wires, hollow gate squares.
        assert!(!svg.contains("<line"));
        assert!(svg.contains(r##"fill="none""##));
    }

    #[test]
    fn deterministic() {
        let (routing, config) = fixture();
        let a = render_svg(
            &routing.tree,
            config.die(),
            config.controller(),
            &SvgOptions::default(),
        );
        let b = render_svg(
            &routing.tree,
            config.die(),
            config.controller(),
            &SvgOptions::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "stats must cover")]
    fn stats_length_checked() {
        let (routing, config) = fixture();
        let options = SvgOptions {
            node_stats: Some(vec![]),
            ..SvgOptions::default()
        };
        let _ = render_svg(&routing.tree, config.die(), config.controller(), &options);
    }
}
