//! Golden test for the planners and the inflated collision check they share:
//! planning and inflation queries over maps built from real depth clouds
//! must match the committed fixture, bit for bit.
//!
//! Two scenarios are mapped, one `ConstrainedPad` (a wall beside the pad)
//! and one `Open`. For each, a scripted fly-over captures depth clouds along
//! the GNSS route at cruise height and around the pad on the way down, and
//! integrates them through `MappingModule` into the V2 grid and the V3
//! octree, exactly as a mission does. On each map snapshot the fixture
//! records:
//!
//! - A* and RRT* outcomes at inflation 0.9 m (the default) and 2.0 m (the
//!   constrained benchmark point of the Fig. 6 sweep): the IEEE-754 bits of
//!   every waypoint and `iterations`, or the error kind on failure;
//! - `OccupancyQuery::occupied_within` at radii 0.4, 0.9, 1.2, 2.0 and
//!   2.8 m, with unknown space read as free and as occupied, on a probe
//!   lattice that reaches outside the grid window and below the ground.
//!
//! The A* expansion and RRT* sample counts are exact work counters, so any
//! speedup of the collision check or the search must leave this file
//! unchanged. If the planners or the maps *deliberately* change,
//! regenerate the fixture with:
//!
//! ```sh
//! MLS_BLESS=1 cargo test --test planner_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use mls_landing::core::{MappingBackend, MappingModule};
use mls_landing::geom::{Pose, Vec3};
use mls_landing::mapping::OccupancyQuery;
use mls_landing::planning::{
    AStarConfig, AStarPlanner, PathPlanner, PlanningError, RrtStarConfig, RrtStarPlanner,
};
use mls_landing::sim_uav::{DepthCamera, DepthCameraConfig};
use mls_landing::sim_world::{Scenario, ScenarioConfig, ScenarioFamily, ScenarioGenerator};

/// Benchmark seed of both scenarios.
const SEED: u64 = 2025;

/// Cruise height of the scripted fly-over and of the planning queries,
/// metres (`LandingConfig::cruise_altitude`).
const CRUISE: f64 = 10.0;

/// Planner inflation radii, metres.
const INFLATIONS: [f64; 2] = [0.9, 2.0];

/// Budget scale of the starved A* query: 300 of the 6,000 expansions.
const STARVED_BUDGET: f64 = 0.05;

/// `occupied_within` radii, metres: two on the 15-probe branch of the
/// 0.4 m maps and three on the exhaustive lattice branch.
const RADII: [f64; 5] = [0.4, 0.9, 1.2, 2.0, 2.8];

/// The first scenario of `family` in a one-map benchmark.
fn scenario(family: ScenarioFamily) -> Scenario {
    ScenarioGenerator::new(ScenarioConfig {
        family,
        maps: 1,
        scenarios_per_map: 1,
        ..ScenarioConfig::default()
    })
    .generate_benchmark(SEED)
    .expect("benchmark generation")
    .remove(0)
}

/// The pad the fly-over heads for: the scenario's GNSS target.
fn pad(scenario: &Scenario) -> Vec3 {
    Vec3::new(scenario.gps_target.x, scenario.gps_target.y, 0.0)
}

/// Capture poses of the fly-over: every 3 m along the route at cruise
/// height facing the pad, then a descending spiral of views around it.
fn capture_poses(scenario: &Scenario) -> Vec<Pose> {
    let pad = pad(scenario);
    let start = Vec3::new(scenario.start.x, scenario.start.y, CRUISE);
    let end = Vec3::new(pad.x, pad.y, CRUISE);
    let heading = (end.y - start.y).atan2(end.x - start.x);
    let legs = (start.distance(end) / 3.0).ceil().max(1.0) as usize;
    let mut poses: Vec<Pose> = (0..=legs)
        .map(|i| Pose::from_position_yaw(start.lerp(end, i as f64 / legs as f64), heading))
        .collect();
    for (k, altitude) in [8.0, 6.0, 4.0].into_iter().enumerate() {
        for quarter in 0..4 {
            let yaw = heading + (k as f64 * 0.5 + quarter as f64) * std::f64::consts::FRAC_PI_2;
            poses.push(Pose::from_position_yaw(
                Vec3::new(pad.x, pad.y, altitude),
                yaw,
            ));
        }
    }
    poses
}

/// Flies the capture poses once and integrates every cloud into one module
/// per map backend, as the mission's mapping module does.
fn map_snapshots(scenario: &Scenario) -> [(&'static str, MappingModule); 2] {
    let mut grid = MappingModule::new(MappingBackend::LocalGrid).expect("grid");
    let mut octree = MappingModule::new(MappingBackend::GlobalOctree).expect("octree");
    let mut camera = DepthCamera::new(DepthCameraConfig::default(), scenario.seed ^ 0x6);
    let ground_z = scenario.map.ground_z;
    for pose in capture_poses(scenario) {
        let cloud = camera.capture(&scenario.map, &pose, &pose);
        grid.integrate(pose.position, &cloud, ground_z);
        octree.integrate(pose.position, &cloud, ground_z);
    }
    [("grid", grid), ("octree", octree)]
}

/// `(start, goal)` of every planning query over a scenario: the cruise leg
/// to the pad, a low approach to the pad from outside the obstacle ring, a
/// low crossing past the pad and the descent column over the true target.
fn queries(scenario: &Scenario) -> [(Vec3, Vec3); 4] {
    let pad = pad(scenario);
    let target = scenario.true_target().expect("target marker");
    [
        (
            Vec3::new(scenario.start.x, scenario.start.y, CRUISE),
            Vec3::new(pad.x, pad.y, CRUISE),
        ),
        (
            pad + Vec3::new(7.0, 1.0, 4.0),
            pad + Vec3::new(0.0, 0.0, 3.0),
        ),
        (
            pad + Vec3::new(-6.0, 4.0, 3.5),
            pad + Vec3::new(6.0, -4.0, 3.5),
        ),
        (
            target + Vec3::new(0.0, 0.0, 6.0),
            target + Vec3::new(0.0, 0.0, 2.0),
        ),
    ]
}

fn record_plan(
    out: &mut String,
    planner: &mut dyn PathPlanner,
    map: &dyn OccupancyQuery,
    start: Vec3,
    goal: Vec3,
) {
    write!(out, "  {} ", planner.name()).unwrap();
    match planner.plan(map, start, goal) {
        Ok(outcome) => {
            write!(
                out,
                "ok iterations={} waypoints={}",
                outcome.iterations,
                outcome.path.len()
            )
            .unwrap();
            for w in &outcome.path.waypoints {
                write!(
                    out,
                    " {:016x},{:016x},{:016x}",
                    w.x.to_bits(),
                    w.y.to_bits(),
                    w.z.to_bits()
                )
                .unwrap();
            }
        }
        Err(PlanningError::NoPathFound { reason, iterations }) => {
            write!(out, "no-path iterations={iterations} ({reason})").unwrap();
        }
        Err(PlanningError::InvalidEndpoint { endpoint }) => {
            write!(out, "invalid-endpoint {endpoint}").unwrap();
        }
        Err(other) => write!(out, "error {other}").unwrap(),
    }
    out.push('\n');
}

/// The probe lattice around the pad: a coarse lattice reaching 24 m out
/// (past the grid window's 20 m half-extent) and a fine one around the
/// pad, both with a layer below the ground, plus points on cell faces.
fn probe_points(scenario: &Scenario) -> Vec<Vec3> {
    let pad = pad(scenario);
    let mut points = Vec::new();
    for z in [-1.0, 0.3, 2.0, 5.0, 9.0] {
        for j in -4..=4 {
            for i in -4..=4 {
                points.push(Vec3::new(pad.x + 6.0 * i as f64, pad.y + 6.0 * j as f64, z));
            }
        }
    }
    for z in [-0.4, 1.0, 2.6, 4.2] {
        for j in -3..=3 {
            for i in -3..=3 {
                points.push(Vec3::new(pad.x + 1.3 * i as f64, pad.y + 1.3 * j as f64, z));
            }
        }
    }
    // Exact multiples of the 0.4 m cell size: probes land on cell faces.
    let snap = |v: f64| (v / 0.4).round() * 0.4;
    for z in [0.0, 0.8, 2.4] {
        for j in -2..=2 {
            for i in -2..=2 {
                points.push(Vec3::new(
                    snap(pad.x) + 0.8 * i as f64,
                    snap(pad.y) + 0.8 * j as f64,
                    z,
                ));
            }
        }
    }
    points
}

/// One character per (radius, unknown mode): `occupied_within` with
/// unknown read as free, then as occupied.
fn inflation_bits(map: &dyn OccupancyQuery, point: Vec3) -> String {
    let mut bits = String::new();
    for radius in RADII {
        for treat_unknown in [false, true] {
            let occupied = map.occupied_within(point, radius, treat_unknown);
            bits.push(if occupied { '1' } else { '0' });
        }
        bits.push(' ');
    }
    bits.pop();
    bits
}

/// Maps both scenarios and writes every planning and inflation answer.
fn golden_text() -> String {
    let mut out = String::new();
    for family in [ScenarioFamily::ConstrainedPad, ScenarioFamily::Open] {
        let scenario = scenario(family);
        writeln!(out, "scenario {} {}", family.label(), scenario.name).unwrap();
        for (label, module) in map_snapshots(&scenario) {
            let map = module.as_query();
            writeln!(out, "map {label} memory={}", map.memory_bytes()).unwrap();
            for inflation in INFLATIONS {
                for (q, (start, goal)) in queries(&scenario).into_iter().enumerate() {
                    writeln!(out, " inflation {inflation} query {q}").unwrap();
                    let mut astar = AStarPlanner::with_config(AStarConfig {
                        inflation_radius: inflation,
                        ..AStarConfig::default()
                    });
                    record_plan(&mut out, &mut astar, map, start, goal);
                    let mut rrt = RrtStarPlanner::with_config(RrtStarConfig {
                        inflation_radius: inflation,
                        seed: scenario.seed,
                        ..RrtStarConfig::default()
                    });
                    record_plan(&mut out, &mut rrt, map, start, goal);
                }
                // The cruise leg again on a starved pool: the V2 failure
                // the paper names, pool exhaustion.
                let (start, goal) = queries(&scenario)[0];
                writeln!(out, " inflation {inflation} starved query 0").unwrap();
                let mut astar = AStarPlanner::with_config(AStarConfig {
                    inflation_radius: inflation,
                    ..AStarConfig::default()
                });
                astar.set_budget_scale(STARVED_BUDGET);
                record_plan(&mut out, &mut astar, map, start, goal);
            }
            for point in probe_points(&scenario) {
                writeln!(
                    out,
                    " probe {:?} {:?} {:?} {}",
                    point.x,
                    point.y,
                    point.z,
                    inflation_bits(map, point)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn planner_outputs_match_the_committed_fixture() {
    let text = golden_text();
    // A fixture where every query fails, or no probe sees an obstacle,
    // pins nothing: both must happen somewhere in it.
    assert!(text.contains("  astar ok "), "A* never found a path");
    assert!(text.contains("  rrt-star ok "), "RRT* never found a path");
    assert!(
        text.contains("  astar no-path "),
        "no A* query exhausted its pool"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with(" probe ") && l.ends_with("11 11")),
        "no probe saw an obstacle"
    );

    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/planner_golden.txt");
    if std::env::var("MLS_BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(fixture.parent().unwrap()).expect("create fixtures dir");
        fs::write(&fixture, &text).expect("bless fixture");
        eprintln!("blessed {}", fixture.display());
        return;
    }
    let expected = fs::read_to_string(&fixture).unwrap_or_else(|err| {
        panic!(
            "missing fixture {} ({err}); regenerate with MLS_BLESS=1",
            fixture.display()
        )
    });
    if text != expected {
        let first = text
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want)
            .unwrap_or(text.lines().count().min(expected.lines().count()));
        panic!(
            "planner outputs diverged from {} at line {} (got {} lines, want {}):\n  got:  {:?}\n  want: {:?}",
            fixture.display(),
            first + 1,
            text.lines().count(),
            expected.lines().count(),
            text.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
