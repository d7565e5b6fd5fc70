//! Golden test for the two marker detectors: a pinned sweep of rendered,
//! degraded frames must score and detect to the exact committed fixture,
//! bit for bit.
//!
//! The fixture records every `LearnedDetector::score_candidates` hypothesis
//! (id, plus the IEEE-754 bits of score, margin and corners) and every
//! `ClassicalDetector::detect` detection (id, plus the bits of confidence,
//! orientation and corners). Any change to the perception kernels that moves
//! a single output bit fails here, which is what lets the hot paths be
//! rewritten for speed without changing a mission.
//!
//! The sweep has two parts:
//!
//! - `MarkerRenderer::render` frames of level poses (supersampling 2) under
//!   every weather and lighting preset of `ImageDegrader`;
//! - `RgbCamera::capture` frames, the ones missions detect on
//!   (supersampling 1, degraded with motion blur): a tilted pose, the 14 m
//!   cruise-height view where the learned detector proposes the most, and a
//!   target cut by the frame edge, whose refinement samples off the image.
//!
//! If the detectors *deliberately* change, regenerate the fixture with:
//!
//! ```sh
//! MLS_BLESS=1 cargo test --test detector_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use mls_landing::geom::{Attitude, Pose, Vec2, Vec3};
use mls_landing::sim_uav::{RgbCamera, RgbCameraConfig};
use mls_landing::sim_world::{MapStyle, MarkerSite, Weather, WorldMap};
use mls_landing::vision::learned::ScoredCandidate;
use mls_landing::vision::{
    Camera, ClassicalDetector, DegradationConfig, GrayImage, GroundScene, ImageDegrader,
    LearnedDetector, LightingCondition, MarkerDetector, MarkerDictionary, MarkerPlacement,
    MarkerRenderer, ShadowDisc, WeatherKind,
};

/// Altitudes (metres) of the sweep: the target spans many pixels at 8 m and
/// only a handful at 14 m, where the learned detector proposes the most
/// candidates.
const ALTITUDES: [f64; 3] = [8.0, 11.0, 14.0];

/// The pinned scene: a target, a decoy of another id and a shadow falling
/// across part of the target.
fn scene() -> GroundScene {
    GroundScene::new()
        .with_marker(MarkerPlacement::new(7, Vec2::new(0.4, -0.3), 1.5, 0.35))
        .with_marker(MarkerPlacement::new(23, Vec2::new(-2.4, 1.8), 1.0, -0.6))
        .with_shadow(ShadowDisc {
            center: Vec2::new(1.0, 0.1),
            radius: 0.7,
            darkness: 0.45,
        })
}

/// The mission camera's world: the markers of [`scene`], as sites.
fn world() -> WorldMap {
    WorldMap::empty("golden", MapStyle::Rural, 60.0)
        .with_marker(MarkerSite::target(7, Vec3::new(0.4, -0.3, 0.0), 1.5, 0.35))
        .with_marker(MarkerSite::decoy(23, Vec3::new(-2.4, 1.8, 0.0), 1.0, -0.6))
}

/// `(label, pose, ground speed in m/s)` of every mission-camera frame.
fn capture_poses() -> [(&'static str, Pose, f64); 4] {
    [
        (
            "tilted",
            Pose::new(Vec3::new(-0.3, 0.4, 9.0), Attitude::new(0.12, -0.09, 0.7)),
            1.5,
        ),
        (
            "cruise-14m",
            Pose::new(Vec3::new(0.6, -0.2, 14.0), Attitude::new(0.03, -0.05, 0.2)),
            3.4,
        ),
        (
            "edge",
            Pose::from_position_yaw(Vec3::new(EDGE_OFFSET, -0.3, 10.0), 0.0),
            0.0,
        ),
        (
            "edge-tilted",
            Pose::new(
                Vec3::new(-0.3, EDGE_OFFSET + 1.5, 11.0),
                Attitude::new(-0.06, 0.04, -0.3),
            ),
            1.0,
        ),
    ]
}

/// Offset (metres) that puts the target across the edge of a 10 m frame.
const EDGE_OFFSET: f64 = 5.0;

fn corners_bits(out: &mut String, corners: &[Vec2; 4]) {
    for c in corners {
        write!(out, " {:016x},{:016x}", c.x.to_bits(), c.y.to_bits()).unwrap();
    }
}

/// Writes every learned hypothesis and classical detection on `frame`, and
/// returns the learned hypotheses.
fn record(
    out: &mut String,
    learned: &LearnedDetector,
    classical: &ClassicalDetector,
    frame: &GrayImage,
) -> Vec<ScoredCandidate> {
    let candidates = learned.score_candidates(frame);
    for c in &candidates {
        write!(
            out,
            "  learned {} {:016x} {:016x}",
            c.id,
            c.score.to_bits(),
            c.margin.to_bits()
        )
        .unwrap();
        corners_bits(out, &c.corners);
        out.push('\n');
    }
    for d in classical.detect(frame) {
        let orientation = d.orientation.map_or(0, f64::to_bits);
        write!(
            out,
            "  classical {} {:016x} {:016x}",
            d.id,
            d.confidence.to_bits(),
            orientation
        )
        .unwrap();
        corners_bits(out, &d.corners);
        out.push('\n');
    }
    candidates
}

/// Renders the whole sweep and writes every detector output as text.
fn golden_text() -> String {
    let dict = MarkerDictionary::standard();
    let renderer = MarkerRenderer::new(dict.clone());
    let learned = LearnedDetector::new(dict.clone());
    let classical = ClassicalDetector::new(dict.clone());
    let scene = scene();
    let camera = Camera::downward();

    let mut out = String::new();
    for (a, altitude) in ALTITUDES.iter().enumerate() {
        let pose = Pose::from_position_yaw(Vec3::new(0.2, 0.1, *altitude), 0.15);
        let frame = renderer.render(&camera, &pose, &scene);
        for (w, weather) in WeatherKind::ALL.iter().enumerate() {
            for (l, lighting) in LightingCondition::ALL.iter().enumerate() {
                let seed = (a * 100 + w * 10 + l) as u64;
                let config = DegradationConfig::for_conditions(*weather, *lighting);
                let degraded = ImageDegrader::new(config, seed).apply(&frame);
                writeln!(out, "frame {altitude} m {weather:?} {lighting:?}").unwrap();
                record(&mut out, &learned, &classical, &degraded);
            }
        }
    }

    // One mission camera across the capture sweep: its frame counter seeds
    // the degrader, so the noise differs frame to frame as in a mission.
    let mut rgb = RgbCamera::new(dict, RgbCameraConfig::default(), 17);
    let world = world();
    let mut edge_hypotheses = 0;
    for weather in [Weather::clear(), Weather::fog(), Weather::dusk()] {
        for (label, pose, speed) in capture_poses() {
            let frame = rgb.capture(&world, &weather, &pose, speed);
            writeln!(out, "capture {label} {} {speed} m/s", weather.label).unwrap();
            let candidates = record(&mut out, &learned, &classical, &frame);
            if label.starts_with("edge") {
                edge_hypotheses += candidates
                    .iter()
                    .filter(|c| c.corners.iter().any(|p| !inside_interior(&frame, *p)))
                    .count();
            }
        }
    }
    // The edge frames pin the sampler's border path only if some refined
    // quad actually reaches the last row or column of the frame.
    assert!(edge_hypotheses > 0, "no hypothesis reaches the frame edge");
    out
}

/// True when `p` lies strictly inside the frame's bilinear interior, away
/// from the last row and column.
fn inside_interior(frame: &GrayImage, p: Vec2) -> bool {
    p.x >= 0.0
        && p.y >= 0.0
        && p.x < (frame.width() - 1) as f64
        && p.y < (frame.height() - 1) as f64
}

#[test]
fn detector_outputs_match_the_committed_fixture() {
    let text = golden_text();
    // A sweep where nothing is seen pins nothing: both detectors must find
    // the target somewhere in it.
    assert!(
        text.contains("  learned 7 "),
        "learned never scored the target"
    );
    assert!(
        text.contains("  classical 7 "),
        "classical never detected the target"
    );

    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/detector_golden.txt");
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
            "detector outputs diverged from {} at line {} (got {} lines, want {}):\n  got:  {:?}\n  want: {:?}",
            fixture.display(),
            first + 1,
            text.lines().count(),
            expected.lines().count(),
            text.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
