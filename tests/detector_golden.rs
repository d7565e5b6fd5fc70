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

use mls_landing::geom::{Pose, Vec2, Vec3};
use mls_landing::vision::{
    Camera, ClassicalDetector, DegradationConfig, GroundScene, ImageDegrader, LearnedDetector,
    LightingCondition, MarkerDetector, MarkerDictionary, MarkerPlacement, MarkerRenderer,
    ShadowDisc, WeatherKind,
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

fn corners_bits(out: &mut String, corners: &[Vec2; 4]) {
    for c in corners {
        write!(out, " {:016x},{:016x}", c.x.to_bits(), c.y.to_bits()).unwrap();
    }
}

/// Renders the whole sweep and writes every detector output as text.
fn golden_text() -> String {
    let dict = MarkerDictionary::standard();
    let renderer = MarkerRenderer::new(dict.clone());
    let learned = LearnedDetector::new(dict.clone());
    let classical = ClassicalDetector::new(dict);
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
                for c in learned.score_candidates(&degraded) {
                    write!(
                        out,
                        "  learned {} {:016x} {:016x}",
                        c.id,
                        c.score.to_bits(),
                        c.margin.to_bits()
                    )
                    .unwrap();
                    corners_bits(&mut out, &c.corners);
                    out.push('\n');
                }
                for d in classical.detect(&degraded) {
                    let orientation = d.orientation.map_or(0, f64::to_bits);
                    write!(
                        out,
                        "  classical {} {:016x} {:016x}",
                        d.id,
                        d.confidence.to_bits(),
                        orientation
                    )
                    .unwrap();
                    corners_bits(&mut out, &d.corners);
                    out.push('\n');
                }
            }
        }
    }
    out
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
