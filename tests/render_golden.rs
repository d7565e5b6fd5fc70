//! Golden test for the downward camera stream: a pinned sweep of rendered and
//! degraded frames must reproduce the committed fixture bit for bit.
//!
//! Each frame is recorded as an FNV-1a 64 digest over the IEEE-754 bits of
//! every pixel (row-major), plus the bits of a few sampled pixels so a
//! divergence can be located. The sweep covers both paths that produce
//! frames:
//!
//! - `RgbCamera::capture`, the mission path: default supersampling (1) and
//!   `DegradationConfig::from_intensities` degradation under every weather
//!   preset (glare, fog and rain box blur, low light) and at ground speeds
//!   giving 2 and 5 px of motion blur;
//! - `MarkerRenderer::render` at supersampling 1 and 2, with roll and pitch,
//!   a rotated marker, a decoy, an unknown id, a shadow whose soft edge
//!   crosses the target, an inverted pose (all sky), a grazing pose (sky and
//!   far ground in one frame) and a raised ground plane.
//!
//! The detector golden scores only a dozen capture frames, so this fixture is
//! what pins the renderer and degrader on the path missions fly.
//!
//! If the camera model *deliberately* changes, regenerate the fixture with:
//!
//! ```sh
//! MLS_BLESS=1 cargo test --test render_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use mls_landing::geom::{Attitude, Pose, Vec2, Vec3};
use mls_landing::sim_uav::{RgbCamera, RgbCameraConfig};
use mls_landing::sim_world::{MapStyle, MarkerSite, Weather, WorldMap};
use mls_landing::vision::{
    Camera, GrayImage, GroundScene, MarkerDictionary, MarkerPlacement, MarkerRenderer,
    RendererConfig, ShadowDisc,
};

/// Pixels whose bits are written out beside each digest.
const SAMPLES: [(usize, usize); 5] = [(0, 0), (80, 60), (159, 119), (37, 91), (121, 17)];

/// FNV-1a 64 over the little-endian bits of every pixel.
fn digest(image: &GrayImage) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in image.data() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn record(out: &mut String, label: &str, image: &GrayImage) {
    write!(out, "{label} {:016x}", digest(image)).unwrap();
    for (x, y) in SAMPLES {
        write!(out, " {:08x}", image.get(x, y).to_bits()).unwrap();
    }
    out.push('\n');
}

/// The pinned scene: a rotated target, a decoy of another id, an
/// out-of-dictionary decoy and a shadow whose soft edge crosses the target.
fn scene(ground_z: f64) -> GroundScene {
    let mut scene = GroundScene::new()
        .with_marker(MarkerPlacement::new(7, Vec2::new(0.4, -0.3), 1.5, 0.35))
        .with_marker(MarkerPlacement::new(23, Vec2::new(-2.4, 1.8), 1.0, -0.6))
        .with_marker(MarkerPlacement::new(9999, Vec2::new(2.2, 2.0), 0.8, 1.1))
        .with_shadow(ShadowDisc {
            center: Vec2::new(1.0, 0.1),
            radius: 0.9,
            darkness: 0.45,
        });
    scene.ground.ground_z = ground_z;
    scene
}

/// `(label, pose, ground_z)` of every renderer frame.
fn renderer_poses() -> Vec<(&'static str, Pose, f64)> {
    vec![
        (
            "level",
            Pose::from_position_yaw(Vec3::new(0.2, 0.1, 8.0), 0.15),
            0.0,
        ),
        (
            "roll-pitch",
            Pose::new(Vec3::new(-0.3, 0.4, 6.0), Attitude::new(0.12, -0.09, 0.7)),
            0.0,
        ),
        (
            "steep",
            Pose::new(Vec3::new(0.9, -0.6, 10.0), Attitude::new(0.35, 0.28, -2.1)),
            0.0,
        ),
        (
            "inverted",
            Pose::new(
                Vec3::new(0.0, 0.0, 5.0),
                Attitude::new(std::f64::consts::PI, 0.0, 0.0),
            ),
            0.0,
        ),
        (
            "grazing",
            Pose::new(Vec3::new(-4.0, -1.0, 3.0), Attitude::new(0.05, 1.35, 0.4)),
            0.0,
        ),
        (
            "raised-ground",
            Pose::new(Vec3::new(0.5, 0.2, 9.0), Attitude::new(-0.07, 0.11, 2.9)),
            1.7,
        ),
    ]
}

/// The mission camera's world: the same markers as [`scene`], as sites.
fn world() -> WorldMap {
    WorldMap::empty("golden", MapStyle::Rural, 60.0)
        .with_marker(MarkerSite::target(7, Vec3::new(0.4, -0.3, 0.0), 1.5, 0.35))
        .with_marker(MarkerSite::decoy(23, Vec3::new(-2.4, 1.8, 0.0), 1.0, -0.6))
        .with_marker(MarkerSite::decoy(9999, Vec3::new(2.2, 2.0, 0.0), 0.8, 1.1))
}

/// Renders the whole sweep and writes every frame's digest as text.
fn golden_text() -> String {
    let dict = MarkerDictionary::standard();
    let camera = Camera::downward();
    let mut out = String::new();

    for ss in [1u8, 2] {
        let config = RendererConfig {
            supersampling: ss,
            ..RendererConfig::default()
        };
        let renderer = MarkerRenderer::with_config(dict.clone(), config);
        for (label, pose, ground_z) in renderer_poses() {
            let frame = renderer.render(&camera, &pose, &scene(ground_z));
            // A pose that misses what it is meant to show pins nothing.
            let sky = renderer.config().sky_luminance;
            let sky_pixels = frame.data().iter().filter(|&&v| v == sky).count();
            match label {
                "inverted" => assert_eq!(sky_pixels, frame.data().len(), "{label}"),
                "grazing" => assert!(sky_pixels > 0 && sky_pixels < frame.data().len()),
                _ => {
                    let (lo, hi) = frame.min_max();
                    assert!(lo < 0.1 && hi > 0.9, "{label} ss{ss} misses the markers");
                }
            }
            record(&mut out, &format!("render ss{ss} {label}"), &frame);
        }
    }

    // One camera across the whole capture sweep: its frame counter seeds
    // the degrader, so the noise differs frame to frame as in a mission.
    let mut rgb = RgbCamera::new(dict, RgbCameraConfig::default(), 11);
    let world = world();
    let weathers = [
        Weather::clear(),
        Weather::overcast(),
        Weather::fog(),
        Weather::rain(),
        Weather::sun_glare(),
        Weather::windy(),
        Weather::dusk(),
    ];
    let poses = [
        Pose::from_position_yaw(Vec3::new(0.2, 0.1, 8.0), 0.15),
        Pose::new(Vec3::new(-0.3, 0.4, 6.0), Attitude::new(0.12, -0.09, 0.7)),
    ];
    // 0.6 px of motion blur per m/s: 0 px, then 2 px and 5 px.
    let speeds = [0.0, 3.4, 8.4];
    for weather in &weathers {
        for (p, pose) in poses.iter().enumerate() {
            for speed in speeds {
                let frame = rgb.capture(&world, weather, pose, speed);
                record(
                    &mut out,
                    &format!("capture {} pose{p} {speed} m/s", weather.label),
                    &frame,
                );
            }
        }
    }
    out
}

#[test]
fn rendered_frames_match_the_committed_fixture() {
    let text = golden_text();

    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/render_golden.txt");
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
            "rendered frames diverged from {} at line {} (got {} lines, want {}):\n  got:  {:?}\n  want: {:?}",
            fixture.display(),
            first + 1,
            text.lines().count(),
            expected.lines().count(),
            text.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
