//! Property tests for failure signatures: the corpus dedup key must be a
//! pure function of the trace *value*, stable under re-serialization — a
//! trace written to JSON lines, shipped, archived and parsed back must
//! produce the byte-identical signature, or dedup would split one failure
//! mode into two across a save and reload.

use mls_core::{Directive, FailsafeReason, MissionResult, ObservationStage, SystemVariant};
use mls_geom::Vec3;
use mls_trace::{FailureSignature, Trace, TraceEvent, TraceHeader, TRACE_FORMAT_VERSION};
use proptest::prelude::*;

fn vec3(x: f64, y: f64, z: f64) -> Vec3 {
    Vec3::new(x, y, z)
}

/// Deterministically expands one sampled `(selector, time, a, b, c, n)`
/// tuple into an event covering every variant of the model.
fn event_from(selector: u32, time: f64, a: f64, b: f64, c: f64, n: u32) -> TraceEvent {
    match selector % 10 {
        0 => TraceEvent::Tick {
            time,
            position: vec3(a, b, c),
            velocity: vec3(b, c, a),
            estimated: vec3(a + 0.1, b, c),
            gps_drift: a.abs(),
            estimation_error: b.abs(),
        },
        1 => TraceEvent::DirectiveChange {
            time,
            directive: match n % 4 {
                0 => Directive::Hover,
                1 => Directive::FlyTo {
                    goal: vec3(a, b, c),
                },
                2 => Directive::DescendTo {
                    goal: vec3(a, b, c),
                },
                _ => Directive::Abort {
                    reason: FailsafeReason::MarkerLost,
                },
            },
        },
        2 => TraceEvent::Markers {
            time,
            stage: if n.is_multiple_of(2) {
                ObservationStage::PreFault
            } else {
                ObservationStage::PostFault
            },
            markers: (0..(n % 4))
                .map(|i| mls_trace::MarkerSighting {
                    id: i,
                    position: vec3(a + i as f64, b, 0.0),
                    confidence: (c.abs() % 1.0).min(1.0),
                })
                .collect(),
        },
        3 => TraceEvent::PlanRequest {
            time,
            start: vec3(a, b, c),
            goal: vec3(c, b, a),
        },
        4 => TraceEvent::PlanResult {
            time,
            success: n.is_multiple_of(2),
            fallback: n.is_multiple_of(3),
            latency: a.abs(),
            iterations: n as usize,
        },
        5 => TraceEvent::Failsafe {
            time,
            reason: match n % 5 {
                0 => FailsafeReason::SearchExhausted,
                1 => FailsafeReason::MarkerLost,
                2 => FailsafeReason::UnsafeDescent,
                3 => FailsafeReason::PlanningFailure,
                _ => FailsafeReason::MissionTimeout,
            },
        },
        6 => TraceEvent::FaultActive {
            time,
            gps_bias: vec3(a, b, 0.0),
            wind: vec3(c, a, 0.0),
            compute_throttle: (b.abs() % 1.0).max(0.05),
        },
        7 => TraceEvent::FaultCleared { time },
        8 => TraceEvent::MapUpdate {
            time,
            inserted: n as usize,
            dropped: (n / 3) as usize,
            displaced: (n / 7) as usize,
        },
        _ => TraceEvent::MissionEnd {
            time,
            result: match n % 3 {
                0 => MissionResult::Success,
                1 => MissionResult::CollisionFailure,
                _ => MissionResult::PoorLanding,
            },
        },
    }
}

fn header_from(seed: u64, variant_selector: u32) -> TraceHeader {
    TraceHeader {
        version: TRACE_FORMAT_VERSION,
        campaign: format!("sig-prop-{seed}"),
        seed,
        variant: match variant_selector % 3 {
            0 => SystemVariant::MlsV1,
            1 => SystemVariant::MlsV2,
            _ => SystemVariant::MlsV3,
        },
        scenario_id: (seed % 100) as usize,
        scenario_name: format!("map-{:02}/s{:02}", seed % 10, seed % 7),
        family: if seed.is_multiple_of(2) {
            "open".to_string()
        } else {
            "constrained-pad".to_string()
        },
        cell_index: (variant_selector % 20) as usize,
        repeat: (variant_selector % 3) as usize,
        config_hash: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        tick_decimation: 1 + (variant_selector % 50) as usize,
        map_decimation: 1 + (variant_selector % 8) as usize,
        capacity: 64 + (variant_selector % 8192) as usize,
        dropped_events: 0,
        coordinates: Vec::new(),
    }
}

proptest! {
    #[test]
    fn signatures_are_stable_under_jsonl_round_trips(
        seed in 0u64..u64::MAX,
        variant_selector in 0u32..1000,
        raw_events in prop::collection::vec(
            (
                (0u32..10, 0.0f64..600.0),
                (-80.0f64..80.0, -80.0f64..80.0, -80.0f64..80.0, 0u32..5000),
            ),
            0..40,
        ),
    ) {
        let trace = Trace {
            header: header_from(seed, variant_selector),
            events: raw_events
                .into_iter()
                .map(|((s, t), (a, b, c, n))| event_from(s, t, a, b, c, n))
                .collect(),
        };
        let original = FailureSignature::of(&trace);
        let round_tripped = Trace::from_jsonl(&trace.to_jsonl().unwrap()).unwrap();
        let reparsed = FailureSignature::of(&round_tripped);
        prop_assert_eq!(&reparsed, &original);
        prop_assert_eq!(reparsed.key(), original.key());
        prop_assert_eq!(reparsed.hash64(), original.hash64());
        // A second hop (archive, re-ship) changes nothing either.
        let second_hop = Trace::from_jsonl(&round_tripped.to_jsonl().unwrap()).unwrap();
        prop_assert_eq!(FailureSignature::of(&second_hop).key(), original.key());
    }

    #[test]
    fn signature_keys_are_canonical(
        raw_events in prop::collection::vec(
            (
                (0u32..10, 0.0f64..600.0),
                (-80.0f64..80.0, -80.0f64..80.0, -80.0f64..80.0, 0u32..5000),
            ),
            1..20,
        ),
    ) {
        let trace = Trace {
            header: header_from(3, 5),
            events: raw_events
                .into_iter()
                .map(|((s, t), (a, b, c, n))| event_from(s, t, a, b, c, n))
                .collect(),
        };
        let signature = FailureSignature::of(&trace);
        // The key embeds exactly the four components, in order.
        let key = signature.key();
        let parts: Vec<&str> = key.splitn(4, '/').collect();
        prop_assert_eq!(parts[0], signature.verdict.as_str());
        prop_assert_eq!(parts[1], signature.class.as_str());
        // Recomputing on the same value is a pure function.
        prop_assert_eq!(FailureSignature::of(&trace), signature);
    }
}
