//! Bit-exact encoding of mission results for the result journal.
//!
//! JSON float formatting is the classic way to lose byte-identity across
//! a crash and resume. Every `f64` a journaled slot carries is therefore
//! stored as its IEEE-754 bit pattern (`f64::to_bits`, a lossless `u64`),
//! and enums as small integer codes — so a [`MissionRecord`] a resumed
//! run recovers is *bitwise* equal to the one the original run measured,
//! and the aggregated [`crate::CampaignReport`] cannot drift. Captured
//! traces ride along as their canonical JSONL rendering
//! ([`mls_trace::Trace::to_jsonl`]), the exact bytes the runner persists.
//!
//! Every decoding failure is a [`CampaignError::Journal`]: a record that
//! parses as JSON but does not decode is journal corruption.

use mls_core::{FailsafeReason, MissionResult};
use mls_trace::Trace;
use serde_json::{Number, Value};

use crate::runner::{MissionRecord, MissionSlot};
use crate::CampaignError;

fn err(reason: impl Into<String>) -> CampaignError {
    CampaignError::Journal(reason.into())
}

fn bits(value: f64) -> Value {
    Value::Number(Number::PosInt(value.to_bits()))
}

fn uint(value: usize) -> Value {
    Value::Number(Number::PosInt(value as u64))
}

fn field_u64(value: &Value, key: &str) -> Result<u64, CampaignError> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(format!("journaled slot is missing field '{key}'")))
}

fn field_bits(value: &Value, key: &str) -> Result<f64, CampaignError> {
    Ok(f64::from_bits(field_u64(value, key)?))
}

fn result_code(result: MissionResult) -> u64 {
    match result {
        MissionResult::Success => 0,
        MissionResult::CollisionFailure => 1,
        MissionResult::PoorLanding => 2,
    }
}

fn result_from_code(code: u64) -> Result<MissionResult, CampaignError> {
    match code {
        0 => Ok(MissionResult::Success),
        1 => Ok(MissionResult::CollisionFailure),
        2 => Ok(MissionResult::PoorLanding),
        other => Err(err(format!("unknown mission-result code {other}"))),
    }
}

fn failsafe_code(reason: FailsafeReason) -> u64 {
    match reason {
        FailsafeReason::SearchExhausted => 0,
        FailsafeReason::MarkerLost => 1,
        FailsafeReason::UnsafeDescent => 2,
        FailsafeReason::PlanningFailure => 3,
        FailsafeReason::MissionTimeout => 4,
    }
}

fn failsafe_from_code(code: u64) -> Result<FailsafeReason, CampaignError> {
    match code {
        0 => Ok(FailsafeReason::SearchExhausted),
        1 => Ok(FailsafeReason::MarkerLost),
        2 => Ok(FailsafeReason::UnsafeDescent),
        3 => Ok(FailsafeReason::PlanningFailure),
        4 => Ok(FailsafeReason::MissionTimeout),
        other => Err(err(format!("unknown failsafe code {other}"))),
    }
}

/// Encodes one mission slot for the journal.
///
/// # Errors
///
/// Returns [`CampaignError::Trace`] when an attached trace fails to
/// serialize.
pub fn slot_to_value(slot: &MissionSlot) -> Result<Value, CampaignError> {
    let MissionSlot::Flown(record) = slot else {
        return Ok(Value::Object(vec![(
            "skipped".to_string(),
            Value::Bool(true),
        )]));
    };
    let mut fields = vec![
        (
            "result".to_string(),
            Value::Number(Number::PosInt(result_code(record.result))),
        ),
        (
            "failsafe".to_string(),
            match record.failsafe {
                Some(reason) => Value::Number(Number::PosInt(failsafe_code(reason))),
                None => Value::Null,
            },
        ),
        (
            "landing_error".to_string(),
            record.landing_error.map_or(Value::Null, bits),
        ),
        (
            "detection_error".to_string(),
            record.detection_error.map_or(Value::Null, bits),
        ),
        ("duration".to_string(), bits(record.duration)),
        ("mean_cpu".to_string(), bits(record.mean_cpu)),
        ("peak_memory_mb".to_string(), bits(record.peak_memory_mb)),
        (
            "worst_planning_latency".to_string(),
            bits(record.worst_planning_latency),
        ),
        ("gps_drift".to_string(), bits(record.gps_drift)),
        ("visible_frames".to_string(), uint(record.visible_frames)),
        ("missed_frames".to_string(), uint(record.missed_frames)),
    ];
    if let Some(trace) = &record.trace {
        fields.push((
            "trace_jsonl".to_string(),
            Value::String(trace.to_jsonl().map_err(CampaignError::Trace)?),
        ));
    }
    Ok(Value::Object(fields))
}

/// Decodes one journaled mission slot back into the aggregation-stage
/// record.
///
/// # Errors
///
/// Returns [`CampaignError::Journal`] on missing fields, unknown codes or
/// a malformed embedded trace.
pub fn slot_from_value(value: &Value) -> Result<MissionSlot, CampaignError> {
    if value.get("skipped").and_then(Value::as_bool) == Some(true) {
        return Ok(MissionSlot::Skipped);
    }
    let optional_bits = |key: &str| -> Result<Option<f64>, CampaignError> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => Ok(Some(field_bits(value, key)?)),
        }
    };
    let trace = match value.get("trace_jsonl") {
        None | Some(Value::Null) => None,
        Some(raw) => {
            let text = raw
                .as_str()
                .ok_or_else(|| err("trace_jsonl is not a string"))?;
            Some(Box::new(Trace::from_jsonl(text).map_err(|e| {
                err(format!("journaled trace is malformed: {e}"))
            })?))
        }
    };
    let failsafe = match value.get("failsafe") {
        None | Some(Value::Null) => None,
        Some(_) => Some(failsafe_from_code(field_u64(value, "failsafe")?)?),
    };
    Ok(MissionSlot::Flown(Box::new(MissionRecord {
        result: result_from_code(field_u64(value, "result")?)?,
        failsafe,
        landing_error: optional_bits("landing_error")?,
        detection_error: optional_bits("detection_error")?,
        duration: field_bits(value, "duration")?,
        mean_cpu: field_bits(value, "mean_cpu")?,
        peak_memory_mb: field_bits(value, "peak_memory_mb")?,
        worst_planning_latency: field_bits(value, "worst_planning_latency")?,
        gps_drift: field_bits(value, "gps_drift")?,
        visible_frames: field_u64(value, "visible_frames")? as usize,
        missed_frames: field_u64(value, "missed_frames")? as usize,
        trace,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> MissionRecord {
        MissionRecord {
            result: MissionResult::PoorLanding,
            failsafe: Some(FailsafeReason::MarkerLost),
            landing_error: Some(f64::from_bits(0x3C8D_2AC0_1234_5679)),
            detection_error: None,
            duration: 132.4567890123,
            mean_cpu: 0.1 + 0.2, // deliberately not representable exactly
            peak_memory_mb: 512.0625,
            worst_planning_latency: f64::MIN_POSITIVE,
            gps_drift: -0.0,
            visible_frames: 310,
            missed_frames: 7,
            trace: None,
        }
    }

    #[test]
    fn slots_round_trip_bit_exactly() {
        let original = MissionSlot::Flown(Box::new(record()));
        let back = slot_from_value(&slot_to_value(&original).unwrap()).unwrap();
        let MissionSlot::Flown(decoded) = back else {
            panic!("flown slot decoded as skipped");
        };
        let reference = record();
        assert_eq!(*decoded, reference);
        // PartialEq treats -0.0 == 0.0; pin the sign bit explicitly.
        assert_eq!(decoded.gps_drift.to_bits(), reference.gps_drift.to_bits());
    }

    #[test]
    fn skipped_slots_round_trip() {
        let back = slot_from_value(&slot_to_value(&MissionSlot::Skipped).unwrap()).unwrap();
        assert!(matches!(back, MissionSlot::Skipped));
    }

    #[test]
    fn unknown_codes_are_rejected() {
        let mut value = slot_to_value(&MissionSlot::Flown(Box::new(record()))).unwrap();
        let Value::Object(fields) = &mut value else {
            unreachable!()
        };
        for (key, slot) in fields.iter_mut() {
            if key == "result" {
                *slot = Value::Number(Number::PosInt(9));
            }
        }
        assert!(matches!(
            slot_from_value(&value),
            Err(CampaignError::Journal(reason)) if reason.contains("unknown mission-result code 9")
        ));
    }

    #[test]
    fn missing_fields_are_rejected() {
        let value = Value::Object(vec![(
            "result".to_string(),
            Value::Number(Number::PosInt(0)),
        )]);
        let err = slot_from_value(&value).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }
}
