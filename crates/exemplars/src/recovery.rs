//! Shared plumbing for the *recoverable* exemplar runners.
//!
//! The chaos-hardened variants of the Module B exemplars
//! ([`crate::forestfire::run_mpc_recoverable`],
//! [`crate::drugdesign::run_mpc_recoverable`]) each run one world under
//! an armed [`pdc_chaos::FaultInjector`] and survive injected message
//! loss, stragglers, and rank crashes without relaunching it. They
//! return a [`RecoveredRun`]: the same value the fault-free runner would
//! produce, plus the flags a study row needs to report that the run was
//! degraded-but-valid.

use std::time::Duration;

use serde::binary::{self, Reader, Seq};
use serde::{Deserialize, Error, Map, Serialize, Value};

/// How long rank 0 of a recoverable run waits for one message before it
/// looks for dead ranks again: an `ANY_SOURCE` receive does not fail when
/// a peer dies, since another peer may yet send.
pub(crate) const POLL: Duration = Duration::from_millis(100);

/// Outcome of a recoverable exemplar run under fault injection.
///
/// `value` is bit-identical to the uninterrupted result — recovery
/// (retransmission, checkpoint restore, adoption of a dead rank's work)
/// restores the full computation, never an approximation of it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun<T> {
    /// The study result, identical to a fault-free run.
    pub value: T,
    /// True when any fault was injected along the way: the row should
    /// be flagged in reports even though the value is exact.
    pub degraded: bool,
    /// Ranks still alive at the end (world size minus crashed ranks).
    pub survivors: usize,
    /// The world size the run started with.
    pub world_size: usize,
}

impl<T> RecoveredRun<T> {
    /// A short status tag for report rows: `"ok"` for a clean run,
    /// `"degraded"` when faults were injected and survived.
    pub fn status(&self) -> &'static str {
        if self.degraded {
            "degraded"
        } else {
            "ok"
        }
    }
}

// The vendored serde_derive does not support generic types, so the
// (de)serialization of the wrapper is spelled out by hand.
impl<T: Serialize> Serialize for RecoveredRun<T> {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("value".into(), self.value.to_json_value());
        m.insert("degraded".into(), self.degraded.to_json_value());
        m.insert("survivors".into(), self.survivors.to_json_value());
        m.insert("world_size".into(), self.world_size.to_json_value());
        Value::Object(m)
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        binary::write_seq_len(4, out);
        self.value.write_bin(out);
        self.degraded.write_bin(out);
        self.survivors.write_bin(out);
        self.world_size.write_bin(out);
    }
}

impl<T: Deserialize> Deserialize for RecoveredRun<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(Self {
            value: T::from_json_value(&v["value"])?,
            degraded: bool::from_json_value(&v["degraded"])?,
            survivors: usize::from_json_value(&v["survivors"])?,
            world_size: usize::from_json_value(&v["world_size"])?,
        })
    }

    fn read_bin(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = Seq::read_exact(r, 4, "RecoveredRun")?;
        Ok(Self {
            value: s.next(r)?,
            degraded: s.next(r)?,
            survivors: s.next(r)?,
            world_size: s.next(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let run = RecoveredRun {
            value: vec![1.5f64, 2.5],
            degraded: true,
            survivors: 3,
            world_size: 4,
        };
        let json = serde_json::to_string(&run).unwrap();
        let back: RecoveredRun<Vec<f64>> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run);
        let bytes = binary::to_vec(&run);
        assert_eq!(
            binary::from_slice::<RecoveredRun<Vec<f64>>>(&bytes).unwrap(),
            run
        );
        assert_eq!(run.status(), "degraded");
    }

    #[test]
    fn clean_run_status() {
        let run = RecoveredRun {
            value: 0u8,
            degraded: false,
            survivors: 2,
            world_size: 2,
        };
        assert_eq!(run.status(), "ok");
    }
}
