//! Aggregates the simulator's own trace (`Simulator::with_tracer`) into
//! the per-step read-retry accounting of Park et al.: simulated time a
//! host read spends sensing, transferring (usefully and not) and
//! decoding. Nothing is written out; the sink keeps totals only.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rif_events::{SimTime, TraceSink};

/// Simulated-time totals of one traced run.
#[derive(Debug, Default, Clone)]
pub struct StepTotals {
    pub reads: u64,
    pub sense_ns: u64,
    pub xfer_ns: u64,
    /// Transfers of uncorrectable pages and sentinel reads: channel time
    /// a retry wasted.
    pub xfer_uncor_ns: u64,
    pub decode_ns: u64,
    /// Time any die-resident span (sense, program, background op) held
    /// a die.
    pub die_busy_ns: u64,
}

#[derive(Clone, Copy)]
enum Step {
    Sense,
    Xfer,
    XferUncor,
    Decode,
    Other,
}

/// The sink; clone the handle before boxing it to read totals afterwards.
#[derive(Default)]
pub struct StepSink {
    totals: Rc<RefCell<StepTotals>>,
    open: HashMap<u64, (Step, bool, SimTime)>,
}

impl StepSink {
    pub fn new() -> (StepSink, Rc<RefCell<StepTotals>>) {
        let sink = StepSink::default();
        let handle = Rc::clone(&sink.totals);
        (sink, handle)
    }
}

impl TraceSink for StepSink {
    fn span_begin(
        &mut self,
        t: SimTime,
        name: &str,
        id: u64,
        _parent: Option<u64>,
        res: Option<&str>,
        _req: Option<u64>,
        _bytes: Option<u64>,
    ) {
        let mut totals = self.totals.borrow_mut();
        let step = match name {
            "request_read" => {
                totals.reads += 1;
                return;
            }
            "sense" => Step::Sense,
            "xfer" => Step::Xfer,
            "xfer_uncor" | "xfer_sentinel" => Step::XferUncor,
            "decode" => Step::Decode,
            _ => Step::Other,
        };
        let on_die = res.is_some_and(|r| r.starts_with("die:"));
        if on_die || !matches!(step, Step::Other) {
            self.open.insert(id, (step, on_die, t));
        }
    }

    fn span_end(&mut self, t: SimTime, id: u64) {
        let mut totals = self.totals.borrow_mut();
        if let Some((step, on_die, start)) = self.open.remove(&id) {
            let ns = t.since(start).as_ns();
            match step {
                Step::Sense => totals.sense_ns += ns,
                Step::Xfer => totals.xfer_ns += ns,
                Step::XferUncor => totals.xfer_uncor_ns += ns,
                Step::Decode => totals.decode_ns += ns,
                Step::Other => {}
            }
            if on_die {
                totals.die_busy_ns += ns;
            }
        }
    }

    // Only spans carry time; the other record kinds are not needed.
    fn counter(&mut self, _t: SimTime, _key: &str, _delta: u64) {}

    fn gauge(&mut self, _t: SimTime, _key: &str, _value: f64) {}

    fn state(&mut self, _t: SimTime, _res: &str, _state: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_summed_by_span_name_and_die_residency() {
        let (mut sink, totals) = StepSink::new();
        let us = SimTime::from_us;
        sink.span_begin(us(0), "request_read", 1, None, None, Some(0), None);
        sink.span_begin(us(0), "sense", 2, Some(1), Some("die:3"), Some(0), None);
        sink.span_end(us(40), 2);
        sink.span_begin(
            us(40),
            "xfer_uncor",
            3,
            Some(1),
            Some("chan:0"),
            Some(0),
            None,
        );
        sink.span_end(us(53), 3);
        sink.span_begin(us(53), "decode", 4, Some(1), Some("ecc:0"), Some(0), None);
        sink.span_end(us(73), 4);
        sink.span_begin(us(73), "gc", 5, None, Some("die:3"), None, None);
        sink.span_end(us(173), 5);
        sink.span_end(us(200), 1);
        let t = totals.borrow();
        assert_eq!(t.reads, 1);
        assert_eq!(t.sense_ns, 40_000);
        assert_eq!(t.xfer_ns, 0);
        assert_eq!(t.xfer_uncor_ns, 13_000);
        assert_eq!(t.decode_ns, 20_000);
        assert_eq!(t.die_busy_ns, 140_000);
    }
}
