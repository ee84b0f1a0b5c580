//! The block-trace data model.

use rif_events::SimTime;

/// The byte address every request must end at or below (2^48, 256 TiB):
/// the trace model's address space. The simulator's slot tables are
/// sized by it, and the capture parser refuses a row that ends past it.
pub const MAX_END_BYTES: u64 = 1 << 48;

/// The latest arrival a request may have (2^62 ns, about 146 years): the
/// trace model's time bound. It is a quarter of the simulation clock's
/// `u64` nanoseconds and leaves the rest as headroom for the service and
/// queueing time after the last arrival, which would otherwise wrap the
/// clock. The capture parser refuses a later timestamp, and
/// `Simulator::submit` asserts the bound.
pub const MAX_ARRIVAL: SimTime = SimTime::from_ns(1 << 62);

/// Direction of a block I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One block I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Arrival time relative to trace start.
    pub arrival: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// Starting logical byte address (page-aligned by the generator; the
    /// simulator aligns down if needed).
    pub offset: u64,
    /// Request length in bytes.
    pub bytes: u32,
}

impl IoRequest {
    /// True for reads.
    pub fn is_read(&self) -> bool {
        self.op == IoOp::Read
    }

    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes as u64
    }
}

/// An ordered sequence of I/O requests.
///
/// # Example
///
/// ```
/// use rif_workloads::{IoOp, IoRequest, Trace};
/// use rif_events::SimTime;
///
/// let t = Trace::new(vec![IoRequest {
///     arrival: SimTime::ZERO,
///     op: IoOp::Read,
///     offset: 0,
///     bytes: 65536,
/// }]);
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.total_bytes(), 65536);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    requests: Vec<IoRequest>,
}

impl Trace {
    /// Wraps a request list, sorting it by arrival time (stable, so
    /// equal-time requests keep their relative order).
    pub fn new(mut requests: Vec<IoRequest>) -> Self {
        requests.sort_by_key(|r| r.arrival);
        Trace { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterator over the requests.
    pub fn iter(&self) -> std::slice::Iter<'_, IoRequest> {
        self.requests.iter()
    }

    /// Sum of request sizes.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.bytes as u64).sum()
    }

    /// Sum of read-request sizes.
    pub fn read_bytes(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.is_read())
            .map(|r| r.bytes as u64)
            .sum()
    }

    /// Arrival time of the last request (zero for an empty trace).
    pub fn span(&self) -> SimTime {
        self.requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO)
    }

    /// Highest byte address touched (exclusive), i.e. the minimum device
    /// size needed to replay this trace.
    pub fn footprint(&self) -> u64 {
        self.requests.iter().map(|r| r.end()).max().unwrap_or(0)
    }

    /// Number of requests targeting the most-requested offset — the
    /// hot-spot height that Zipfian locality produces. Zero for an empty
    /// trace (the offset histogram has no maximum to take).
    pub fn peak_offset_frequency(&self) -> usize {
        let mut counts = std::collections::HashMap::new();
        for r in &self.requests {
            *counts.entry(r.offset).or_insert(0usize) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct offsets addressed.
    pub fn distinct_offsets(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.offset)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoRequest;
    type IntoIter = std::slice::Iter<'a, IoRequest>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl FromIterator<IoRequest> for Trace {
    fn from_iter<I: IntoIterator<Item = IoRequest>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rif_events::SimTime;

    fn req(us: u64, op: IoOp, offset: u64, bytes: u32) -> IoRequest {
        IoRequest {
            arrival: SimTime::from_us(us),
            op,
            offset,
            bytes,
        }
    }

    #[test]
    fn new_sorts_by_arrival() {
        let t = Trace::new(vec![
            req(30, IoOp::Read, 0, 4096),
            req(10, IoOp::Write, 4096, 4096),
            req(20, IoOp::Read, 8192, 4096),
        ]);
        let times: Vec<u64> = t.iter().map(|r| r.arrival.as_ns() / 1000).collect();
        assert_eq!(times, [10, 20, 30]);
    }

    #[test]
    fn byte_accounting() {
        let t = Trace::new(vec![
            req(0, IoOp::Read, 0, 65536),
            req(1, IoOp::Write, 65536, 16384),
            req(2, IoOp::Read, 131072, 16384),
        ]);
        assert_eq!(t.total_bytes(), 65536 + 16384 + 16384);
        assert_eq!(t.read_bytes(), 65536 + 16384);
        assert_eq!(t.footprint(), 131072 + 16384);
        assert_eq!(t.span(), SimTime::from_us(2));
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.footprint(), 0);
        assert_eq!(t.span(), SimTime::ZERO);
    }

    #[test]
    fn from_iterator_collects() {
        let t: Trace = (0..5).map(|i| req(i, IoOp::Read, i * 4096, 4096)).collect();
        assert_eq!(t.len(), 5);
    }
}
