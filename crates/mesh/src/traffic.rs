//! NoC timing parameters and flit-level traffic accounting.
//!
//! The paper's network (Table 2) is an 8×8 mesh with 128-bit flits and links,
//! X-Y routing, 3-cycle pipelined routers and 1-cycle links. Traffic
//! breakdowns (Figs. 11d, 14, 15) are reported in flits, split into L2↔LLC,
//! LLC↔memory, and other traffic.

use serde::{Deserialize, Serialize};

/// NoC timing and sizing parameters.
///
/// # Example
///
/// ```
/// use cdcs_mesh::NocConfig;
/// let noc = NocConfig::default();
/// // A 3-hop one-way trip through the paper's NoC: 3 * (3 + 1) cycles.
/// assert_eq!(noc.one_way_latency(3), 12);
/// // A 64-byte line moves in 1 header flit + 4 data flits.
/// assert_eq!(noc.data_flits(64), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Pipelined router traversal latency, cycles.
    pub router_cycles: u32,
    /// Link traversal latency, cycles.
    pub link_cycles: u32,
    /// Flit width in bytes (128-bit flits → 16 bytes).
    pub flit_bytes: u32,
}

impl Default for NocConfig {
    /// The paper's Table 2 NoC: 3-cycle routers, 1-cycle links, 128-bit flits.
    fn default() -> Self {
        NocConfig {
            router_cycles: 3,
            link_cycles: 1,
            flit_bytes: 16,
        }
    }
}

impl NocConfig {
    /// One-way latency in cycles for a `hops`-hop trip (zero-load).
    ///
    /// Each hop costs one router traversal plus one link traversal. A 0-hop
    /// access (local bank) has no network latency.
    #[inline]
    pub fn one_way_latency(&self, hops: u32) -> u32 {
        hops * (self.router_cycles + self.link_cycles)
    }

    /// Round-trip latency in cycles for a request/response pair over `hops`.
    #[inline]
    pub fn round_trip_latency(&self, hops: u32) -> u32 {
        2 * self.one_way_latency(hops)
    }

    /// Flits in a control message (request, invalidation, ack): one flit.
    #[inline]
    pub fn control_flits(&self) -> u64 {
        1
    }

    /// Flits in a message carrying `payload_bytes` of data: one header flit
    /// plus the payload packed into flits.
    #[inline]
    pub fn data_flits(&self, payload_bytes: u32) -> u64 {
        1 + payload_bytes.div_ceil(self.flit_bytes) as u64
    }
}

/// Category of NoC traffic, matching the breakdown of Fig. 11d.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// L2 miss requests to the LLC and their data responses.
    L2ToLlc,
    /// LLC misses to the memory controllers and their responses/writebacks.
    LlcToMem,
    /// Everything else: monitor samples, reconfiguration moves, invalidations.
    Other,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::L2ToLlc,
        TrafficClass::LlcToMem,
        TrafficClass::Other,
    ];
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficClass::L2ToLlc => write!(f, "L2-LLC"),
            TrafficClass::LlcToMem => write!(f, "LLC-Mem"),
            TrafficClass::Other => write!(f, "Other"),
        }
    }
}

/// Accumulated NoC traffic, in flit-hops per [`TrafficClass`].
///
/// Flit-hops (each flit crossing each link counts once) are the quantity that
/// determines both NoC energy and the bandwidth demand reported in the
/// paper's traffic figures.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    flit_hops: [u64; 3],
    messages: [u64; 3],
}

impl TrafficStats {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(class: TrafficClass) -> usize {
        match class {
            TrafficClass::L2ToLlc => 0,
            TrafficClass::LlcToMem => 1,
            TrafficClass::Other => 2,
        }
    }

    /// Records a message of `flits` flits travelling `hops` hops.
    #[inline]
    pub fn record(&mut self, class: TrafficClass, flits: u64, hops: u32) {
        let s = Self::slot(class);
        self.flit_hops[s] += flits * hops as u64;
        self.messages[s] += 1;
    }

    /// Records a request/response message pair (`flits_a` and `flits_b`
    /// flits) travelling the same `hops`. Exactly equivalent to two
    /// [`Self::record`] calls — one slot resolution and one multiply for
    /// the common "control + data over one path" case on the per-access
    /// path.
    #[inline]
    pub fn record_pair(&mut self, class: TrafficClass, flits_a: u64, flits_b: u64, hops: u32) {
        let s = Self::slot(class);
        self.flit_hops[s] += (flits_a + flits_b) * hops as u64;
        self.messages[s] += 2;
    }

    /// Total flit-hops for one class.
    pub fn flit_hops(&self, class: TrafficClass) -> u64 {
        self.flit_hops[Self::slot(class)]
    }

    /// Total message count for one class.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[Self::slot(class)]
    }

    /// Total flit-hops across all classes.
    pub fn total_flit_hops(&self) -> u64 {
        self.flit_hops.iter().sum()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..3 {
            self.flit_hops[i] += other.flit_hops[i];
            self.messages[i] += other.messages[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let noc = NocConfig::default();
        assert_eq!(noc.router_cycles, 3);
        assert_eq!(noc.link_cycles, 1);
        assert_eq!(noc.flit_bytes, 16);
    }

    #[test]
    fn zero_hop_latency_is_zero() {
        let noc = NocConfig::default();
        assert_eq!(noc.one_way_latency(0), 0);
        assert_eq!(noc.round_trip_latency(0), 0);
    }

    #[test]
    fn round_trip_is_twice_one_way() {
        let noc = NocConfig::default();
        for hops in 0..15 {
            assert_eq!(noc.round_trip_latency(hops), 2 * noc.one_way_latency(hops));
        }
    }

    #[test]
    fn cache_line_flit_count() {
        let noc = NocConfig::default();
        assert_eq!(noc.data_flits(64), 5); // header + 4 payload flits
        assert_eq!(noc.data_flits(1), 2); // header + 1 partial flit
        assert_eq!(noc.control_flits(), 1);
    }

    #[test]
    fn traffic_stats_accumulate() {
        let mut stats = TrafficStats::new();
        stats.record(TrafficClass::L2ToLlc, 5, 3);
        stats.record(TrafficClass::L2ToLlc, 1, 3);
        stats.record(TrafficClass::LlcToMem, 5, 7);
        assert_eq!(stats.flit_hops(TrafficClass::L2ToLlc), 18);
        assert_eq!(stats.flit_hops(TrafficClass::LlcToMem), 35);
        assert_eq!(stats.flit_hops(TrafficClass::Other), 0);
        assert_eq!(stats.messages(TrafficClass::L2ToLlc), 2);
        assert_eq!(stats.total_flit_hops(), 53);
    }

    #[test]
    fn traffic_stats_merge() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::Other, 2, 4);
        let mut b = TrafficStats::new();
        b.record(TrafficClass::Other, 3, 1);
        a.merge(&b);
        assert_eq!(a.flit_hops(TrafficClass::Other), 11);
        assert_eq!(a.messages(TrafficClass::Other), 2);
    }

    #[test]
    fn zero_hop_messages_cost_no_flit_hops() {
        let mut stats = TrafficStats::new();
        stats.record(TrafficClass::L2ToLlc, 5, 0);
        assert_eq!(stats.total_flit_hops(), 0);
        assert_eq!(stats.messages(TrafficClass::L2ToLlc), 1);
    }

    #[test]
    fn class_display_matches_figures() {
        assert_eq!(TrafficClass::L2ToLlc.to_string(), "L2-LLC");
        assert_eq!(TrafficClass::LlcToMem.to_string(), "LLC-Mem");
        assert_eq!(TrafficClass::Other.to_string(), "Other");
    }
}
