//! Network profile presets and the latency they charge.
//!
//! The paper's testbed is a Nexus 6 on Verizon LTE with excellent signal;
//! §4.3 notes that Vroom's scheduler targets exactly that regime (CPU-bound)
//! and that 2G/3G or congested-cell regimes would need different policies —
//! our ablation benches sweep across these profiles to show that crossover.
//!
//! A profile's round trip is one cellular leg (phone ↔ packet gateway) plus
//! one wired leg (gateway ↔ origin), the same for every domain of a load.
//! The paper's replay shapes each origin at the RTT recorded for it (§6.1);
//! no load here replays a recording, so there is one server RTT per profile.

use vroom_sim::SimDuration;

/// Round trips of a TLS 1.3 handshake, paid after TCP's on every new
/// connection: every profile models HTTPS.
const TLS_ROUND_TRIPS: u64 = 1;

/// Time to resolve a name not in the DNS cache, the same on every profile.
const DNS_LOOKUP: SimDuration = SimDuration::from_millis(30);

/// A named access-network configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Downlink capacity in bits per second.
    pub downlink_bps: u64,
    /// RTT across the cellular access network (phone ↔ packet gateway).
    pub cellular_rtt: SimDuration,
    /// Wired RTT from the gateway to every origin (gateway ↔ server).
    pub server_rtt: SimDuration,
}

impl NetworkProfile {
    /// Verizon-LTE-like: the paper's primary regime.
    pub fn lte() -> Self {
        NetworkProfile {
            name: "LTE",
            downlink_bps: 9_600_000,
            cellular_rtt: SimDuration::from_millis(70),
            server_rtt: SimDuration::from_millis(40),
        }
    }

    /// A congested cell: the same cellular latency, a fifth of the
    /// bandwidth.
    pub fn lte_congested() -> Self {
        NetworkProfile {
            name: "LTE-congested",
            downlink_bps: 1_900_000,
            cellular_rtt: SimDuration::from_millis(70),
            server_rtt: SimDuration::from_millis(30),
        }
    }

    /// 3G/HSPA-like.
    pub fn three_g() -> Self {
        NetworkProfile {
            name: "3G",
            downlink_bps: 1_600_000,
            cellular_rtt: SimDuration::from_millis(150),
            server_rtt: SimDuration::from_millis(30),
        }
    }

    /// 2G/EDGE-like.
    pub fn two_g() -> Self {
        NetworkProfile {
            name: "2G",
            downlink_bps: 240_000,
            cellular_rtt: SimDuration::from_millis(400),
            server_rtt: SimDuration::from_millis(30),
        }
    }

    /// Home broadband over WiFi.
    pub fn wifi() -> Self {
        NetworkProfile {
            name: "WiFi",
            downlink_bps: 40_000_000,
            cellular_rtt: SimDuration::from_millis(5),
            server_rtt: SimDuration::from_millis(25),
        }
    }

    /// The paper's CPU-bound lower-bound rig: phone tethered over USB to a
    /// desktop hosting every server — effectively infinite bandwidth, near
    /// zero latency.
    pub fn usb_tether() -> Self {
        NetworkProfile {
            name: "USB-tether",
            downlink_bps: 2_000_000_000,
            cellular_rtt: SimDuration::from_micros(500),
            server_rtt: SimDuration::ZERO,
        }
    }

    /// Scale the downlink (for bandwidth-sweep ablations).
    pub fn with_downlink(mut self, bps: u64) -> Self {
        self.downlink_bps = bps;
        self
    }

    /// Override the cellular RTT (for latency-sweep ablations).
    pub fn with_cellular_rtt(mut self, rtt: SimDuration) -> Self {
        self.cellular_rtt = rtt;
        self
    }

    /// Full round-trip time to any origin: cellular + wired legs.
    pub fn rtt(&self) -> SimDuration {
        self.cellular_rtt + self.server_rtt
    }

    /// One-way latency to any origin: half the round trip, so an odd
    /// nanosecond rounds down once, on the sum.
    pub fn one_way(&self) -> SimDuration {
        self.rtt() / 2
    }

    /// Time to establish a new connection: TCP's handshake (1 RTT), then
    /// TLS's, then the DNS lookup when the name is not cached yet (a
    /// domain's first connection).
    pub fn connection_setup(&self, dns_cached: bool) -> SimDuration {
        let handshake = self.rtt() * (1 + TLS_ROUND_TRIPS);
        match dns_cached {
            true => handshake,
            false => handshake + DNS_LOOKUP,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_sensibly() {
        assert!(NetworkProfile::lte().downlink_bps > NetworkProfile::three_g().downlink_bps);
        assert!(NetworkProfile::three_g().downlink_bps > NetworkProfile::two_g().downlink_bps);
        assert!(NetworkProfile::two_g().cellular_rtt > NetworkProfile::lte().cellular_rtt);
        assert!(NetworkProfile::usb_tether().downlink_bps > NetworkProfile::wifi().downlink_bps);
    }

    #[test]
    fn builders_override_fields() {
        let p = NetworkProfile::lte()
            .with_downlink(1_000_000)
            .with_cellular_rtt(SimDuration::from_millis(300));
        assert_eq!(p.downlink_bps, 1_000_000);
        assert_eq!(p.cellular_rtt.as_millis(), 300);
        assert_eq!(p.server_rtt, NetworkProfile::lte().server_rtt);
    }

    #[test]
    fn rtt_combines_cellular_and_server_legs() {
        let p = NetworkProfile::lte().with_cellular_rtt(SimDuration::from_millis(60));
        assert_eq!(p.rtt().as_millis(), 100);
        assert_eq!(p.one_way().as_millis(), 50);
        // The sum is halved, not each leg: 1 ns + 1 ns is one way 1 ns.
        let odd = NetworkProfile {
            cellular_rtt: SimDuration::from_nanos(1),
            server_rtt: SimDuration::from_nanos(1),
            ..p
        };
        assert_eq!(odd.one_way(), SimDuration::from_nanos(1));
    }

    #[test]
    fn connection_setup_costs() {
        let p = NetworkProfile::lte().with_cellular_rtt(SimDuration::from_millis(60));
        // rtt = 100ms; TCP + TLS = 200ms; + DNS 30ms when cold.
        assert_eq!(p.connection_setup(true).as_millis(), 200);
        assert_eq!(p.connection_setup(false).as_millis(), 230);
    }
}
