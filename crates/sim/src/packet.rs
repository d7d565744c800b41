//! Packet-granularity cross-validation of the fluid model.
//!
//! The central substitution claim of this reproduction (DESIGN.md §2)
//! is that a fluid rate allocator reproduces what WFQ packet scheduling
//! does to job-level completion times. This module provides a small,
//! exact packet simulator — per-port queues served by **deficit round
//! robin** (the practical WFQ realization; InfiniBand VL arbitration is
//! a weighted round robin of the same family) — so tests can check the
//! fluid results against packet-level ground truth on single-port
//! scenarios, where the comparison is crisp.
//!
//! This is intentionally *not* a full network simulator: one output
//! port, `n` queues with weights, flows assigned to queues, fixed-size
//! packets. That is exactly the regime in which the fluid model's
//! flattening (`φ_f = W_q / n_q`) claims exactness.

/// A flow entering the packet-level port.
#[derive(Debug, Clone)]
pub struct PacketFlow {
    /// Bytes to transfer.
    pub bytes: f64,
    /// Queue (virtual lane) index this flow's packets enter.
    pub queue: usize,
    /// Arrival time (seconds); the flow is backlogged from then on.
    pub arrival: f64,
}

/// A single output port scheduled with deficit round robin.
#[derive(Debug, Clone)]
pub struct PacketPort {
    /// Link capacity, bytes per second.
    pub capacity: f64,
    /// Packet size in bytes (MTU); smaller packets = closer to fluid.
    pub packet_bytes: f64,
    /// WFQ weight per queue.
    pub weights: Vec<f64>,
}

/// Completion times of each flow, aligned with the input.
pub fn simulate_port(port: &PacketPort, flows: &[PacketFlow]) -> Vec<f64> {
    assert!(port.capacity > 0.0, "capacity must be positive");
    assert!(port.packet_bytes > 0.0, "packet size must be positive");
    assert!(!port.weights.is_empty(), "port needs at least one queue");
    for f in flows {
        assert!(f.queue < port.weights.len(), "flow queue out of range");
        assert!(f.bytes >= 0.0 && f.arrival >= 0.0, "invalid flow");
    }

    let nq = port.weights.len();
    // Quantum per DRR round, proportional to weight; at least one packet
    // for the smallest weight so every queue makes progress.
    let min_w = port.weights.iter().cloned().fold(f64::INFINITY, f64::min);
    let quanta: Vec<f64> = port
        .weights
        .iter()
        .map(|w| port.packet_bytes * (w / min_w))
        .collect();

    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes).collect();
    let mut finish = vec![0.0f64; flows.len()];
    let mut deficit = vec![0.0f64; nq];
    // Round-robin pointer within each queue, so same-queue flows share
    // packet-by-packet (the fluid model's equal split within a queue).
    let mut rr_next = vec![0usize; nq];
    let mut now = 0.0f64;

    let backlogged = |q: usize, now: f64, remaining: &[f64]| -> Vec<usize> {
        flows
            .iter()
            .enumerate()
            .filter(|(i, f)| f.queue == q && f.arrival <= now && remaining[*i] > 1e-9)
            .map(|(i, _)| i)
            .collect()
    };

    loop {
        let any_left = remaining.iter().any(|&r| r > 1e-9);
        if !any_left {
            break;
        }
        // If nothing is backlogged yet, jump to the next arrival.
        let any_backlogged = (0..nq).any(|q| !backlogged(q, now, &remaining).is_empty());
        if !any_backlogged {
            let next_arrival = flows
                .iter()
                .enumerate()
                .filter(|(i, _)| remaining[*i] > 1e-9)
                .map(|(_, f)| f.arrival)
                .fold(f64::INFINITY, f64::min);
            assert!(next_arrival.is_finite(), "stuck with no arrivals");
            now = next_arrival;
            continue;
        }

        // One DRR round over the queues.
        for q in 0..nq {
            let members = backlogged(q, now, &remaining);
            if members.is_empty() {
                deficit[q] = 0.0; // Idle queues do not bank credit.
                continue;
            }
            deficit[q] += quanta[q];
            // Serve packets while credit and backlog remain.
            while deficit[q] >= port.packet_bytes {
                let members = backlogged(q, now, &remaining);
                if members.is_empty() {
                    break;
                }
                // Pick the next member round-robin.
                let pick = members
                    .iter()
                    .copied()
                    .find(|&i| i >= rr_next[q])
                    .unwrap_or(members[0]);
                let send = port.packet_bytes.min(remaining[pick]);
                remaining[pick] -= send;
                now += send / port.capacity;
                deficit[q] -= send;
                if remaining[pick] <= 1e-9 {
                    finish[pick] = now;
                }
                rr_next[q] = pick + 1;
            }
        }
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::sharing::{compute_rates, SharingFlow};

    /// Fluid prediction of completion times on one link: iterate the
    /// allocator between completions.
    fn fluid_port(capacity: f64, weights: &[(f64, f64)]) -> Vec<f64> {
        // weights: per-flow (bytes, flattened weight).
        let mut remaining: Vec<f64> = weights.iter().map(|w| w.0).collect();
        let mut finish = vec![0.0; weights.len()];
        let mut now = 0.0;
        loop {
            let active: Vec<usize> = (0..weights.len())
                .filter(|&i| remaining[i] > 1e-9)
                .collect();
            if active.is_empty() {
                break;
            }
            let flows: Vec<SharingFlow> = active
                .iter()
                .map(|&i| SharingFlow {
                    path: vec![LinkId(0)],
                    weights: vec![weights[i].1],
                    priority: 0,
                    rate_cap: f64::INFINITY,
                })
                .collect();
            let rates = compute_rates(&[capacity], &flows);
            // Advance to the earliest completion.
            let dt = active
                .iter()
                .zip(&rates)
                .map(|(&i, &r)| remaining[i] / r)
                .fold(f64::INFINITY, f64::min);
            now += dt;
            for (&i, &r) in active.iter().zip(&rates) {
                remaining[i] -= r * dt;
                if remaining[i] <= 1e-9 {
                    finish[i] = now;
                }
            }
        }
        finish
    }

    #[test]
    fn equal_flows_match_fluid_within_a_packet() {
        let port = PacketPort {
            capacity: 1e6,
            packet_bytes: 1500.0,
            weights: vec![1.0],
        };
        let flows = vec![
            PacketFlow {
                bytes: 3e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 3e6,
                queue: 0,
                arrival: 0.0,
            },
        ];
        let packet = simulate_port(&port, &flows);
        let fluid = fluid_port(1e6, &[(3e6, 0.5), (3e6, 0.5)]);
        for (p, f) in packet.iter().zip(&fluid) {
            let tol = 4.0 * 1500.0 / 1e6; // A few packet times.
            assert!((p - f).abs() < tol, "packet {p} vs fluid {f}");
        }
    }

    #[test]
    fn weighted_queues_match_fluid() {
        // Queue 0 weight 3, queue 1 weight 1: the fluid model says the
        // queue-0 flow finishes at bytes/(0.75·C).
        let port = PacketPort {
            capacity: 1e6,
            packet_bytes: 1500.0,
            weights: vec![3.0, 1.0],
        };
        let flows = vec![
            PacketFlow {
                bytes: 3e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 3e6,
                queue: 1,
                arrival: 0.0,
            },
        ];
        let packet = simulate_port(&port, &flows);
        let fluid = fluid_port(1e6, &[(3e6, 3.0), (3e6, 1.0)]);
        for (i, (p, f)) in packet.iter().zip(&fluid).enumerate() {
            let rel = (p - f).abs() / f;
            assert!(rel < 0.01, "flow {i}: packet {p} vs fluid {f}");
        }
    }

    #[test]
    fn within_queue_flows_split_equally() {
        // Two flows in queue 0 (weight 2) against one in queue 1
        // (weight 1): fluid flattening gives 1.0/1.0/1.0 — equal rates.
        let port = PacketPort {
            capacity: 1e6,
            packet_bytes: 1500.0,
            weights: vec![2.0, 1.0],
        };
        let flows = vec![
            PacketFlow {
                bytes: 1.5e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 1.5e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 1.5e6,
                queue: 1,
                arrival: 0.0,
            },
        ];
        let packet = simulate_port(&port, &flows);
        let fluid = fluid_port(1e6, &[(1.5e6, 1.0), (1.5e6, 1.0), (1.5e6, 1.0)]);
        for (i, (p, f)) in packet.iter().zip(&fluid).enumerate() {
            let rel = (p - f).abs() / f;
            assert!(rel < 0.01, "flow {i}: packet {p} vs fluid {f}");
        }
    }

    #[test]
    fn work_conservation_after_a_queue_drains() {
        // Small queue-1 flow drains early; queue 0 must then take the
        // whole link, matching the fluid refill behaviour.
        let port = PacketPort {
            capacity: 1e6,
            packet_bytes: 1500.0,
            weights: vec![1.0, 1.0],
        };
        let flows = vec![
            PacketFlow {
                bytes: 4e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 1e6,
                queue: 1,
                arrival: 0.0,
            },
        ];
        let packet = simulate_port(&port, &flows);
        let fluid = fluid_port(1e6, &[(4e6, 1.0), (1e6, 1.0)]);
        for (i, (p, f)) in packet.iter().zip(&fluid).enumerate() {
            let rel = (p - f).abs() / f;
            assert!(rel < 0.01, "flow {i}: packet {p} vs fluid {f}");
        }
        // Ground truth: flow 1 at 2 s (half rate), flow 0 at 5 s.
        assert!((packet[1] - 2.0).abs() < 0.05, "{}", packet[1]);
        assert!((packet[0] - 5.0).abs() < 0.05, "{}", packet[0]);
    }

    #[test]
    fn late_arrival_shares_from_its_arrival_onward() {
        let port = PacketPort {
            capacity: 1e6,
            packet_bytes: 1500.0,
            weights: vec![1.0],
        };
        let flows = vec![
            PacketFlow {
                bytes: 2e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 1e6,
                queue: 0,
                arrival: 1.0,
            },
        ];
        let packet = simulate_port(&port, &flows);
        // Fluid: flow 0 alone for 1 s (1e6 done), then both at 0.5e6/s;
        // flow 1 finishes at 1 + 2 = 3 s; flow 0 has 1e6 left at t=1,
        // finishes at 3 s too.
        assert!((packet[0] - 3.0).abs() < 0.05, "{}", packet[0]);
        assert!((packet[1] - 3.0).abs() < 0.05, "{}", packet[1]);
    }

    #[test]
    fn smaller_packets_converge_to_fluid() {
        let flows = vec![
            PacketFlow {
                bytes: 3e6,
                queue: 0,
                arrival: 0.0,
            },
            PacketFlow {
                bytes: 1e6,
                queue: 1,
                arrival: 0.0,
            },
        ];
        let fluid = fluid_port(1e6, &[(3e6, 5.0), (1e6, 1.0)]);
        let err_at = |mtu: f64| -> f64 {
            let port = PacketPort {
                capacity: 1e6,
                packet_bytes: mtu,
                weights: vec![5.0, 1.0],
            };
            let packet = simulate_port(&port, &flows);
            packet
                .iter()
                .zip(&fluid)
                .map(|(p, f)| (p - f).abs() / f)
                .fold(0.0, f64::max)
        };
        let coarse = err_at(64_000.0);
        let fine = err_at(1_500.0);
        assert!(
            fine <= coarse + 1e-12,
            "finer packets must not diverge more"
        );
        assert!(fine < 0.02, "fine-grained error {fine}");
    }
}
