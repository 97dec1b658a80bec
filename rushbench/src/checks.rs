//! Output checks made apart from the program.
//!
//! Every check compares an output against the benchmark's own computation
//! (a plain Dijkstra over the oracle's current metric) or against a
//! property the method must have: the price of Definition 3, the
//! non-dominated skyline of Definition 4, the waiting-time bound `w`, the
//! detour bound `δ`, vehicle capacity, matcher agreement and recovery
//! bit-identity. None of them compares against a stored copy of output.

use ptrider_roadnet::{RoadNetwork, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Relative tolerance for comparing the program's floating-point results
/// with the benchmark's own.
const REL_TOL: f64 = 1e-9;

/// One option of an offer, as the rider sees it (in process or as JSON).
#[derive(Clone, Copy, Debug)]
pub struct OptionView {
    pub vehicle: u32,
    pub pickup_dist: f64,
    pub price: f64,
    pub detour_dist: f64,
}

/// Exact shortest-path distance by Dijkstra, folded from the smaller vertex
/// id (the direction the oracle folds undirected pairs in).
pub fn dijkstra(net: &RoadNetwork, a: VertexId, b: VertexId) -> f64 {
    let (s, t) = if a.0 <= b.0 { (a, b) } else { (b, a) };
    let mut dist = vec![f64::INFINITY; net.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[s.0 as usize] = 0.0;
    heap.push(Reverse((Ordered(0.0), s.0)));
    while let Some(Reverse((Ordered(d), u))) = heap.pop() {
        if u == t.0 {
            return d;
        }
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in net.neighbors(VertexId(u)) {
            let nd = d + w;
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                heap.push(Reverse((Ordered(nd), v.0)));
            }
        }
    }
    f64::INFINITY
}

/// Distances under `f64::total_cmp`, for the heap.
#[derive(Clone, Copy)]
struct Ordered(f64);
impl PartialEq for Ordered {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Ordered {}
impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Definition 4: `a` dominates `b` when it is no worse in pick-up time and
/// price and strictly better in one.
fn dominates(a: &OptionView, b: &OptionView) -> bool {
    (a.pickup_dist <= b.pickup_dist && a.price < b.price)
        || (a.pickup_dist < b.pickup_dist && a.price <= b.price)
}

/// Violations found so far; the first few, and the first failed
/// operations, are kept verbatim.
#[derive(Default)]
pub struct Checker {
    pub checks: u64,
    pub violations: u64,
    pub first: Vec<String>,
}

impl Checker {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations += 1;
            if self.first.len() < 10 {
                self.first.push(what());
            }
        }
    }

    /// Checks one offer: Definition 3 prices against the benchmark's own
    /// `dist(s, d)`, the pick-up distance bound, the pick-up ordering and
    /// pairwise non-dominance.
    pub fn offer(
        &mut self,
        options: &[OptionView],
        riders: u32,
        direct: f64,
        max_pickup_dist: f64,
    ) {
        // f_n = 0.3 + (n − 1) · 0.1, priced per kilometre.
        let fare = 0.3 + (riders as f64 - 1.0) * 0.1;
        for o in options {
            let want = fare * (o.detour_dist + direct) / 1000.0;
            self.expect(close(o.price, want), || {
                format!(
                    "price {} != f_n·(detour {} + dist(s,d) {})/km = {want}",
                    o.price, o.detour_dist, direct
                )
            });
            self.expect(o.pickup_dist <= max_pickup_dist + 1e-6, || {
                format!("pickup_dist {} > max {max_pickup_dist}", o.pickup_dist)
            });
        }
        for pair in options.windows(2) {
            self.expect(pair[0].pickup_dist <= pair[1].pickup_dist, || {
                format!(
                    "options not sorted by pickup: {} before {}",
                    pair[0].pickup_dist, pair[1].pickup_dist
                )
            });
        }
        for (i, a) in options.iter().enumerate() {
            for b in &options[i + 1..] {
                self.expect(!dominates(a, b) && !dominates(b, a), || {
                    format!("dominated pair in skyline: {a:?} / {b:?}")
                });
            }
        }
    }

    /// Waiting time `w`: the vehicle reaches the pick-up no later than the
    /// odometer deadline fixed at admission.
    pub fn pickup(&mut self, odometer: f64, deadline: f64) {
        self.expect(odometer <= deadline + 1e-6, || {
            format!("pickup at odometer {odometer} after deadline {deadline}")
        });
    }

    /// Detour `δ`: on-board distance within budget, and the budget's base
    /// `direct_dist` equal to the benchmark's Dijkstra at admission.
    pub fn dropoff(&mut self, onboard: f64, max_onboard: f64, direct: f64, own_direct: f64) {
        self.expect(onboard <= max_onboard + 1e-6, || {
            format!("on-board distance {onboard} > budget {max_onboard}")
        });
        self.expect(close(direct, own_direct), || {
            format!("direct_dist {direct} != own Dijkstra {own_direct}")
        });
    }

    pub fn capacity(&mut self, onboard: u32, capacity: u32) {
        self.expect(onboard <= capacity, || {
            format!("{onboard} riders on board, capacity {capacity}")
        });
    }
}
