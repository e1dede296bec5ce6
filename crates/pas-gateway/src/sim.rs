//! The discrete-event scheduling core shared by [`Gateway`](crate::Gateway)
//! and `pas-cluster`.
//!
//! [`EventHeap`] is a future-event list ordered by `(time, seq)`: `seq` is
//! assigned at push time, making the order total and a pure function of
//! the schedule itself — never of wall-clock time, thread interleaving, or
//! heap internals. Popping advances a monotone simulated clock. Both the
//! single-node gateway loop and the multi-node cluster loop drain one of
//! these serially, and handle each event, a batch dispatch included, on
//! the same thread, which is the serving path's whole determinism story.
//!
//! A workload's arrivals are known before the loop starts, so they never
//! enter the heap: [`EventHeap::with_arrivals`] keeps them as a schedule
//! of `(time, index)` pairs sorted by time, stable by index, and `pop`
//! merges that schedule with the heap, an arrival winning a time tie. That
//! is exactly the order the arrivals would pop in had they been the
//! heap's first pushes (their `seq`s below every later push's), so the
//! heap holds only in-flight events and no run grows it by the workload's
//! size.

use std::collections::BinaryHeap;

/// Heap entry ordered by `(time, seq)`; `seq` is unique, making the order
/// total and independent of anything but the schedule itself.
struct Scheduled<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list with a monotone simulated clock.
pub struct EventHeap<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Arrivals still to pop as `(time, index)`, latest first, so the next
    /// one is last.
    arrivals: Vec<(u64, usize)>,
    /// Builds arrival `index`'s event.
    arrival: fn(usize) -> E,
    seq: u64,
    now: u64,
}

impl<E> EventHeap<E> {
    /// A schedule at simulated time zero whose arrival `i` fires as
    /// `arrival(i)` at `times[i]`, in the order pushing `arrival(0),
    /// arrival(1), …` first would give (module docs), without holding
    /// them in the heap.
    pub fn with_arrivals(times: impl IntoIterator<Item = u64>, arrival: fn(usize) -> E) -> Self {
        let mut arrivals: Vec<(u64, usize)> =
            times.into_iter().enumerate().map(|(i, t)| (t, i)).collect();
        arrivals.sort_unstable_by(|a, b| b.cmp(a));
        EventHeap { heap: BinaryHeap::new(), arrivals, arrival, seq: 0, now: 0 }
    }

    /// Schedules `event` at absolute simulated time `time`. Events sharing
    /// a time fire in push order.
    pub fn push(&mut self, time: u64, event: E) {
        let s = Scheduled { time, seq: self.seq, event };
        self.seq += 1;
        self.heap.push(s);
    }

    /// Pops the earliest event, advancing the clock to its time (the clock
    /// never runs backwards, even for events scheduled in the past).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let (time, event) = match self.arrivals.last() {
            Some(&(time, i)) if self.heap.peek().is_none_or(|top| time <= top.time) => {
                self.arrivals.pop();
                (time, (self.arrival)(i))
            }
            _ => {
                let Scheduled { time, event, .. } = self.heap.pop()?;
                (time, event)
            }
        };
        self.now = self.now.max(time);
        Some((self.now, event))
    }

    /// The current simulated time: the timestamp of the latest pop.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events still scheduled, arrivals included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.arrivals.len()
    }

    /// True when nothing remains scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Arrival(usize),
        FollowUp(u64),
    }

    /// Pops `heap` dry. At each pop a seeded handler pushes up to two
    /// follow-ups (64 in all), from two ticks in the past to two ahead, so
    /// they tie with arrivals and with each other; what it pushes depends
    /// only on the seed and how many events popped before, so two heaps
    /// that pop alike are fed alike.
    fn drain(mut heap: EventHeap<Ev>, seed: u64) -> Vec<(u64, Ev)> {
        let mut popped = Vec::new();
        let mut pushed = 0;
        while let Some((now, event)) = heap.pop() {
            let h = pas_par::derive_seed_path(seed, &[popped.len() as u64]);
            for k in 0..(h % 3).min(64 - pushed) {
                let offset = (h >> (8 + 4 * k)) % 5;
                heap.push((now + offset).saturating_sub(2), Ev::FollowUp(pushed));
                pushed += 1;
            }
            popped.push((now, event));
        }
        popped
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn the_arrival_schedule_pops_like_arrivals_pushed_first(
            times in prop::collection::vec(0u64..12, 0..40),
            seed in 0u64..1_000_000,
        ) {
            let mut pushed_first = EventHeap::with_arrivals([], Ev::Arrival);
            for (i, &t) in times.iter().enumerate() {
                pushed_first.push(t, Ev::Arrival(i));
            }
            let scheduled = EventHeap::with_arrivals(times.iter().copied(), Ev::Arrival);
            prop_assert_eq!(scheduled.len(), times.len());
            prop_assert_eq!(drain(scheduled, seed), drain(pushed_first, seed));
        }
    }

    #[test]
    fn pops_in_time_order_with_push_order_tiebreak() {
        let mut h = EventHeap::with_arrivals([], |_| unreachable!());
        h.push(5, "c");
        h.push(1, "a");
        h.push(5, "d");
        h.push(3, "b");
        let order: Vec<_> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![(1, "a"), (3, "b"), (5, "c"), (5, "d")]);
    }

    #[test]
    fn clock_is_monotone_even_for_late_pushes() {
        let mut h = EventHeap::with_arrivals([], |_| unreachable!());
        h.push(10, "late");
        assert_eq!(h.pop(), Some((10, "late")));
        // An event scheduled "in the past" fires at the current clock.
        h.push(4, "stale");
        assert_eq!(h.pop(), Some((10, "stale")));
        assert_eq!(h.now(), 10);
        assert!(h.is_empty());
    }
}
