//! Timed, bounded, point-to-point FIFO links.
//!
//! Links are the only communication mechanism between components. They model
//! a registered hardware queue: a payload pushed at time *t* becomes visible
//! (peekable/poppable) at *t + latency*, and the slot it occupies is reserved
//! from the moment of the push, so producers observe cycle-accurate
//! back-pressure.

use crate::error::{SimError, SimResult};
use crate::snapshot::{Persist, StateReader, StateWriter};
use crate::time::Time;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a [`Link`] within a [`LinkPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// Raw index (for diagnostics and stable ordering).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// Aggregated activity statistics of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Total payloads ever pushed.
    pub pushes: u64,
    /// Total payloads ever popped.
    pub pops: u64,
    /// Maximum instantaneous occupancy observed.
    pub max_occupancy: usize,
    /// Integral of occupancy over time (payload·ps); divide by elapsed time
    /// for the mean queue length.
    pub occupancy_integral: u128,
}

/// A single bounded, timed FIFO.
#[derive(Debug)]
pub struct Link<T> {
    name: String,
    capacity: usize,
    latency: Time,
    queue: VecDeque<(Time, T)>,
    stats: LinkStats,
    last_change: Time,
}

impl<T> Link<T> {
    fn new(name: String, capacity: usize, latency: Time) -> Self {
        Link {
            name,
            capacity,
            latency,
            queue: VecDeque::with_capacity(capacity.min(64)),
            stats: LinkStats::default(),
            last_change: Time::ZERO,
        }
    }

    /// The link's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transport latency applied to each payload.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Current number of occupied slots (including in-flight payloads).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the link holds no payloads at all.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the link is full (no slot for a new push).
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    fn integrate(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last_change).as_ps() as u128;
        self.stats.occupancy_integral += dt * self.queue.len() as u128;
        self.last_change = self.last_change.max(now);
    }

    fn head_ready(&self, now: Time) -> bool {
        self.queue.front().is_some_and(|(at, _)| *at <= now)
    }
}

/// Owner of every link in a simulation.
///
/// Components hold [`LinkId`]s and access payloads through the pool borrowed
/// from their [`TickContext`](crate::TickContext).
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{LinkPool, Time};
///
/// let mut pool: LinkPool<u32> = LinkPool::new();
/// let l = pool.add_link("req", 2, Time::from_ns(4));
/// assert!(pool.can_push(l));
/// pool.push(l, Time::ZERO, 7)?;
/// // Not deliverable before the latency elapses.
/// assert!(pool.peek(l, Time::from_ns(3)).is_none());
/// assert_eq!(pool.pop(l, Time::from_ns(4)), Some(7));
/// # Ok::<(), mpsoc_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct LinkPool<T> {
    links: Vec<Link<T>>,
    /// Maintained count of payloads queued across all links, so quiescence
    /// checks are O(1) instead of a scan (updated on every push and pop).
    queued: usize,
    /// Extra admission slots granted on every link beyond its physical
    /// capacity — the loosely-timed gear's bandwidth-based contention
    /// approximation. Within a fast window only one component runs at a
    /// time, so a consumer that would have drained the wire concurrently
    /// cannot; the slack (quantum − 1, i.e. the payloads a one-per-cycle
    /// consumer could have accepted during the window) keeps producers from
    /// being throttled to `capacity` payloads per window. Zero in
    /// [`Fidelity::Cycle`](crate::Fidelity) gear and at `quantum = 1`, so
    /// the cycle-accurate contract is exact. Derived from the gear — never
    /// serialized, untouched by restore.
    slack: usize,
    /// `watchers[link] = slots to wake when a payload is pushed onto it`
    /// (sparse-ticking wake-on-delivery). Indexed lazily: links registered
    /// after the last `watch` call simply have no watchers yet.
    watchers: Vec<Vec<u32>>,
    /// `wakes[slot] = earliest pending delivery instant (ps) across the
    /// slot's watched links`, `u64::MAX` when nothing is pending. Never
    /// serialized — derived state, recomputed from the queues on restore.
    wakes: Vec<u64>,
    /// `waiters[link] = stalled slots whose verdict is shut for lack of room
    /// on it` (wake-on-space): the next `pop` makes their wake keys due and
    /// empties the list. A stale entry costs one re-evaluation, nothing else.
    waiters: Vec<Vec<u32>>,
    /// The executor's wake keys, kept here because pushes and pops are what
    /// move them.
    keys: WakeKeys,
}

/// One wake key per slot: the earliest instant at which the sparse schedule
/// has to look at the slot again. The executor writes a key when it takes
/// the slot's verdict; between verdicts only link traffic moves it, and only
/// down — a delivery onto a watched link, room made on a wire the slot waits
/// for. Derived state, never serialized.
#[derive(Debug, Default)]
struct WakeKeys {
    /// `due[slot]`, in ps. 0 = look at it on its next edge.
    due: Vec<u64>,
    /// `bucket_of[slot]` = the slot's scheduling bucket.
    bucket_of: Vec<u32>,
    /// `bucket_due[bucket]` = a lower bound on the keys of the bucket's
    /// members: an edge earlier than it has nothing to dispatch there.
    /// Every write to a key folds into it; the executor re-tightens it on
    /// each pass over the bucket.
    bucket_due: Vec<u64>,
}

impl WakeKeys {
    #[inline]
    fn fold(&mut self, slot: usize, at: u64) {
        let bound = &mut self.bucket_due[self.bucket_of[slot] as usize];
        if at < *bound {
            *bound = at;
        }
    }

    #[inline]
    fn lower(&mut self, slot: u32, at: u64) {
        let slot = slot as usize;
        if at < self.due[slot] {
            self.due[slot] = at;
            self.fold(slot, at);
        }
    }
}

impl<T> LinkPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        LinkPool {
            links: Vec::new(),
            queued: 0,
            watchers: Vec::new(),
            wakes: Vec::new(),
            waiters: Vec::new(),
            keys: WakeKeys::default(),
            slack: 0,
        }
    }

    /// Sets the admission slack applied on top of every link's capacity
    /// (the fast gear's occupancy-based contention approximation). The
    /// executor keeps this equal to `quantum − 1` while the fast gear is
    /// engaged and resets it to zero on a shift to cycle gear; queues left
    /// over-full by a downshift simply refuse further pushes until they
    /// drain below their physical capacity.
    pub(crate) fn set_slack(&mut self, slack: usize) {
        self.slack = slack;
    }

    /// Registers a new link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity queue can never carry a
    /// payload and always indicates a wiring bug).
    pub fn add_link(&mut self, name: impl Into<String>, capacity: usize, latency: Time) -> LinkId {
        assert!(capacity > 0, "link capacity must be at least 1");
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link::new(name.into(), capacity, latency));
        id
    }

    /// Number of registered links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Immutable access to a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn link(&self, id: LinkId) -> &Link<T> {
        &self.links[id.index()]
    }

    /// Whether a push would currently succeed.
    pub fn can_push(&self, id: LinkId) -> bool {
        let link = &self.links[id.index()];
        link.queue.len() < link.capacity.saturating_add(self.slack)
    }

    /// Pushes a payload, to be delivered at `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkFull`] if no slot is free. Callers that model
    /// back-pressure should check [`LinkPool::can_push`] first; an error here
    /// is normally a component bug.
    pub fn push(&mut self, id: LinkId, now: Time, payload: T) -> SimResult<()> {
        self.push_after(id, now, Time::ZERO, payload)
    }

    /// Pushes a payload with an additional transfer delay: delivery happens
    /// at `now + latency + extra`.
    ///
    /// Bus models use this for multi-cycle channel occupancies (e.g. a write
    /// burst whose data beats take several cycles to cross the channel). The
    /// slot is still reserved immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkFull`] if no slot is free.
    pub fn push_after(&mut self, id: LinkId, now: Time, extra: Time, payload: T) -> SimResult<()> {
        let slack = self.slack;
        let link = &mut self.links[id.index()];
        if link.queue.len() >= link.capacity.saturating_add(slack) {
            return Err(SimError::LinkFull { link: id });
        }
        link.integrate(now);
        let deliver = now + link.latency + extra;
        // Insert in delivery-time order (stable for equal times). Producers
        // with multi-cycle transfer occupancies (e.g. the independent AXI
        // write-data and read-address channels feeding one target) may
        // legally complete a later push earlier; the wire presents payloads
        // in arrival order. Most pushes land at the tail: append those.
        if link.queue.back().is_none_or(|(t, _)| *t <= deliver) {
            link.queue.push_back((deliver, payload));
        } else {
            let pos = link.queue.partition_point(|(t, _)| *t <= deliver);
            link.queue.insert(pos, (deliver, payload));
        }
        link.stats.pushes += 1;
        link.stats.max_occupancy = link.stats.max_occupancy.max(link.queue.len());
        self.queued += 1;
        // Wake-on-delivery: lower every watcher's wake — and its wake key,
        // whatever verdict it stands for — to this delivery instant, so a
        // sleeping or stalled destination is looked at no later than the
        // edge on which the payload becomes deliverable.
        if let Some(watchers) = self.watchers.get(id.index()) {
            let at = deliver.as_ps();
            for &slot in watchers {
                let wake = &mut self.wakes[slot as usize];
                if at < *wake {
                    *wake = at;
                }
                self.keys.lower(slot, at);
            }
        }
        Ok(())
    }

    /// Enrols `slot`, a member of scheduling bucket `bucket`, with a due
    /// wake key (a component's first tick is always dispatched). The
    /// executor enrols every slot at registration, in index order.
    pub(crate) fn enrol(&mut self, slot: u32, bucket: u32) {
        let (slot, b) = (slot as usize, bucket as usize);
        if self.keys.due.len() <= slot {
            self.keys.due.resize(slot + 1, 0);
            self.keys.bucket_of.resize(slot + 1, 0);
            self.wakes.resize(slot + 1, u64::MAX);
        }
        if self.keys.bucket_due.len() <= b {
            self.keys.bucket_due.resize(b + 1, 0);
        }
        self.keys.due[slot] = 0;
        self.keys.bucket_of[slot] = bucket;
        self.keys.bucket_due[b] = 0;
    }

    /// Puts every enrolled slot's wake key and every bucket bound back to
    /// due, and forgets every wake-on-space waiter: the wake state
    /// registration leaves, which a snapshot restore rebuilds from.
    pub(crate) fn reset_wake_keys(&mut self) {
        self.keys.due.fill(0);
        self.keys.bucket_due.fill(0);
        for waiting in &mut self.waiters {
            waiting.clear();
        }
    }

    /// Registers the enrolled `slot` as a wake-on-delivery watcher of `id`
    /// (sparse ticking). Any payload already queued on the link lowers the
    /// slot's wake immediately.
    pub(crate) fn watch(&mut self, id: LinkId, slot: u32) {
        if self.watchers.len() < self.links.len() {
            self.watchers.resize(self.links.len(), Vec::new());
        }
        let list = &mut self.watchers[id.index()];
        if !list.contains(&slot) {
            list.push(slot);
        }
        if let Some((at, _)) = self.links[id.index()].queue.front() {
            let wake = &mut self.wakes[slot as usize];
            *wake = (*wake).min(at.as_ps());
        }
    }

    /// Earliest pending delivery (ps) across the slot's watched links, or
    /// `u64::MAX` if nothing is pending. May be conservative-early (a stale
    /// low value only causes a harmless no-op tick); never late, because
    /// every push lowers it and only [`recompute_wake`](Self::recompute_wake)
    /// raises it.
    #[inline]
    pub(crate) fn wake_of(&self, slot: u32) -> u64 {
        self.wakes[slot as usize]
    }

    /// Re-derives a slot's wake from the current queue heads of its watched
    /// links and keys the slot as *asleep*: due at its deadline `timer_ps`
    /// or that wake, whichever is earlier. Called after each executed tick
    /// of the slot's component (which may have popped payloads) and after a
    /// snapshot restore.
    pub(crate) fn recompute_wake(&mut self, slot: u32, watched: &[LinkId], timer_ps: u64) {
        let wake = self.earliest_head(watched);
        self.wakes[slot as usize] = wake;
        self.set_due(slot, timer_ps.min(wake));
    }

    /// The slot's wake key: on an edge before it the slot's verdict stands
    /// and the schedule has nothing to do for it.
    #[inline]
    pub(crate) fn due_of(&self, slot: u32) -> u64 {
        self.keys.due[slot as usize]
    }

    /// Writes the slot's wake key (the executor, on taking its verdict).
    #[inline]
    pub(crate) fn set_due(&mut self, slot: u32, at: u64) {
        self.keys.due[slot as usize] = at;
        self.keys.fold(slot as usize, at);
    }

    /// Makes the slot's wake key due no later than `at`.
    #[inline]
    pub(crate) fn lower_due(&mut self, slot: u32, at: u64) {
        self.keys.lower(slot, at);
    }

    /// Counts an untouched key into its bucket's bound: the pass over a
    /// bucket resets the bound first and folds every member's key back in.
    #[inline]
    pub(crate) fn keep_due(&mut self, slot: u32) {
        self.keys.fold(slot as usize, self.keys.due[slot as usize]);
    }

    /// A lower bound on the wake keys of the bucket's members.
    #[inline]
    pub(crate) fn bucket_due(&self, bucket: u32) -> u64 {
        self.keys.bucket_due[bucket as usize]
    }

    /// Resets the bucket's bound ahead of a pass over all of its members:
    /// `u64::MAX` to have it re-tightened, 0 to keep it due.
    #[inline]
    pub(crate) fn set_bucket_due(&mut self, bucket: u32, bound: u64) {
        self.keys.bucket_due[bucket as usize] = bound;
    }

    /// Registers a stalled `slot` as waiting for room on `id`: the next pop
    /// there makes its wake key due (wake-on-space).
    pub(crate) fn await_space(&mut self, id: LinkId, slot: u32) {
        if self.waiters.len() < self.links.len() {
            self.waiters.resize(self.links.len(), Vec::new());
        }
        let list = &mut self.waiters[id.index()];
        if !list.contains(&slot) {
            list.push(slot);
        }
    }

    /// Delivery instant (ps) of the payload at the head of `id`, or
    /// `u64::MAX` for an empty queue.
    #[inline]
    pub(crate) fn head_at(&self, id: LinkId) -> u64 {
        self.links[id.index()]
            .queue
            .front()
            .map_or(u64::MAX, |(at, _)| at.as_ps())
    }

    /// Earliest queued delivery (ps) across `watched` links, or `u64::MAX`
    /// if all queues are empty. Same derivation as
    /// [`recompute_wake`](Self::recompute_wake), without storing it — used
    /// by the fast-forward window executor, whose in-window wake state is
    /// transient.
    #[inline]
    pub(crate) fn earliest_head(&self, watched: &[LinkId]) -> u64 {
        watched
            .iter()
            .fold(u64::MAX, |wake, &id| wake.min(self.head_at(id)))
    }

    /// Earliest queued delivery (ps) across `watched` links that lands
    /// *strictly after* `t_ps`, or `u64::MAX` if none. Queues are ordered by
    /// delivery time, so each link is answered by its head or its tail, or
    /// else a binary search. This is the
    /// "new-input" wake used by [`FastCtx::sleep_until`](crate::FastCtx):
    /// payloads already deliverable at `t_ps` were visible to the component
    /// when it chose to sleep and must not rouse it again.
    pub(crate) fn earliest_head_after(&self, watched: &[LinkId], t_ps: u64) -> u64 {
        let mut wake = u64::MAX;
        for id in watched {
            let queue = &self.links[id.index()].queue;
            let at = match (queue.front(), queue.back()) {
                (Some((head, _)), _) if head.as_ps() > t_ps => head.as_ps(),
                (_, Some((tail, _))) if tail.as_ps() > t_ps => {
                    let pos = queue.partition_point(|(at, _)| at.as_ps() <= t_ps);
                    queue[pos].0.as_ps()
                }
                // Empty, or everything queued is deliverable by `t_ps`.
                _ => continue,
            };
            wake = wake.min(at);
        }
        wake
    }

    /// Peeks the head payload if it has been delivered by `now`.
    pub fn peek(&self, id: LinkId, now: Time) -> Option<&T> {
        let link = &self.links[id.index()];
        link.queue
            .front()
            .and_then(|(at, p)| (*at <= now).then_some(p))
    }

    /// Whether a deliverable payload is available at `now`.
    pub fn has_deliverable(&self, id: LinkId, now: Time) -> bool {
        self.links[id.index()].head_ready(now)
    }

    /// Pops the head payload if it has been delivered by `now`.
    pub fn pop(&mut self, id: LinkId, now: Time) -> Option<T> {
        let link = &mut self.links[id.index()];
        if !link.head_ready(now) {
            return None;
        }
        link.integrate(now);
        let (_, payload) = link.queue.pop_front().expect("head checked above");
        link.stats.pops += 1;
        self.queued -= 1;
        // Wake-on-space: whoever stalled for lack of room here is looked at
        // again on its next turn — later on this edge if it is registered
        // after the popping consumer, on its next edge otherwise, which is
        // when a dense schedule would first show it the room.
        if let Some(waiting) = self.waiters.get_mut(id.index()) {
            for slot in waiting.drain(..) {
                self.keys.lower(slot, 0);
            }
        }
        Some(payload)
    }

    /// Total payloads currently queued across all links (used for quiescence
    /// detection). O(1): the count is maintained on every push and pop.
    pub fn total_queued(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.scan_queued(),
            "maintained queued counter diverged from the per-link scan"
        );
        self.queued
    }

    /// Total queued payloads computed by scanning every link — the naive
    /// O(links) formulation, kept for the reference scheduler and for
    /// validating the maintained counter.
    pub fn scan_queued(&self) -> usize {
        self.links.iter().map(|l| l.queue.len()).sum()
    }

    /// Iterates over `(id, link)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &Link<T>)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }
}

crate::snapshot_state! {
    impl Persist for LinkStats { pushes, pops, max_occupancy, occupancy_integral }
}

impl<T: Persist> LinkPool<T> {
    /// Serializes every link's queue contents and statistics for a
    /// simulation checkpoint. Structural attributes (name, capacity,
    /// latency) are not written — the restore target is rebuilt with the
    /// same wiring and only validated against them.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.write_usize(self.links.len());
        for link in &self.links {
            link.queue.save(w);
            link.stats.save(w);
            link.last_change.save(w);
        }
    }

    /// Restores link state saved by [`save_state`](Self::save_state) and
    /// recomputes the maintained `queued` counter. A link count other than
    /// the pool's refuses the blob. A queue's depth is bounded by the bytes
    /// left, not by its link's capacity: a blob taken in the fast gear
    /// legally holds up to `capacity + quantum − 1` (the gear's
    /// [`slack`](Self::set_slack)), and the quantum is strategy, not state.
    pub(crate) fn restore_state(&mut self, r: &mut StateReader<'_>) {
        let n = r.read_usize();
        if n != self.links.len() {
            r.refuse(format!(
                "blob has {n} links, target has {}",
                self.links.len()
            ));
            return;
        }
        for link in &mut self.links {
            let depth = r.read_len(<(Time, T)>::MIN_BYTES);
            link.queue.clear();
            for _ in 0..depth {
                link.queue.push_back(Persist::load(r));
            }
            link.stats = Persist::load(r);
            link.last_change = Persist::load(r);
        }
        self.queued = self.scan_queued();
    }
}

impl<T> Default for LinkPool<T> {
    fn default() -> Self {
        LinkPool::new()
    }
}

/// Per-tick handle to the link pool (the `links` field of
/// [`TickContext`](crate::TickContext)): the pool's traffic methods, without
/// its wiring ones — a tick moves payloads, it does not add links.
#[derive(Debug)]
pub struct LinkAccess<'a, T> {
    pool: &'a mut LinkPool<T>,
}

impl<'a, T> LinkAccess<'a, T> {
    pub(crate) fn new(pool: &'a mut LinkPool<T>) -> Self {
        LinkAccess { pool }
    }

    /// See [`LinkPool::link`].
    pub fn link(&self, id: LinkId) -> &Link<T> {
        self.pool.link(id)
    }

    /// See [`LinkPool::can_push`].
    pub fn can_push(&self, id: LinkId) -> bool {
        self.pool.can_push(id)
    }

    /// See [`LinkPool::push`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkFull`] if no slot is free.
    pub fn push(&mut self, id: LinkId, now: Time, payload: T) -> SimResult<()> {
        self.pool.push(id, now, payload)
    }

    /// See [`LinkPool::push_after`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LinkFull`] if no slot is free.
    pub fn push_after(&mut self, id: LinkId, now: Time, extra: Time, payload: T) -> SimResult<()> {
        self.pool.push_after(id, now, extra, payload)
    }

    /// See [`LinkPool::peek`].
    pub fn peek(&self, id: LinkId, now: Time) -> Option<&T> {
        self.pool.peek(id, now)
    }

    /// See [`LinkPool::has_deliverable`].
    pub fn has_deliverable(&self, id: LinkId, now: Time) -> bool {
        self.pool.has_deliverable(id, now)
    }

    /// See [`LinkPool::pop`].
    pub fn pop(&mut self, id: LinkId, now: Time) -> Option<T> {
        self.pool.pop(id, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> LinkPool<u32> {
        LinkPool::new()
    }

    #[test]
    fn delivery_respects_latency() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(5));
        p.push(l, Time::from_ns(10), 42).unwrap();
        assert!(p.peek(l, Time::from_ns(14)).is_none());
        assert!(!p.has_deliverable(l, Time::from_ns(14)));
        assert_eq!(p.peek(l, Time::from_ns(15)), Some(&42));
        assert_eq!(p.pop(l, Time::from_ns(15)), Some(42));
        assert!(p.pop(l, Time::from_ns(20)).is_none());
    }

    #[test]
    fn capacity_reserved_at_push() {
        let mut p = pool();
        let l = p.add_link("l", 2, Time::from_ns(100));
        p.push(l, Time::ZERO, 1).unwrap();
        p.push(l, Time::ZERO, 2).unwrap();
        // Slots are taken even though nothing is deliverable yet.
        assert!(!p.can_push(l));
        assert_eq!(
            p.push(l, Time::ZERO, 3),
            Err(SimError::LinkFull { link: l })
        );
        // Popping frees a slot.
        assert_eq!(p.pop(l, Time::from_ns(100)), Some(1));
        assert!(p.can_push(l));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = pool();
        let l = p.add_link("l", 8, Time::from_ns(1));
        for i in 0..5 {
            p.push(l, Time::from_ns(i), i as u32).unwrap();
        }
        for i in 0..5 {
            assert_eq!(p.pop(l, Time::from_ns(100)), Some(i));
        }
    }

    #[test]
    fn stats_track_activity() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::ZERO);
        p.push(l, Time::ZERO, 1).unwrap();
        p.push(l, Time::ZERO, 2).unwrap();
        p.pop(l, Time::from_ns(10)).unwrap();
        let s = p.link(l).stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 1);
        assert_eq!(s.max_occupancy, 2);
        // 2 payloads for 10 ns = 20_000 payload·ps.
        assert_eq!(s.occupancy_integral, 20_000);
    }

    #[test]
    fn total_queued_counts_everything() {
        let mut p = pool();
        let a = p.add_link("a", 4, Time::ZERO);
        let b = p.add_link("b", 4, Time::from_ns(50));
        p.push(a, Time::ZERO, 1).unwrap();
        p.push(b, Time::ZERO, 2).unwrap();
        assert_eq!(p.total_queued(), 2);
        p.pop(a, Time::ZERO).unwrap();
        assert_eq!(p.total_queued(), 1);
    }

    #[test]
    fn earlier_delivery_overtakes_later_one() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(1));
        // A slow transfer pushed first, a fast one pushed second.
        p.push_after(l, Time::ZERO, Time::from_ns(10), 1).unwrap();
        p.push_after(l, Time::from_ns(2), Time::ZERO, 2).unwrap();
        assert_eq!(p.pop(l, Time::from_ns(3)), Some(2));
        assert_eq!(p.pop(l, Time::from_ns(3)), None);
        assert_eq!(p.pop(l, Time::from_ns(11)), Some(1));
    }

    #[test]
    fn push_after_adds_transfer_delay() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(2));
        p.push_after(l, Time::from_ns(10), Time::from_ns(6), 9)
            .unwrap();
        assert!(p.peek(l, Time::from_ns(17)).is_none());
        assert_eq!(p.pop(l, Time::from_ns(18)), Some(9));
    }

    #[test]
    fn watchers_track_earliest_pending_delivery() {
        let mut p = pool();
        let a = p.add_link("a", 4, Time::from_ns(5));
        let b = p.add_link("b", 4, Time::from_ns(1));
        p.enrol(0, 0);
        p.watch(a, 0);
        p.watch(b, 0);
        assert_eq!(p.wake_of(0), u64::MAX);
        p.push(a, Time::ZERO, 1).unwrap(); // deliverable at 5 ns
        assert_eq!(p.wake_of(0), 5_000);
        p.push(b, Time::ZERO, 2).unwrap(); // deliverable at 1 ns
        assert_eq!(p.wake_of(0), 1_000);
        p.pop(b, Time::from_ns(1)).unwrap();
        p.recompute_wake(0, &[a, b], u64::MAX);
        assert_eq!((p.wake_of(0), p.due_of(0)), (5_000, 5_000));
        p.pop(a, Time::from_ns(5)).unwrap();
        // Asleep: the key is the deadline or the wake, whichever is earlier.
        p.recompute_wake(0, &[a, b], 9_000);
        assert_eq!((p.wake_of(0), p.due_of(0)), (u64::MAX, 9_000));
    }

    #[test]
    fn wake_keys_move_down_with_traffic_and_fold_into_the_bucket_bound() {
        let mut p = pool();
        let input = p.add_link("in", 4, Time::from_ns(5));
        let wire = p.add_link("out", 1, Time::from_ns(1));
        p.enrol(0, 0);
        p.enrol(1, 0);
        p.enrol(2, 1);
        p.watch(input, 1);
        assert_eq!((p.due_of(1), p.bucket_due(0)), (0, 0), "enrolled due");
        // The executor's pass: forget the bound, then every member's key
        // folds back in — written (slot 1, stalled for good) or kept (0).
        p.set_due(0, 7_000);
        p.set_bucket_due(0, u64::MAX);
        p.set_due(1, u64::MAX);
        p.keep_due(0);
        assert_eq!(p.bucket_due(0), 7_000);
        // A delivery overtaking whatever the key stood for lowers it.
        p.push(input, Time::ZERO, 1).unwrap();
        assert_eq!((p.due_of(1), p.bucket_due(0)), (5_000, 5_000));
        assert_eq!(p.bucket_due(1), 0, "other buckets are untouched");
        // Wake-on-space: a pop re-arms the registered slots, once.
        p.set_due(1, u64::MAX);
        p.push(wire, Time::ZERO, 2).unwrap();
        p.await_space(wire, 1);
        p.await_space(wire, 1);
        assert_eq!(p.waiters[wire.index()], vec![1], "deduplicated");
        p.pop(wire, Time::from_ns(1)).unwrap();
        assert_eq!((p.due_of(1), p.bucket_due(0)), (0, 0));
        assert!(p.waiters[wire.index()].is_empty());
    }

    #[test]
    fn watch_sees_payloads_already_queued() {
        let mut p = pool();
        let l = p.add_link("l", 4, Time::from_ns(3));
        p.push(l, Time::ZERO, 9).unwrap();
        p.enrol(2, 0);
        p.watch(l, 2);
        assert_eq!(p.wake_of(2), 3_000);
        // Slots watching nothing have no pending wake.
        assert_eq!(p.wake_of(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let mut p = pool();
        let _ = p.add_link("bad", 0, Time::ZERO);
    }
}
