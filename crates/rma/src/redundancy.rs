//! Replica-set routing for redundancy-coded placements: first-arrival-wins
//! absorption with exact duplicate reconciliation.
//!
//! A coded placement (see `dsw-partition`'s `ReplicaMap`) hosts every
//! logical block on `r` physical ranks. [`RedundantHost`] makes that
//! transparent to the block solvers: each physical rank runs the solver
//! instances of all blocks it hosts, and every logical message a solver
//! emits is fanned out to *every* host of its logical target — the copy to
//! the primary host keeps the solver's message class, the `r − 1` extra
//! copies are counted as [`CommClass::Redundancy`]. On the receive side
//! each hosted block reconciles by `(logical origin, slot)`: the first
//! copy of a slot to arrive is absorbed and delivered to the inner solver,
//! later copies — whether replica fan-out, chaos duplicates of an absorbed
//! slot, or re-sends from a lagging replica — are discarded exactly, and
//! counted. Reconciliation happens wherever delivery happens: at the epoch
//! close under the superstep executor, at tick granularity under the
//! asynchronous one (the wrapper sits *inside* the executor's delivery
//! path, so it inherits each executor's boundary).
//!
//! Because the wrapper rewrites physical ↔ logical addresses, the inner
//! solver negotiates purely in logical block space: Distributed
//! Southwell's Γ̃-set bookkeeping, deadlock avoidance, sequencing, and
//! recovery audits see a replica set as **one logical owner** by
//! construction. Under lock-step execution on a fault-free link all
//! replicas of a block receive identical logical inboxes and stay
//! bit-identical; under asynchrony (or drops) they diverge into
//! independently valid estimate states, and whichever copy of a slot
//! lands first wins — the Haddadpour-style "first arrivals beat the
//! slowest rank" behaviour (PAPERS.md).
//!
//! With `r = 1` (identity placement) the wrapper is message-for-message
//! transparent: one copy per put, original class, same per-edge fate keys
//! — byte-identical inner inboxes to the uncoded run under drop/delay
//! chaos. (Chaos *duplicates* are the one observable difference: the
//! uncoded path delivers the duplicate envelope to the solver's own
//! sequencing layer, while the wrapper's slot reconciliation absorbs it —
//! which is why the driver dispatches `r = 1` to the uncoded path.)

use crate::executor::{Envelope, PhaseCtx, RankAlgorithm};
use crate::stats::CommClass;

/// A logical message on the coded wire: the inner solver's payload plus
/// the logical addressing and the per-edge slot the reconciliation keys on.
#[derive(Debug, Clone)]
pub struct CodedMsg<M> {
    /// Logical origin block.
    pub origin: u32,
    /// Logical target block.
    pub target: u32,
    /// Sequence slot on the `(origin, target)` logical edge. Replicas of
    /// the origin assign slots from the same deterministic counter, so a
    /// slot identifies "the origin block's `slot`-th message on this edge"
    /// regardless of which replica's copy arrives first.
    pub slot: u32,
    /// The solver's message.
    pub inner: M,
}

/// First-arrival bookkeeping for one logical origin: a contiguous
/// watermark plus the out-of-order slots seen beyond it. Exact — a slot is
/// absorbed exactly once no matter how its copies are delayed, reordered,
/// or duplicated.
#[derive(Debug, Default)]
struct SeenSet {
    /// Slots `0..next_contig` have all been absorbed.
    next_contig: u32,
    /// Absorbed slots `>= next_contig` (sorted ascending; small — only
    /// populated while deliveries are in flight out of order).
    ahead: Vec<u32>,
}

impl SeenSet {
    /// Records `slot`; returns whether it is fresh (first arrival).
    fn absorb(&mut self, slot: u32) -> bool {
        if slot < self.next_contig {
            return false;
        }
        if slot == self.next_contig {
            self.next_contig += 1;
            // Collapse the watermark over any contiguously absorbed run.
            while self.ahead.first() == Some(&self.next_contig) {
                self.ahead.remove(0);
                self.next_contig += 1;
            }
            return true;
        }
        match self.ahead.binary_search(&slot) {
            Ok(_) => false,
            Err(pos) => {
                self.ahead.insert(pos, slot);
                true
            }
        }
    }
}

/// One hosted logical block: its solver instance plus the per-edge send
/// and receive bookkeeping.
struct HostedBlock<A: RankAlgorithm> {
    /// The logical block id.
    block: usize,
    /// The block's solver instance.
    solver: A,
    /// Next slot per logical target, target-sorted.
    send_slot: Vec<(u32, u32)>,
    /// Seen-set per logical origin, origin-sorted.
    seen: Vec<(u32, SeenSet)>,
    /// Scratch: the reconciled logical inbox handed to the solver.
    inbox: Vec<Envelope<A::Msg>>,
}

impl<A: RankAlgorithm> HostedBlock<A> {
    fn next_slot(&mut self, target: u32) -> u32 {
        match self.send_slot.binary_search_by_key(&target, |e| e.0) {
            Ok(i) => {
                let s = self.send_slot[i].1;
                self.send_slot[i].1 += 1;
                s
            }
            Err(i) => {
                self.send_slot.insert(i, (target, 1));
                0
            }
        }
    }

    fn seen_mut(&mut self, origin: u32) -> &mut SeenSet {
        match self.seen.binary_search_by_key(&origin, |e| e.0) {
            Ok(i) => &mut self.seen[i].1,
            Err(i) => {
                self.seen.insert(i, (origin, SeenSet::default()));
                &mut self.seen[i].1
            }
        }
    }
}

/// One physical rank of a redundancy-coded run: hosts the solver instances
/// of every logical block the placement assigns it, fans logical puts out
/// to replica sets, and reconciles arrivals first-arrival-wins. Implements
/// [`RankAlgorithm`] over [`CodedMsg`] envelopes, so it runs unchanged on
/// both executors.
pub struct RedundantHost<A: RankAlgorithm> {
    /// This host's physical rank.
    rank: usize,
    /// Hosts per logical block (`replicas[b][0]` is the primary).
    replicas: Vec<Vec<u32>>,
    /// The hosted blocks, ascending block order.
    blocks: Vec<HostedBlock<A>>,
    /// Copies addressed to this same physical rank (a host serving both
    /// the origin and a target replica): buffered locally and made visible
    /// at the next phase, like any other delivery — but free on the wire
    /// and uncounted.
    self_next: Vec<Envelope<CodedMsg<A::Msg>>>,
    /// Duplicate copies discarded by reconciliation over the run.
    reconciled: u64,
    /// Phase calls executed: the host's progress clock. All hosted blocks
    /// advance together, so this orders replicas of a block by freshness
    /// (the driver picks the furthest-along host as the block's
    /// representative when reading global state).
    clock: u64,
}

impl<A: RankAlgorithm> RedundantHost<A> {
    /// Assembles the host for physical rank `rank`. `solvers` holds
    /// `(logical block, solver instance)` pairs for exactly the blocks the
    /// placement assigns this rank; `replicas` is the full placement
    /// (hosts per logical block, primary first).
    pub fn new(rank: usize, replicas: Vec<Vec<u32>>, solvers: Vec<(usize, A)>) -> Self {
        assert!(!solvers.is_empty(), "a host must host at least one block");
        let mut blocks: Vec<HostedBlock<A>> = solvers
            .into_iter()
            .map(|(block, solver)| {
                assert!(
                    replicas[block].contains(&(rank as u32)),
                    "rank {rank} is not a host of block {block}"
                );
                HostedBlock {
                    block,
                    solver,
                    send_slot: Vec::new(),
                    seen: Vec::new(),
                    inbox: Vec::new(),
                }
            })
            .collect();
        blocks.sort_by_key(|b| b.block);
        RedundantHost {
            rank,
            replicas,
            blocks,
            self_next: Vec::new(),
            reconciled: 0,
            clock: 0,
        }
    }

    /// The solver instance of hosted block `b`.
    pub fn solver_for(&self, b: usize) -> Option<&A> {
        self.blocks
            .binary_search_by_key(&b, |h| h.block)
            .ok()
            .map(|i| &self.blocks[i].solver)
    }

    /// Iterates over `(block, solver)` pairs, ascending block order.
    pub fn solvers(&self) -> impl Iterator<Item = (usize, &A)> {
        self.blocks.iter().map(|h| (h.block, &h.solver))
    }

    /// Mutable iteration over `(block, solver)` pairs (driver recovery
    /// hooks: nudging every hosted instance).
    pub fn solvers_mut(&mut self) -> impl Iterator<Item = (usize, &mut A)> {
        self.blocks.iter_mut().map(|h| (h.block, &mut h.solver))
    }

    /// Duplicate copies discarded by first-arrival reconciliation so far.
    pub fn reconciled(&self) -> u64 {
        self.reconciled
    }

    /// Phase calls executed so far (the host's progress clock).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Reconciles one arrived copy into the hosted blocks: fresh slots are
    /// rewritten to logical addressing and queued for the target block's
    /// solver; duplicates are discarded and counted.
    fn reconcile(&mut self, env: &Envelope<CodedMsg<A::Msg>>) {
        let t = env.payload.target as usize;
        let Ok(i) = self.blocks.binary_search_by_key(&t, |h| h.block) else {
            // Not hosted here: a stale copy routed before a placement
            // change could land here; there are none today (placements are
            // static), so this is unreachable — but dropping is the safe
            // fate either way.
            return;
        };
        let hb = &mut self.blocks[i];
        if hb.seen_mut(env.payload.origin).absorb(env.payload.slot) {
            hb.inbox.push(Envelope {
                src: env.payload.origin as usize,
                class: env.class,
                bytes: env.bytes,
                payload: env.payload.inner.clone(),
            });
        } else {
            self.reconciled += 1;
        }
    }
}

impl<A: RankAlgorithm> RankAlgorithm for RedundantHost<A> {
    type Msg = CodedMsg<A::Msg>;

    fn phases(&self) -> usize {
        self.blocks[0].solver.phases()
    }

    fn phase(
        &mut self,
        phase: usize,
        inbox: &[Envelope<Self::Msg>],
        ctx: &mut PhaseCtx<Self::Msg>,
    ) {
        self.clock += 1;
        // Copies this host addressed to itself last phase become visible
        // now — the same boundary an executor delivery would have.
        let self_in = std::mem::take(&mut self.self_next);
        for env in inbox {
            self.reconcile(env);
        }
        for env in &self_in {
            self.reconcile(env);
        }
        for hb in &mut self.blocks {
            // Restore the inner "ordered by origin rank" inbox contract in
            // logical space. The sort is stable: within one logical origin
            // the arrival order (which replica won each slot, how delays
            // scrambled copies) is preserved — exactly the uncoded
            // executor's contract.
            hb.inbox.sort_by_key(|e| e.src);
        }
        for i in 0..self.blocks.len() {
            let hb = &mut self.blocks[i];
            let mut ictx = PhaseCtx::capture(hb.block);
            hb.solver.phase(phase, &hb.inbox, &mut ictx);
            hb.inbox.clear();
            let (outbox, totals) = ictx.into_outbox_and_totals();
            ctx.add_flops(totals.flops);
            if totals.active > 0 {
                ctx.record_relaxations(totals.relaxations);
            }
            for (logical_target, env) in outbox {
                let slot = self.blocks[i].next_slot(logical_target as u32);
                let coded = CodedMsg {
                    origin: self.blocks[i].block as u32,
                    target: logical_target as u32,
                    slot,
                    inner: env.payload,
                };
                // Fan out to every host of the logical target. The primary
                // copy keeps the solver's class (so per-class accounting at
                // r = 1 matches the uncoded run exactly); the extra copies
                // are the measurable redundancy overhead.
                for (j, &host) in self.replicas[logical_target].iter().enumerate() {
                    let class = if j == 0 {
                        env.class
                    } else {
                        CommClass::Redundancy
                    };
                    if host as usize == self.rank {
                        // Local replica: no wire traffic, visible next phase.
                        self.self_next.push(Envelope {
                            src: self.rank,
                            class,
                            bytes: env.bytes,
                            payload: coded.clone(),
                        });
                    } else {
                        ctx.put(host as usize, class, coded.clone(), env.bytes);
                    }
                }
            }
        }
    }

    fn put_targets(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for hb in &self.blocks {
            for lt in hb.solver.put_targets() {
                for &host in &self.replicas[lt] {
                    if host as usize != self.rank {
                        out.push(host as usize);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn maintained_norm_sq(&self) -> Option<f64> {
        // A physical sum over hosted blocks would count every logical
        // block r times across the run; the driver aggregates one
        // representative per logical block instead (see its replica view).
        None
    }

    fn undelivered_delta_sq(&self) -> f64 {
        self.blocks
            .iter()
            .map(|hb| hb.solver.undelivered_delta_sq())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecMode, Executor};
    use crate::stats::CostModel;

    /// The ring accumulator from the executor tests, block-id addressed.
    struct Ring {
        id: usize,
        n: usize,
        value: u64,
        received: u64,
    }

    impl RankAlgorithm for Ring {
        type Msg = u64;
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
            for e in inbox {
                self.value += e.payload;
                self.received += 1;
            }
            ctx.put((self.id + 1) % self.n, CommClass::Solve, self.value, 8);
            ctx.record_relaxations(1);
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![(self.id + 1) % self.n]
        }
    }

    fn identity_replicas(n: usize) -> Vec<Vec<u32>> {
        (0..n as u32).map(|b| vec![b]).collect()
    }

    /// Shift-by-one replica sets: block b hosted by ranks b and (b+1) % n.
    fn shifted_replicas(n: usize) -> Vec<Vec<u32>> {
        (0..n as u32).map(|b| vec![b, (b + 1) % n as u32]).collect()
    }

    fn hosts<const R: usize>(n: usize, replicas: &[Vec<u32>]) -> Vec<RedundantHost<Ring>> {
        (0..n)
            .map(|p| {
                let mine: Vec<(usize, Ring)> = (0..n)
                    .filter(|&b| replicas[b].contains(&(p as u32)))
                    .map(|b| {
                        (
                            b,
                            Ring {
                                id: b,
                                n,
                                value: 1,
                                received: 0,
                            },
                        )
                    })
                    .collect();
                assert_eq!(mine.len(), R);
                RedundantHost::new(p, replicas.to_vec(), mine)
            })
            .collect()
    }

    /// r = 1 wrapping is transparent: the inner solvers see exactly the
    /// uncoded run (same values, same per-class counters, no redundancy
    /// traffic, nothing reconciled).
    #[test]
    fn identity_placement_matches_uncoded_run() {
        let n = 6;
        let steps = 8;
        let mut plain = Executor::new(
            (0..n)
                .map(|id| Ring {
                    id,
                    n,
                    value: 1,
                    received: 0,
                })
                .collect::<Vec<_>>(),
            CostModel::default(),
            ExecMode::Sequential,
        );
        let mut coded = Executor::new(
            hosts::<1>(n, &identity_replicas(n)),
            CostModel::default(),
            ExecMode::Sequential,
        );
        for _ in 0..steps {
            plain.step();
            coded.step();
        }
        let pv: Vec<u64> = plain.ranks().iter().map(|r| r.value).collect();
        let cv: Vec<u64> = coded
            .ranks()
            .iter()
            .map(|h| h.solvers().next().unwrap().1.value)
            .collect();
        assert_eq!(pv, cv);
        assert_eq!(
            plain.stats.total_msgs_solve(),
            coded.stats.total_msgs_solve()
        );
        assert_eq!(coded.stats.total_msgs_redundancy(), 0);
        assert!(coded.ranks().iter().all(|h| h.reconciled() == 0));
        // Byte accounting rides through the wrapper unchanged.
        assert_eq!(plain.stats.total_bytes(), coded.stats.total_bytes());
    }

    /// r = 2 on a fault-free lock-step link: replicas of a block stay
    /// bit-identical, every extra copy is reconciled away exactly, and the
    /// overhead lands in the redundancy class.
    #[test]
    fn replicas_stay_identical_and_duplicates_reconcile_under_lockstep() {
        let n = 6;
        let replicas = shifted_replicas(n);
        let mut ex = Executor::new(
            hosts::<2>(n, &replicas),
            CostModel::default(),
            ExecMode::Sequential,
        );
        for _ in 0..8 {
            ex.step();
        }
        for (b, hosts) in replicas.iter().enumerate() {
            let states: Vec<u64> = hosts
                .iter()
                .map(|&h| ex.ranks()[h as usize].solver_for(b).unwrap().value)
                .collect();
            assert!(
                states.windows(2).all(|w| w[0] == w[1]),
                "replicas of block {b} diverged: {states:?}"
            );
        }
        // Each block absorbed each slot exactly once (ring: 1 message per
        // block per step, solver sees it one step later).
        let received: u64 = ex
            .ranks()
            .iter()
            .flat_map(|h| h.solvers().map(|(_, s)| s.received))
            .sum();
        // 2 replicas × n blocks × (steps − 1) absorbed messages.
        assert_eq!(received, 2 * (n as u64) * 7);
        // Every logical message generated one redundancy copy per extra
        // replica; some copies ride free on self-hosted targets.
        assert!(ex.stats.total_msgs_redundancy() > 0);
        let reconciled: u64 = ex.ranks().iter().map(|h| h.reconciled()).sum();
        assert!(
            reconciled > 0,
            "replica fan-out must produce reconciled duplicates"
        );
        // Both replicas of every origin send the same slots, so exactly
        // half of all absorbed-or-reconciled copies are discards.
        assert_eq!(reconciled, received);
    }

    /// The wrapper advertises the physical fan-out topology, so the
    /// bucketed (reverse-neighbor-indexed) close accepts every put.
    #[test]
    fn put_targets_cover_replica_fanout() {
        let n = 5;
        let replicas = shifted_replicas(n);
        let hs = hosts::<2>(n, &replicas);
        // Host 0 runs blocks 0 and 4 (replica of 4). Block 0 targets block
        // 1 (hosts 1, 2); block 4 targets block 0 (hosts 0, 1) — physical
        // targets {1, 2} ∪ {1} minus self.
        let t0 = hs[0].put_targets();
        assert_eq!(t0, vec![1, 2]);
        let mut ex = Executor::new(hs, CostModel::default(), ExecMode::Sequential);
        for _ in 0..4 {
            ex.step();
        }
        assert!(ex.stats.total_msgs() > 0);
    }

    /// Out-of-order copies: the seen-set absorbs delayed slots that arrive
    /// behind newer ones, and discards the late duplicates of already-won
    /// slots — watermark-only reconciliation would wrongly drop the former.
    #[test]
    fn seen_set_absorbs_out_of_order_and_discards_duplicates() {
        let mut s = SeenSet::default();
        assert!(s.absorb(0));
        assert!(s.absorb(2), "a slot ahead of the watermark is fresh");
        assert!(!s.absorb(2), "its second copy is a duplicate");
        assert!(s.absorb(1), "the delayed slot is still fresh");
        assert!(!s.absorb(0));
        assert!(!s.absorb(1));
        assert_eq!(s.next_contig, 3);
        assert!(s.ahead.is_empty(), "watermark collapsed over the run");
        assert!(s.absorb(5));
        assert!(s.absorb(4));
        assert!(s.absorb(3));
        assert_eq!(s.next_contig, 6);
    }
}
