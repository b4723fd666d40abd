//! Message payloads exchanged by the distributed solvers.

/// Inline capacity of a [`SlabVec`]: boundary payloads at paper-scale rank
/// counts (thousands of ranks, a dozen rows per subdomain) are almost
/// always this short, so the common case rides in the message itself.
const INLINE: usize = 8;

/// A small-buffer-optimized f64 payload slab.
///
/// Up to `INLINE` (8) values are stored inline in the message; longer
/// payloads spill to a heap `Vec`. Replaces `Vec<f64>` in [`DistMsg`] so
/// the per-message malloc/free churn on the epoch-close hot path
/// disappears for typical boundary sizes. Derefs to `&[f64]`, so
/// receivers read it exactly like the old `Vec<f64>` fields; modelled
/// wire size stays a pure function of `len()`.
#[derive(Clone)]
pub enum SlabVec {
    /// The short form: `buf[..len]` is the payload.
    Inline {
        /// Number of live values in `buf`.
        len: u8,
        /// Inline storage.
        buf: [f64; INLINE],
    },
    /// The spilled form for payloads longer than `INLINE`.
    Heap(Vec<f64>),
}

impl SlabVec {
    /// An empty payload (no heap allocation).
    #[inline]
    pub fn new() -> Self {
        SlabVec::Inline {
            len: 0,
            buf: [0.0; INLINE],
        }
    }

    /// Copies a slice, staying inline when it fits.
    pub fn from_slice(s: &[f64]) -> Self {
        if s.len() <= INLINE {
            let mut buf = [0.0; INLINE];
            buf[..s.len()].copy_from_slice(s);
            SlabVec::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            SlabVec::Heap(s.to_vec())
        }
    }

    /// The values `src[i]` for `i` in `idx`, in `idx` order: the payload a
    /// rank puts for one neighbor from its rows or ghost slots. A payload
    /// that fits is written straight into the inline buffer.
    #[inline]
    pub(crate) fn gather(idx: &[u32], src: &[f64]) -> Self {
        if idx.len() <= INLINE {
            let mut buf = [0.0; INLINE];
            for (b, &i) in buf.iter_mut().zip(idx) {
                *b = src[i as usize];
            }
            SlabVec::Inline {
                len: idx.len() as u8,
                buf,
            }
        } else {
            SlabVec::Heap(idx.iter().map(|&i| src[i as usize]).collect())
        }
    }
}

impl Default for SlabVec {
    fn default() -> Self {
        SlabVec::new()
    }
}

impl std::ops::Deref for SlabVec {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        match self {
            SlabVec::Inline { len, buf } => &buf[..*len as usize],
            SlabVec::Heap(v) => v,
        }
    }
}

impl std::fmt::Debug for SlabVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<f64>> for SlabVec {
    fn from(v: Vec<f64>) -> Self {
        if v.len() <= INLINE {
            SlabVec::from_slice(&v)
        } else {
            SlabVec::Heap(v)
        }
    }
}

impl<'a> IntoIterator for &'a SlabVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

// Only the tests collect: the reference `SlabVec::gather` is checked against.
#[cfg(test)]
impl FromIterator<f64> for SlabVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut buf = [0.0; INLINE];
        let mut len = 0usize;
        let mut it = iter.into_iter();
        for v in &mut it {
            if len == INLINE {
                // Spill: move the inline prefix to the heap, finish there.
                let mut heap = Vec::with_capacity(INLINE * 2);
                heap.extend_from_slice(&buf);
                heap.push(v);
                heap.extend(it);
                return SlabVec::Heap(heap);
            }
            buf[len] = v;
            len += 1;
        }
        SlabVec::Inline {
            len: len as u8,
            buf,
        }
    }
}

/// What one rank puts into a neighbor's memory window.
///
/// Vectors use the *agreed ordering* of [`super::layout`]: the receiver's
/// boundary rows facing the sender (for `dr`) and the receiver's ghost
/// slots owned by the sender (for `boundary_r`) — both in increasing global
/// order, so no index arrays travel on the wire.
#[derive(Debug, Clone)]
pub enum DistMsg {
    /// Sent by a rank that relaxed its subdomain (Alg. 2 l.10, Alg. 3
    /// l.17; Block Jacobi's Alg. 1 l.8 puts the leaner
    /// [`BjMsg`](super::block_jacobi::BjMsg)).
    Solve {
        /// Additive residual deltas for the receiver's boundary rows.
        dr: SlabVec,
        /// The sender's boundary residuals facing the receiver — the ghost
        /// layer (`z`) overwrite. Empty for methods without ghost layers.
        boundary_r: SlabVec,
        /// Piggybacked ‖r_sender‖² (costs bytes, not an extra message).
        norm_sq: f64,
        /// The sender's current estimate of ‖r_receiver‖² (Distributed
        /// Southwell's `Γ` piggyback; 0 where unused).
        est_of_target_sq: f64,
    },
    /// An explicit residual update ("Res comm" in Table 3): Parallel
    /// Southwell's changed-norm broadcast (Alg. 2 l.20) or Distributed
    /// Southwell's deadlock-avoidance message (Alg. 3 l.29).
    Residual {
        /// The sender's boundary residuals facing the receiver
        /// (empty for Parallel Southwell, which keeps no ghost layer).
        boundary_r: SlabVec,
        /// ‖r_sender‖².
        norm_sq: f64,
        /// The sender's estimate of ‖r_receiver‖².
        est_of_target_sq: f64,
    },
    /// A state snapshot for the periodic invariant audit (recovery traffic —
    /// this reproduction's self-healing extension, not part of the paper's
    /// protocol). Carries everything the receiver needs to *recompute* its
    /// boundary residual rows from scratch instead of trusting the additive
    /// delta history: the sender's current solution and residual values at
    /// the boundary facing the receiver, in the agreed ordering.
    Audit {
        /// The sender's `x` at its boundary rows facing the receiver — the
        /// receiver's ghost solution values for the slots the sender owns.
        boundary_x: SlabVec,
        /// The sender's boundary residuals (ghost-layer `z` resync).
        boundary_r: SlabVec,
        /// ‖r_sender‖².
        norm_sq: f64,
        /// The sender's estimate of ‖r_receiver‖².
        est_of_target_sq: f64,
    },
}

impl DistMsg {
    /// Modelled wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            DistMsg::Solve { dr, boundary_r, .. } => 8 * (dr.len() + boundary_r.len()) as u64 + 16,
            DistMsg::Residual { boundary_r, .. } => 8 * boundary_r.len() as u64 + 16,
            DistMsg::Audit {
                boundary_x,
                boundary_r,
                ..
            } => 8 * (boundary_x.len() + boundary_r.len()) as u64 + 16,
        }
    }
}

/// A [`DistMsg`] wrapped with a per-(sender, receiver) monotone sequence
/// number, so receivers can detect gaps, duplicates, and reordering caused
/// by an unreliable transport (see `dist::seq`).
///
/// `seq == 0` means *unsequenced*: the sender runs with the sequencing
/// layer disabled and the receiver applies the body unconditionally —
/// exactly the paper's protocol, at zero wire overhead. Real sequence
/// numbers start at 1 and cost 8 modelled bytes.
#[derive(Debug, Clone)]
pub struct SeqMsg {
    /// Monotone per-link sequence number (0 = unsequenced).
    pub seq: u64,
    /// The protocol payload.
    pub body: DistMsg,
}

impl SeqMsg {
    /// Modelled wire size: the body plus 8 bytes when sequenced.
    pub fn wire_bytes(&self) -> u64 {
        self.body.wire_bytes() + if self.seq > 0 { 8 } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_vec_is_inline_up_to_capacity_and_spills_beyond() {
        for n in 0..=INLINE + 5 {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 1.5 - 2.0).collect();
            for sv in [
                vals.iter().copied().collect::<SlabVec>(),
                SlabVec::from_slice(&vals),
                SlabVec::from(vals.clone()),
            ] {
                assert_eq!(&*sv, &vals[..], "payload at n = {n}");
                assert_eq!(
                    matches!(sv, SlabVec::Inline { .. }),
                    n <= INLINE,
                    "storage class at n = {n}"
                );
                let cloned = sv.clone();
                assert_eq!(&*cloned, &vals[..], "clone at n = {n}");
            }
        }
        assert!(SlabVec::new().is_empty());
        assert!(SlabVec::default().is_empty());
    }

    /// `gather` builds the same payload as collecting the gathered values:
    /// equal values, storage class and `len()` (what `wire_bytes` and the
    /// report digests read), up to the inline capacity and one past it.
    #[test]
    fn gather_equals_collect_at_the_inline_boundary() {
        let src: Vec<f64> = (0..32).map(|i| i as f64 * 0.25 - 3.0).collect();
        for n in [0, 1, INLINE, INLINE + 1] {
            let idx: Vec<u32> = (0..n as u32).map(|k| (7 * k + 3) % 32).collect();
            let gathered = SlabVec::gather(&idx, &src);
            let collected: SlabVec = idx.iter().map(|&i| src[i as usize]).collect();
            assert_eq!(&*gathered, &*collected, "values at n = {n}");
            assert_eq!(gathered.len(), collected.len(), "len at n = {n}");
            assert_eq!(gathered.len(), n);
            assert_eq!(
                matches!(gathered, SlabVec::Inline { .. }),
                matches!(collected, SlabVec::Inline { .. }),
                "storage class at n = {n}"
            );
            assert_eq!(matches!(gathered, SlabVec::Heap(_)), n > INLINE);
        }
    }

    #[test]
    fn wire_bytes_counts_payload() {
        let m = DistMsg::Solve {
            dr: vec![1.0; 3].into(),
            boundary_r: vec![2.0; 2].into(),
            norm_sq: 1.0,
            est_of_target_sq: 0.5,
        };
        assert_eq!(m.wire_bytes(), 8 * 5 + 16);
        let r = DistMsg::Residual {
            boundary_r: SlabVec::new(),
            norm_sq: 1.0,
            est_of_target_sq: 0.0,
        };
        assert_eq!(r.wire_bytes(), 16);
        let a = DistMsg::Audit {
            boundary_x: vec![0.0; 4].into(),
            boundary_r: vec![0.0; 4].into(),
            norm_sq: 1.0,
            est_of_target_sq: 0.5,
        };
        assert_eq!(a.wire_bytes(), 8 * 8 + 16);
    }

    #[test]
    fn seq_wrapper_costs_bytes_only_when_sequenced() {
        let body = DistMsg::Residual {
            boundary_r: SlabVec::new(),
            norm_sq: 1.0,
            est_of_target_sq: 0.0,
        };
        let unsequenced = SeqMsg {
            seq: 0,
            body: body.clone(),
        };
        assert_eq!(unsequenced.wire_bytes(), 16);
        assert_eq!(SeqMsg { seq: 7, body }.wire_bytes(), 24);
    }
}
