//! Collective operations over a [`Comm`].
//!
//! Every collective the MPI patternlets use: barrier, broadcast, scatter
//! (+scatterv), gather, allgather, reduce, allreduce, scan, and alltoall,
//! plus communicator [`Comm::split`].
//!
//! Broadcast, reduce, and barrier exist in two algorithmic flavours,
//! selected per-[`crate::World`] by [`CollectiveAlgo`] and compared by the
//! `ablate_collectives` bench:
//!
//! * **Linear** — the root loops over all peers: `size − 1` messages on
//!   one hot rank; O(P) latency.
//! * **BinomialTree** — the classic hypercube-mask binomial tree:
//!   O(log P) rounds, the load spread across ranks.
//!
//! Collectives must be called by **every** rank of the communicator, in
//! the same order — the usual MPI contract. Reduction operators must be
//! associative and commutative (tree combining reorders operands).

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::comm::Comm;
use crate::envelope::{Source, Tag, TagSel};
use crate::error::{MpcError, Result};

/// Algorithm used by rooted collectives (bcast / reduce / barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveAlgo {
    /// Root communicates with every peer directly.
    Linear,
    /// Binomial-tree (hypercube mask) communication, O(log P) rounds.
    #[default]
    BinomialTree,
}

// Reserved internal tags (user tags are >= 0).
const TAG_BARRIER_IN: Tag = -1;
const TAG_BARRIER_OUT: Tag = -2;
const TAG_BCAST: Tag = -3;
const TAG_SCATTER: Tag = -4;
const TAG_GATHER: Tag = -5;
const TAG_REDUCE: Tag = -6;
const TAG_SCAN: Tag = -7;
const TAG_ALLTOALL: Tag = -8;

impl Comm {
    fn algo(&self) -> CollectiveAlgo {
        self.fabric.algo
    }

    /// Open a trace span for a collective, tagged with this rank's view
    /// of the call. Each rank records its own span, so a timeline shows
    /// who arrived late (skew) and who waited.
    ///
    /// Also the collective chokepoint for the op stream: every public
    /// collective opens exactly one `cspan`, so recording here gives the
    /// analyzer one `Collective` entry per rank per call — the per-rank
    /// sequences the mismatch detector compares.
    fn cspan(&self, name: &'static str) -> pdc_trace::SpanGuard {
        if let Some(rec) = &self.fabric.recorder {
            rec.record(
                self.world_rank(self.rank),
                crate::analysis::OpKind::Collective {
                    op: name,
                    comm: self.comm_id,
                },
            );
        }
        let mut span = pdc_trace::span("mpc", name);
        span.arg("rank", self.rank);
        span.arg("size", self.size());
        span
    }

    /// Typed internal send on a reserved tag.
    fn csend<T: Serialize>(&self, dest: usize, tag: Tag, value: &T) -> Result<()> {
        let bytes = crate::comm::encode(value);
        self.send_bytes_internal(dest, tag, bytes, None).map(|_| ())
    }

    /// Typed internal receive on a reserved tag from a specific rank.
    ///
    /// Bounded by the world's collective timeout (default 30 s,
    /// [`crate::world::DEFAULT_COLLECTIVE_TIMEOUT`]): a mismatched
    /// collective — a peer that never enters the call, or a crashed
    /// rank — surfaces as `MpcError::Timeout` (or `PeerGone`) on the
    /// waiting ranks instead of blocking them forever.
    fn crecv<T: DeserializeOwned>(&self, src: usize, tag: Tag) -> Result<T> {
        let (bytes, _) = self.recv_bytes_internal(
            Source::Rank(src),
            TagSel::Tag(tag),
            Some(self.fabric.collective_timeout),
        )?;
        crate::comm::decode(&bytes)
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Block until every rank of the communicator has entered the
    /// barrier — `MPI_Barrier`.
    pub fn barrier(&self) -> Result<()> {
        let _span = self.cspan("barrier");
        match self.algo() {
            CollectiveAlgo::Linear => {
                if self.rank() == 0 {
                    for r in 1..self.size() {
                        let () = self.crecv(r, TAG_BARRIER_IN)?;
                    }
                    for r in 1..self.size() {
                        self.csend(r, TAG_BARRIER_OUT, &())?;
                    }
                } else {
                    self.csend(0, TAG_BARRIER_IN, &())?;
                    let () = self.crecv(0, TAG_BARRIER_OUT)?;
                }
                Ok(())
            }
            CollectiveAlgo::BinomialTree => {
                // Binomial reduce of () followed by binomial bcast of ().
                let _ = self.reduce_tree(0, (), |a, _b| a, TAG_BARRIER_IN)?;
                self.bcast_tree(0, Some(()), TAG_BARRIER_OUT)?;
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcast `value` from `root` to every rank — mpi4py's
    /// `data = comm.bcast(data, root)`. The root passes `Some(value)`;
    /// every rank (root included) receives the value back.
    pub fn bcast<T>(&self, root: usize, value: Option<T>) -> Result<T>
    where
        T: Serialize + DeserializeOwned + Clone,
    {
        let _span = self.cspan("bcast");
        match self.algo() {
            CollectiveAlgo::Linear => self.bcast_linear(root, value, TAG_BCAST),
            CollectiveAlgo::BinomialTree => self.bcast_tree(root, value, TAG_BCAST),
        }
    }

    fn require_root_value<T>(&self, root: usize, value: Option<T>) -> Result<Option<T>> {
        if root >= self.size() {
            return Err(MpcError::RankOutOfRange {
                rank: root,
                size: self.size(),
            });
        }
        if self.rank() == root && value.is_none() {
            return Err(MpcError::CollectiveMismatch(
                "root must supply Some(value)".into(),
            ));
        }
        Ok(value)
    }

    fn bcast_linear<T>(&self, root: usize, value: Option<T>, tag: Tag) -> Result<T>
    where
        T: Serialize + DeserializeOwned + Clone,
    {
        let value = self.require_root_value(root, value)?;
        if self.rank() == root {
            let v = value.expect("checked above");
            for r in 0..self.size() {
                if r != root {
                    self.csend(r, tag, &v)?;
                }
            }
            Ok(v)
        } else {
            self.crecv(root, tag)
        }
    }

    fn bcast_tree<T>(&self, root: usize, value: Option<T>, tag: Tag) -> Result<T>
    where
        T: Serialize + DeserializeOwned + Clone,
    {
        let value = self.require_root_value(root, value)?;
        let size = self.size();
        let vrank = (self.rank() + size - root) % size;
        let actual = |v: usize| (v + root) % size;

        // Receive phase: wait for the subtree parent (unless we are root).
        let mut received: Option<T> = if vrank == 0 { value } else { None };
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let parent = vrank - mask;
                received = Some(self.crecv(actual(parent), tag)?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below our first set bit.
        let v = received.expect("root had a value or we received one");
        let mut mask = mask >> 1;
        while mask > 0 {
            let child = vrank + mask;
            if child < size {
                self.csend(actual(child), tag, &v)?;
            }
            mask >>= 1;
        }
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Scatter / Gather
    // ------------------------------------------------------------------

    /// Scatter one element per rank from `root` — `comm.scatter(list)`.
    /// The root's vector length must equal the communicator size.
    pub fn scatter<T>(&self, root: usize, values: Option<Vec<T>>) -> Result<T>
    where
        T: Serialize + DeserializeOwned,
    {
        let _span = self.cspan("scatter");
        if self.rank() == root {
            let values = values.ok_or_else(|| {
                MpcError::CollectiveMismatch("root must supply Some(values)".into())
            })?;
            if values.len() != self.size() {
                return Err(MpcError::CollectiveMismatch(format!(
                    "scatter input length {} != communicator size {}",
                    values.len(),
                    self.size()
                )));
            }
            let mut mine = None;
            for (r, v) in values.into_iter().enumerate() {
                if r == root {
                    mine = Some(v);
                } else {
                    self.csend(r, TAG_SCATTER, &v)?;
                }
            }
            Ok(mine.expect("root index within size"))
        } else {
            self.check_root(root)?;
            self.crecv(root, TAG_SCATTER)
        }
    }

    /// Scatter variable-size slices (`MPI_Scatterv`): the root provides
    /// one `Vec<T>` per rank.
    pub fn scatterv<T>(&self, root: usize, values: Option<Vec<Vec<T>>>) -> Result<Vec<T>>
    where
        T: Serialize + DeserializeOwned,
    {
        self.scatter(root, values)
    }

    /// Gather one value per rank at `root` — `comm.gather(obj)`. Returns
    /// `Some(vec)` (in rank order) at the root, `None` elsewhere.
    pub fn gather<T>(&self, root: usize, value: T) -> Result<Option<Vec<T>>>
    where
        T: Serialize + DeserializeOwned,
    {
        let _span = self.cspan("gather");
        self.check_root(root)?;
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (r, slot) in out.iter_mut().enumerate() {
                if r != root {
                    *slot = Some(self.crecv(r, TAG_GATHER)?);
                }
            }
            Ok(Some(out.into_iter().map(|v| v.expect("filled")).collect()))
        } else {
            self.csend(root, TAG_GATHER, &value)?;
            Ok(None)
        }
    }

    /// Gather at every rank — `comm.allgather(obj)`.
    pub fn allgather<T>(&self, value: T) -> Result<Vec<T>>
    where
        T: Serialize + DeserializeOwned + Clone,
    {
        let _span = self.cspan("allgather");
        let gathered = self.gather(0, value)?;
        self.bcast(0, gathered)
    }

    // ------------------------------------------------------------------
    // Reduce / Allreduce / Scan
    // ------------------------------------------------------------------

    /// Reduce all ranks' values to `root` with `op` — `comm.reduce`.
    /// Returns `Some(result)` at the root, `None` elsewhere.
    ///
    /// `op` must be associative and commutative (tree combining reorders
    /// operands, as MPI permits itself to do).
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Result<Option<T>>
    where
        T: Serialize + DeserializeOwned,
        F: Fn(T, T) -> T,
    {
        let _span = self.cspan("reduce");
        self.check_root(root)?;
        match self.algo() {
            CollectiveAlgo::Linear => {
                if self.rank() == root {
                    let mut acc = value;
                    for r in 0..self.size() {
                        if r != root {
                            acc = op(acc, self.crecv(r, TAG_REDUCE)?);
                        }
                    }
                    Ok(Some(acc))
                } else {
                    self.csend(root, TAG_REDUCE, &value)?;
                    Ok(None)
                }
            }
            CollectiveAlgo::BinomialTree => self.reduce_tree(root, value, op, TAG_REDUCE),
        }
    }

    fn reduce_tree<T, F>(&self, root: usize, value: T, op: F, tag: Tag) -> Result<Option<T>>
    where
        T: Serialize + DeserializeOwned,
        F: Fn(T, T) -> T,
    {
        if root >= self.size() {
            return Err(MpcError::RankOutOfRange {
                rank: root,
                size: self.size(),
            });
        }
        let size = self.size();
        let vrank = (self.rank() + size - root) % size;
        let actual = |v: usize| (v + root) % size;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let child = vrank | mask;
                if child < size {
                    let other: T = self.crecv(actual(child), tag)?;
                    acc = op(acc, other);
                }
            } else {
                let parent = vrank & !mask;
                self.csend(actual(parent), tag, &acc)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Reduce with the result delivered to every rank — `comm.allreduce`.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> Result<T>
    where
        T: Serialize + DeserializeOwned + Clone,
        F: Fn(T, T) -> T,
    {
        let _span = self.cspan("allreduce");
        let reduced = self.reduce(0, value, op)?;
        self.bcast(0, reduced)
    }

    /// Inclusive prefix reduction — `MPI_Scan`: rank `r` receives
    /// `op(v₀, …, v_r)`. Linear chain; operands combine in rank order, so
    /// `op` need only be associative.
    pub fn scan<T, F>(&self, value: T, op: F) -> Result<T>
    where
        T: Serialize + DeserializeOwned + Clone,
        F: Fn(T, T) -> T,
    {
        let _span = self.cspan("scan");
        let rank = self.rank();
        let acc = if rank == 0 {
            value
        } else {
            let prefix: T = self.crecv(rank - 1, TAG_SCAN)?;
            op(prefix, value)
        };
        if rank + 1 < self.size() {
            self.csend(rank + 1, TAG_SCAN, &acc)?;
        }
        Ok(acc)
    }

    // ------------------------------------------------------------------
    // All-to-all
    // ------------------------------------------------------------------

    /// Personalized all-to-all exchange — `comm.alltoall`: element `j` of
    /// this rank's input goes to rank `j`; the result's element `i` came
    /// from rank `i`.
    pub fn alltoall<T>(&self, values: Vec<T>) -> Result<Vec<T>>
    where
        T: Serialize + DeserializeOwned,
    {
        let _span = self.cspan("alltoall");
        if values.len() != self.size() {
            return Err(MpcError::CollectiveMismatch(format!(
                "alltoall input length {} != communicator size {}",
                values.len(),
                self.size()
            )));
        }
        let mut mine = None;
        for (dest, v) in values.into_iter().enumerate() {
            if dest == self.rank() {
                mine = Some(v);
            } else {
                self.csend(dest, TAG_ALLTOALL, &v)?;
            }
        }
        let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        let me = self.rank();
        out[me] = mine;
        for (src, slot) in out.iter_mut().enumerate() {
            if src != me {
                *slot = Some(self.crecv(src, TAG_ALLTOALL)?);
            }
        }
        Ok(out.into_iter().map(|v| v.expect("filled")).collect())
    }

    /// Variable-size personalized all-to-all — `MPI_Alltoallv`: element
    /// `j` (a whole `Vec<T>`) of this rank's input goes to rank `j`.
    pub fn alltoallv<T>(&self, values: Vec<Vec<T>>) -> Result<Vec<Vec<T>>>
    where
        T: Serialize + DeserializeOwned,
    {
        self.alltoall(values)
    }

    /// Reduce-scatter with equal blocks — `MPI_Reduce_scatter_block`:
    /// every rank contributes a vector of length `size`; rank `r`
    /// receives the reduction (by `op`) of everyone's element `r`.
    pub fn reduce_scatter_block<T, F>(&self, values: Vec<T>, op: F) -> Result<T>
    where
        T: Serialize + DeserializeOwned,
        F: Fn(T, T) -> T,
    {
        let _span = self.cspan("reduce_scatter");
        if values.len() != self.size() {
            return Err(MpcError::CollectiveMismatch(format!(
                "reduce_scatter input length {} != communicator size {}",
                values.len(),
                self.size()
            )));
        }
        // Transpose via alltoall, then fold locally (rank order, so any
        // associative op works).
        let mine = self.alltoall(values)?;
        let mut it = mine.into_iter();
        let first = it.next().expect("size >= 1");
        Ok(it.fold(first, op))
    }

    // ------------------------------------------------------------------
    // Split
    // ------------------------------------------------------------------

    /// Partition the communicator — `MPI_Comm_split`. Ranks passing the
    /// same `color` form a new communicator; within it they are ordered
    /// by `key` (ties broken by old rank).
    pub fn split(&self, color: i32, key: i32) -> Result<Comm> {
        // 1. Everyone learns everyone's (color, key).
        let table: Vec<(i32, i32)> = self.allgather((color, key))?;

        // 2. Rank 0 allocates a contiguous block of comm ids, one per
        //    distinct color (sorted), and broadcasts the base id.
        let mut colors: Vec<i32> = table.iter().map(|(c, _)| *c).collect();
        colors.sort_unstable();
        colors.dedup();
        let base = if self.rank() == 0 {
            let base = self.fabric.alloc_comm_ids(colors.len() as u64);
            self.bcast(0, Some(base))?
        } else {
            self.bcast::<u64>(0, None)?
        };
        let color_idx = colors
            .iter()
            .position(|&c| c == color)
            .expect("own color present");
        let comm_id = base + color_idx as u64;

        // 3. Build my group: members with my color, sorted by (key, rank).
        let mut members: Vec<(i32, usize)> = table
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == color)
            .map(|(old_rank, (_, k))| (*k, old_rank))
            .collect();
        members.sort_unstable();
        let group: Vec<usize> = members
            .iter()
            .map(|&(_, old_rank)| self.world_rank(old_rank))
            .collect();
        let my_world = self.world_rank(self.rank());
        let rank = group
            .iter()
            .position(|&w| w == my_world)
            .expect("self in own group");

        Ok(Comm {
            fabric: std::sync::Arc::clone(&self.fabric),
            comm_id,
            group: std::sync::Arc::new(group),
            rank,
        })
    }

    fn check_root(&self, root: usize) -> Result<()> {
        if root >= self.size() {
            return Err(MpcError::RankOutOfRange {
                rank: root,
                size: self.size(),
            });
        }
        Ok(())
    }
}
