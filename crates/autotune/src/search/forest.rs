//! Random-forest surrogate search (the ytopt default).
//!
//! The paper (§3.2.3): "autotuner assigns the values in the allowed ranges
//! (using random forests as default)". The strategy:
//!
//! 1. Seed with `n_init` random evaluations.
//! 2. Fit a bagged ensemble of regression trees on (encoded config → objective).
//! 3. Score a candidate pool (random samples + neighbours of the incumbent)
//!    by predicted mean minus an exploration bonus proportional to the
//!    ensemble's disagreement (a cheap UCB), and suggest the best unseen one.
//!
//! # Split search
//!
//! Each tree node draws `ceil(sqrt(d))` features and splits at the
//! candidate threshold with the least summed squared error. The surrogate
//! is refit on every ask, so the search does no per-candidate rescans:
//!
//! - [`Forest::fit`] rank-codes the training matrix once: each column's
//!   sorted distinct values, and each row's rank among them.
//! - At a node, a rank histogram of the drawn feature gives its present
//!   values, the thresholds between them and each threshold's left count,
//!   so thresholds leaving fewer than `MIN_LEAF` rows on a side are dropped
//!   before any float work.
//! - One pass over the node's rows accumulates the left and right sums of
//!   every remaining threshold; a second pass accumulates their squared
//!   errors.
//! - The chosen split partitions the tree's bootstrap index in place, and
//!   one scratch serves every node of every tree in the fit.
//!
//! Every tree is bit-identical to the textbook search (sort the node's
//! values, then scan all rows twice per threshold), which the unit test
//! `rank_coded_fit_matches_the_textbook_search_bit_for_bit` keeps as its
//! oracle. What keeps the bits:
//!
//! - Thresholds are `0.5 * (lo + hi)` over the node's present distinct
//!   values.
//! - A row's side is the textbook `x <= t`, decided once per present value.
//!   For adjacent doubles the midpoint can round onto `hi`, whose rows then
//!   go left too, so a side is not "rank ≤ rank of `lo`".
//! - Every sum starts at +0.0 and adds the same rows in bootstrap order; the
//!   passes only interleave the thresholds' independent sums.
//! - The pick is the first strict minimum in (draw order, ascending
//!   threshold), and the RNG makes the same draws: one bootstrap per tree
//!   and `k` feature draws per splittable node. A feature drawn twice at one
//!   node is scanned once; its second scan would only tie, and ties keep the
//!   first pick.
//!
//! Scoring checks the pool against one hash set of the observed configs and
//! walks each tree level by level over all candidates at once; a leaf is its
//! own child, so no branch depends on a candidate's path, and each
//! candidate's mean and spread sum its tree predictions in tree order.

use super::{SearchAlgorithm, SearchState};
use crate::db::PerfDatabase;
use crate::space::{Config, ParamSpace};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;

/// Depth limit of every tree.
const MAX_DEPTH: usize = 8;
/// Fewest rows a split may leave on either side.
const MIN_LEAF: usize = 2;
/// Thresholds scored together per pass over a node's rows, their sums
/// held in registers.
const LANES: usize = 4;

/// A regression-tree node (stored in a flat arena). A point goes to
/// `child[0]` when `x[feature] <= threshold`, else to `child[1]`; a leaf is
/// its own child on both sides.
#[derive(Debug, Clone)]
struct TreeNode {
    feature: usize,
    threshold: f64,
    child: [usize; 2],
    /// The mean objective of the node's rows: a leaf's prediction.
    value: f64,
}

impl TreeNode {
    fn leaf(slot: usize, value: f64) -> Self {
        TreeNode {
            feature: 0,
            threshold: 0.0,
            child: [slot, slot],
            value,
        }
    }
}

/// One regression tree.
#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<TreeNode>,
    /// Splits on the longest root-to-leaf path.
    depth: usize,
}

/// The training matrix, rank-coded once per fit.
struct RankedColumns {
    /// Per column, its distinct values in ascending order.
    values: Vec<Vec<f64>>,
    /// Per column, each row's index into that column's `values`.
    ranks: Vec<Vec<u32>>,
}

impl RankedColumns {
    fn new(x: &[Vec<f64>]) -> Self {
        let d = x.first().map_or(0, Vec::len);
        let (mut values, mut ranks) = (Vec::with_capacity(d), Vec::with_capacity(d));
        for f in 0..d {
            let mut vals: Vec<f64> = x.iter().map(|row| row[f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            vals.dedup();
            ranks.push(
                x.iter()
                    .map(|row| {
                        let r = vals.partition_point(|&v| v < row[f]);
                        u32::try_from(r).expect("fewer than 2^32 distinct values")
                    })
                    .collect(),
            );
            values.push(vals);
        }
        RankedColumns { values, ranks }
    }
}

/// A node's chosen split.
struct Split {
    feature: usize,
    threshold: f64,
    /// The largest rank of `feature` that goes left at this node.
    last_left: u32,
}

/// Working memory of one fit, reused by every node of every tree.
#[derive(Default)]
struct SplitScratch {
    /// The current tree's bootstrap rows; each node owns a contiguous range.
    idx: Vec<usize>,
    /// Right-hand rows while a split partitions its range stably.
    spill: Vec<usize>,
    /// The node's objectives, in row order.
    ys: Vec<f64>,
    /// The node's ranks of the scanned feature, in row order.
    rk: Vec<u32>,
    /// Rows per rank of the scanned feature.
    counts: Vec<usize>,
    /// The ranks present at the node, ascending.
    present: Vec<u32>,
    /// Features already scanned at the node.
    drawn: Vec<usize>,
    /// Per viable threshold, ascending: the threshold, its largest left
    /// rank, its left count and its squared error.
    thr: Vec<f64>,
    last_left: Vec<u32>,
    lc: Vec<usize>,
    sse: Vec<f64>,
}

impl SplitScratch {
    /// Score every viable threshold of one feature over the node's rows
    /// `idx[lo..hi]` (whose objectives are already in `ys`), leaving them
    /// in `thr`..`sse`.
    fn scan(&mut self, values: &[f64], ranks: &[u32], lo: usize, hi: usize) {
        let n = hi - lo;
        self.rk.clear();
        self.counts.clear();
        self.counts.resize(values.len(), 0);
        for &i in &self.idx[lo..hi] {
            self.rk.push(ranks[i]);
            self.counts[ranks[i] as usize] += 1;
        }
        self.present.clear();
        self.present
            .extend((0..values.len() as u32).filter(|&r| self.counts[r as usize] > 0));

        self.thr.clear();
        self.last_left.clear();
        self.lc.clear();
        self.sse.clear();
        let present = &self.present;
        // `cut` present values satisfy `v <= t`; thresholds ascend, so it
        // only moves forward.
        let (mut cut, mut left) = (0, 0);
        for w in present.windows(2) {
            let t = 0.5 * (values[w[0] as usize] + values[w[1] as usize]);
            while cut < present.len() && values[present[cut] as usize] <= t {
                left += self.counts[present[cut] as usize];
                cut += 1;
            }
            if left < MIN_LEAF || n - left < MIN_LEAF {
                continue;
            }
            self.thr.push(t);
            self.last_left.push(present[cut - 1]);
            self.lc.push(left);
        }
        let v = self.thr.len();
        for c in (0..v).step_by(LANES) {
            let w = (v - c).min(LANES);
            // Spare lanes send every row left; their scores are dropped.
            let mut last_left = [u32::MAX; LANES];
            last_left[..w].copy_from_slice(&self.last_left[c..c + w]);
            // Each sum takes +0.0 from rows of the other side, which leaves
            // it unchanged: it starts at +0.0, so it is never −0.0.
            let (mut ls, mut rs) = ([0.0f64; LANES], [0.0f64; LANES]);
            for (&y, &r) in self.ys.iter().zip(&self.rk) {
                for q in 0..LANES {
                    let left = r <= last_left[q];
                    ls[q] += if left { y } else { 0.0 };
                    rs[q] += if left { 0.0 } else { y };
                }
            }
            let (mut lm, mut rm) = ([0.0f64; LANES], [0.0f64; LANES]);
            for q in 0..w {
                let lc = self.lc[c + q];
                lm[q] = ls[q] / lc as f64;
                rm[q] = rs[q] / (n - lc) as f64;
            }
            // Squares are never −0.0, so this start agrees with `Iterator::sum`.
            let mut sse = [0.0f64; LANES];
            for (&y, &r) in self.ys.iter().zip(&self.rk) {
                for q in 0..LANES {
                    // Both squares, then a select: no branch on the side.
                    let (dl, dr) = (y - lm[q], y - rm[q]);
                    sse[q] += if r <= last_left[q] { dl * dl } else { dr * dr };
                }
            }
            self.sse.extend_from_slice(&sse[..w]);
        }
    }

    /// Stably partition `idx[lo..hi]` into the rows whose `ranks` are at
    /// most `last_left`, then the rest; returns the left count.
    fn partition(&mut self, lo: usize, hi: usize, ranks: &[u32], last_left: u32) -> usize {
        self.spill.clear();
        self.spill.resize(hi - lo, 0);
        // Each row is written to both sides; only its own side's cursor
        // advances, so no branch depends on the side.
        let (mut nl, mut nr) = (0, 0);
        for k in lo..hi {
            let i = self.idx[k];
            let left = usize::from(ranks[i] <= last_left);
            self.idx[lo + nl] = i;
            self.spill[nr] = i;
            nl += left;
            nr += 1 - left;
        }
        self.idx[lo + nl..hi].copy_from_slice(&self.spill[..nr]);
        nl
    }
}

/// Grows one tree over the bootstrap rows in `scratch.idx`.
struct TreeGrower<'a> {
    cols: &'a RankedColumns,
    y: &'a [f64],
    scratch: &'a mut SplitScratch,
    tree: RegTree,
}

impl TreeGrower<'_> {
    /// Grow the subtree over `idx[lo..hi]`, whose root sits `level` splits
    /// below the tree's; returns its root's slot.
    fn build(&mut self, lo: usize, hi: usize, level: usize, rng: &mut SmallRng) -> usize {
        let rows = &self.scratch.idx[lo..hi];
        let mean = rows.iter().map(|&i| self.y[i]).sum::<f64>() / rows.len() as f64;
        let split = if level == MAX_DEPTH || rows.len() < 2 * MIN_LEAF {
            None
        } else {
            self.best_split(lo, hi, rng)
        };
        // Reserve this node's slot before recursing.
        let slot = self.tree.nodes.len();
        self.tree.nodes.push(TreeNode::leaf(slot, mean));
        self.tree.depth = self.tree.depth.max(level);
        let Some(split) = split else {
            return slot;
        };
        let ranks = &self.cols.ranks[split.feature];
        let mid = lo + self.scratch.partition(lo, hi, ranks, split.last_left);
        let left = self.build(lo, mid, level + 1, rng);
        let right = self.build(mid, hi, level + 1, rng);
        let node = &mut self.tree.nodes[slot];
        node.feature = split.feature;
        node.threshold = split.threshold;
        node.child = [left, right];
        slot
    }

    /// The least-error split over a random feature subset of size
    /// `ceil(sqrt(d))`, or `None` when no drawn feature has a viable one.
    fn best_split(&mut self, lo: usize, hi: usize, rng: &mut SmallRng) -> Option<Split> {
        let d = self.cols.values.len();
        let k = ((d as f64).sqrt().ceil() as usize).max(1);
        let s = &mut *self.scratch;
        s.ys.clear();
        s.ys.extend(s.idx[lo..hi].iter().map(|&i| self.y[i]));
        s.drawn.clear();
        let mut best: Option<(Split, f64)> = None;
        for _ in 0..k {
            let f = rng.gen_range(0..d);
            if s.drawn.contains(&f) {
                continue;
            }
            s.drawn.push(f);
            s.scan(&self.cols.values[f], &self.cols.ranks[f], lo, hi);
            let scored = s.thr.iter().zip(&s.last_left).zip(&s.sse);
            for ((&threshold, &last_left), &sse) in scored {
                if best.as_ref().is_none_or(|(_, b)| sse < *b) {
                    let split = Split {
                        feature: f,
                        threshold,
                        last_left,
                    };
                    best = Some((split, sse));
                }
            }
        }
        best.map(|(split, _)| split)
    }
}

impl RegTree {
    /// Grow a tree over the bootstrap rows in `scratch.idx`, which the fit
    /// reorders.
    fn fit(
        cols: &RankedColumns,
        y: &[f64],
        scratch: &mut SplitScratch,
        rng: &mut SmallRng,
    ) -> RegTree {
        let n = scratch.idx.len();
        let mut grower = TreeGrower {
            cols,
            y,
            scratch,
            tree: RegTree {
                nodes: Vec::new(),
                depth: 0,
            },
        };
        grower.build(0, n, 0, rng);
        grower.tree
    }

    /// The node `x` moves to from node `i`.
    fn step(&self, i: usize, x: &[f64]) -> usize {
        let node = &self.nodes[i];
        if x[node.feature] <= node.threshold {
            node.child[0]
        } else {
            node.child[1]
        }
    }
}

/// Bagged regression forest.
#[derive(Debug, Clone)]
struct Forest {
    trees: Vec<RegTree>,
}

impl Forest {
    fn fit(x: &[Vec<f64>], y: &[f64], n_trees: usize, rng: &mut SmallRng) -> Forest {
        let n = x.len();
        let cols = RankedColumns::new(x);
        let mut scratch = SplitScratch::default();
        let trees = (0..n_trees)
            .map(|_| {
                // Bootstrap sample.
                scratch.idx.clear();
                scratch.idx.extend((0..n).map(|_| rng.gen_range(0..n)));
                RegTree::fit(&cols, y, &mut scratch, rng)
            })
            .collect();
        Forest { trees }
    }

    /// Mean and standard deviation of the tree predictions at each point of
    /// `xs` (`d` coordinates per point).
    fn predict(&self, xs: &[f64], d: usize) -> Vec<(f64, f64)> {
        let t = self.trees.len();
        let mut at = vec![0; xs.len() / d];
        let mut preds = vec![0.0; at.len() * t];
        for (i, tree) in self.trees.iter().enumerate() {
            // Every point descends from the root (slot 0) one level at a
            // time, so the points' independent loads overlap. Leaves are
            // their own children: after `depth` steps each point is at its
            // leaf, and no branch depends on the path.
            at.fill(0);
            for _ in 0..tree.depth {
                for (a, x) in at.iter_mut().zip(xs.chunks_exact(d)) {
                    *a = tree.step(*a, x);
                }
            }
            for (p, &a) in preds.iter_mut().skip(i).step_by(t).zip(&at) {
                *p = tree.nodes[a].value;
            }
        }
        preds
            .chunks_exact(t)
            .map(|p| {
                let mean = p.iter().sum::<f64>() / t as f64;
                let var = p.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / t as f64;
                (mean, var.sqrt())
            })
            .collect()
    }
}

/// The ytopt-style surrogate search.
#[derive(Debug)]
pub struct ForestSearch {
    /// Random evaluations before the surrogate activates.
    n_init: usize,
    /// Trees in the ensemble.
    n_trees: usize,
    /// Candidate pool size per suggestion.
    n_candidates: usize,
    /// Exploration weight on ensemble disagreement (UCB-style).
    kappa: f64,
}

impl ForestSearch {
    /// ytopt-like defaults: 8 random seeds, 24 trees, 256 candidates, κ = 1.
    pub fn new() -> Self {
        ForestSearch {
            n_init: 8,
            n_trees: 24,
            n_candidates: 256,
            kappa: 1.0,
        }
    }

    /// Override the random-seeding budget.
    pub fn with_init(mut self, n_init: usize) -> Self {
        self.n_init = n_init.max(2);
        self
    }

    /// Fit the surrogate on everything observed.
    fn fit_surrogate(&self, space: &ParamSpace, db: &PerfDatabase, rng: &mut SmallRng) -> Forest {
        let x: Vec<Vec<f64>> = db
            .observations()
            .iter()
            .map(|o| space.encode(&o.config))
            .collect();
        let y: Vec<f64> = db.observations().iter().map(|o| o.objective).collect();
        Forest::fit(&x, &y, self.n_trees, rng)
    }

    /// Candidate pool: random samples + neighbours of the incumbent.
    fn candidate_pool(
        &self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
    ) -> Vec<Config> {
        let mut pool: Vec<Config> = (0..self.n_candidates).map(|_| space.sample(rng)).collect();
        if let Some(best) = db.best() {
            pool.extend(space.neighbors(&best.config));
        }
        pool
    }
}

impl Default for ForestSearch {
    fn default() -> Self {
        Self::new()
    }
}

/// Stateless for checkpointing: the surrogate is refit from the database
/// on every call, so the session snapshot's database and RNG state fully
/// determine the next suggestion.
impl SearchState for ForestSearch {}

impl SearchAlgorithm for ForestSearch {
    fn name(&self) -> &str {
        "random-forest"
    }

    /// The batch-of-one case of [`suggest_batch`](Self::suggest_batch).
    fn suggest(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
    ) -> Option<Config> {
        self.suggest_batch(space, db, rng, 1).pop()
    }

    /// Batch acquisition: fit the surrogate once, rank the whole candidate
    /// pool by acquisition score, and take the top `k` distinct unseen
    /// configurations — the ask-tell analogue of one serial suggestion, at
    /// one fit per batch instead of one fit per evaluation.
    ///
    /// During the initial design (`db` smaller than `n_init`) the batch is
    /// filled with batch-aware random draws, so the initial design rounds up
    /// to the batch boundary. When the ranked pool holds fewer than `k`
    /// fresh candidates the remaining slots fall back to random draws, which
    /// may repeat — the tuner counts those toward its duplicate early exit.
    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
        k: usize,
    ) -> Vec<Config> {
        let mut batch: Vec<Config> = Vec::with_capacity(k);
        if db.len() < self.n_init {
            for _ in 0..k {
                let mut accepted = None;
                for _ in 0..32 {
                    let c = space.sample(rng);
                    if !db.contains(&c) && !batch.contains(&c) {
                        accepted = Some(c);
                        break;
                    }
                }
                batch.push(accepted.unwrap_or_else(|| space.sample(rng)));
            }
            return batch;
        }
        let forest = self.fit_surrogate(space, db, rng);
        let pool = self.candidate_pool(space, db, rng);
        let seen: HashSet<&Config> = db.observations().iter().map(|o| &o.config).collect();
        let fresh: Vec<Config> = pool.into_iter().filter(|c| !seen.contains(c)).collect();
        let mut xs = Vec::with_capacity(fresh.len() * space.dims());
        for cand in &fresh {
            space.encode_into(cand, &mut xs);
        }
        let mut scored: Vec<(f64, Config)> = forest
            .predict(&xs, space.dims())
            .into_iter()
            .zip(fresh)
            .map(|((mean, std), cand)| (mean - self.kappa * std, cand))
            .collect();
        // Stable sort keeps pool order on ties: the earliest best candidate
        // heads the batch.
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite score"));
        for (_, cand) in scored {
            if batch.len() == k {
                break;
            }
            if !batch.contains(&cand) {
                batch.push(cand);
            }
        }
        while batch.len() < k {
            batch.push(space.sample(rng));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// A separable quadratic bowl over a 5-D lattice (minimum at center).
    fn bowl(c: &Config) -> f64 {
        c.iter().map(|&v| (v as f64 - 4.0).powi(2)).sum()
    }

    fn space5d() -> ParamSpace {
        let mut s = ParamSpace::new();
        for name in ["a", "b", "c", "d", "e"] {
            s = s.with(Param::ints(name, 0..9));
        }
        s
    }

    fn run(alg: &mut dyn SearchAlgorithm, s: &ParamSpace, evals: usize, seed: u64) -> PerfDatabase {
        let mut db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..evals {
            let c = alg.suggest(s, &db, &mut rng).unwrap();
            let o = bowl(&c);
            db.record(c, o, HashMap::new());
        }
        db
    }

    /// The textbook split search the rank-coded fit replaces, kept as its
    /// bit-exactness oracle: per drawn feature, sort the node's values, then
    /// scan every row twice per candidate threshold.
    fn reference_build(
        nodes: &mut Vec<TreeNode>,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        min_leaf: usize,
        rng: &mut SmallRng,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        if depth == 0 || idx.len() < 2 * min_leaf {
            nodes.push(TreeNode::leaf(nodes.len(), mean));
            return nodes.len() - 1;
        }
        let d = x[0].len();
        // Random feature subset of size ~sqrt(d), at least 1.
        let k = ((d as f64).sqrt().ceil() as usize).max(1);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for _ in 0..k {
            let f = rng.gen_range(0..d);
            // Candidate thresholds: midpoints of sorted unique feature values.
            let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            vals.dedup();
            for w in vals.windows(2) {
                let t = 0.5 * (w[0] + w[1]);
                let (mut ls, mut lc, mut rs, mut rc) = (0.0, 0usize, 0.0, 0usize);
                for &i in idx {
                    if x[i][f] <= t {
                        ls += y[i];
                        lc += 1;
                    } else {
                        rs += y[i];
                        rc += 1;
                    }
                }
                if lc < min_leaf || rc < min_leaf {
                    continue;
                }
                let (lm, rm) = (ls / lc as f64, rs / rc as f64);
                let sse: f64 = idx
                    .iter()
                    .map(|&i| {
                        let m = if x[i][f] <= t { lm } else { rm };
                        (y[i] - m) * (y[i] - m)
                    })
                    .sum();
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((f, t, sse));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            nodes.push(TreeNode::leaf(nodes.len(), mean));
            return nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        // Reserve this node's slot before recursing.
        let slot = nodes.len();
        nodes.push(TreeNode::leaf(slot, mean));
        let left = reference_build(nodes, x, y, &li, depth - 1, min_leaf, rng);
        let right = reference_build(nodes, x, y, &ri, depth - 1, min_leaf, rng);
        nodes[slot] = TreeNode {
            feature,
            threshold,
            child: [left, right],
            value: mean,
        };
        slot
    }

    /// [`Forest::fit`] over the textbook search (same bootstraps, same
    /// draws): each tree's nodes.
    fn reference_fit(
        x: &[Vec<f64>],
        y: &[f64],
        n_trees: usize,
        rng: &mut SmallRng,
    ) -> Vec<Vec<TreeNode>> {
        let n = x.len();
        (0..n_trees)
            .map(|_| {
                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let mut nodes = Vec::new();
                reference_build(&mut nodes, x, y, &idx, MAX_DEPTH, MIN_LEAF, rng);
                nodes
            })
            .collect()
    }

    /// A node as exact bits: feature, threshold, children, value.
    fn node_bits(node: &TreeNode) -> (usize, u64, [usize; 2], u64) {
        let bits = (node.threshold.to_bits(), node.value.to_bits());
        (node.feature, bits.0, node.child, bits.1)
    }

    /// Fit both ways from one RNG state; every node and the RNG state after
    /// the fit must agree exactly.
    fn assert_fits_agree(x: &[Vec<f64>], y: &[f64], seed: u64, what: &str) {
        const TREES: usize = 3;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rng_ref = rng.clone();
        let fast = Forest::fit(x, y, TREES, &mut rng);
        let slow = reference_fit(x, y, TREES, &mut rng_ref);
        assert_eq!(
            rng.state(),
            rng_ref.state(),
            "{what}: RNG state after the fit"
        );
        assert_eq!(fast.trees.len(), slow.len(), "{what}: trees");
        for (t, (a, b)) in fast.trees.iter().zip(&slow).enumerate() {
            let (a, b): (Vec<_>, Vec<_>) = (
                a.nodes.iter().map(node_bits).collect(),
                b.iter().map(node_bits).collect(),
            );
            assert_eq!(a, b, "{what}: tree {t}");
        }
    }

    /// `n` rows over a lattice with `counts[f]` values in column `f`, each
    /// encoded as `ParamSpace::encode` does. Rows repeat once the draw
    /// revisits a point, which small lattices force.
    fn lattice_rows(counts: &[usize], n: usize, rng: &mut SmallRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                counts
                    .iter()
                    .map(|&c| match c {
                        1 => 0.0,
                        _ => rng.gen_range(0..c) as f64 / (c - 1) as f64,
                    })
                    .collect()
            })
            .collect()
    }

    /// Objectives over `x`: a smooth trend plus noise, then shaped by `kind`
    /// (coarse rounding makes ties, a large offset or a sign flip stresses
    /// the sums).
    fn objectives(x: &[Vec<f64>], kind: usize, rng: &mut SmallRng) -> Vec<f64> {
        x.iter()
            .map(|row| {
                let trend: f64 = row
                    .iter()
                    .enumerate()
                    .map(|(f, v)| (f + 1) as f64 * v * v)
                    .sum();
                let base = trend + rng.gen_range(0.0..0.5);
                match kind {
                    0 => base,
                    1 => (base * 2.0).round() / 2.0,
                    2 => 1e9 + base * 1e3,
                    _ => (base - 2.0) * 1e4,
                }
            })
            .collect()
    }

    #[test]
    fn rank_coded_fit_matches_the_textbook_search_bit_for_bit() {
        const KERNEL: [usize; 8] = [6, 6, 6, 6, 4, 2, 6, 3];
        const HYPRE: [usize; 7] = [3, 4, 3, 3, 3, 3, 4];
        // The third column has a constant value.
        const WITH_CONSTANT: [usize; 4] = [5, 3, 1, 4];
        for seed in 0..100u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x00f0_0e57);
            // Sizes sweep 2..=130 across seeds.
            let n = 2 + (seed as usize * 37) % 129;
            let small = 2 + (seed as usize * 7) % 19;
            for (shape, counts) in [&KERNEL[..], &HYPRE, &WITH_CONSTANT]
                .into_iter()
                .enumerate()
            {
                for rows in [n, small] {
                    let x = lattice_rows(counts, rows, &mut rng);
                    let y = objectives(&x, (seed as usize + shape) % 4, &mut rng);
                    assert_fits_agree(
                        &x,
                        &y,
                        seed,
                        &format!("shape {shape}, {rows} rows, seed {seed}"),
                    );
                }
            }
            // 1-D continuous data: every row its own value, many thresholds.
            let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen_range(-1.0..1.0)]).collect();
            let y = objectives(&x, seed as usize % 4, &mut rng);
            assert_fits_agree(&x, &y, seed, &format!("1-D, {n} rows, seed {seed}"));
            // Adjacent doubles: the midpoint of 1 - 2^-53 and 1.0 rounds
            // onto 1.0, so rows at 1.0 go left of that threshold.
            let near = [0.999_999_999_999_999_9, 1.0, 2.0];
            let x: Vec<Vec<f64>> = (0..small.max(6))
                .map(|_| vec![near[rng.gen_range(0..3)], rng.gen_range(0..3) as f64])
                .collect();
            let y = objectives(&x, seed as usize % 4, &mut rng);
            assert_fits_agree(&x, &y, seed, &format!("adjacent doubles, seed {seed}"));
        }
        assert_eq!(0.5 * (0.999_999_999_999_999_9 + 1.0), 1.0);
    }

    #[test]
    fn forest_beats_random_on_structured_landscape() {
        let s = space5d();
        let budget = 70;
        let mut wins = 0;
        for seed in 0..5 {
            let f = run(&mut ForestSearch::new(), &s, budget, seed);
            let r = run(
                &mut super::super::RandomSearch::new(),
                &s,
                budget,
                seed + 100,
            );
            if f.best().unwrap().objective <= r.best().unwrap().objective {
                wins += 1;
            }
        }
        assert!(wins >= 4, "forest won only {wins}/5 seeds");
    }

    #[test]
    fn forest_converges_near_optimum() {
        let s = space5d();
        let db = run(&mut ForestSearch::new(), &s, 80, 9);
        assert!(
            db.best().unwrap().objective <= 4.0,
            "best {:?}",
            db.best().unwrap()
        );
    }

    #[test]
    fn tree_fits_training_data_roughly() {
        let mut rng = SmallRng::seed_from_u64(5);
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| if v[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        let mut scratch = SplitScratch {
            idx: (0..50).collect(),
            ..SplitScratch::default()
        };
        let tree = RegTree::fit(&RankedColumns::new(&x), &y, &mut scratch, &mut rng);
        let forest = Forest { trees: vec![tree] };
        let at = forest.predict(&[0.1, 0.9], 1);
        assert!((at[0].0 - 1.0).abs() < 0.5);
        assert!((at[1].0 - 5.0).abs() < 0.5);
    }

    #[test]
    fn forest_prediction_uncertainty_nonnegative() {
        let mut rng = SmallRng::seed_from_u64(6);
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 10) as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * 3.0).collect();
        let forest = Forest::fit(&x, &y, 16, &mut rng);
        let (mean, std) = forest.predict(&[0.5], 1)[0];
        assert!(std >= 0.0);
        assert!((0.0..=3.0).contains(&mean));
    }

    #[test]
    fn batch_is_distinct_ranked_and_headed_by_the_serial_pick() {
        let s = space5d();
        let db = run(&mut ForestSearch::new(), &s, 20, 3);
        let rng0 = SmallRng::seed_from_u64(77);
        let mut alg = ForestSearch::new();
        let batch = alg.suggest_batch(&s, &db, &mut rng0.clone(), 6);
        assert_eq!(batch.len(), 6);
        let mut uniq = batch.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 6, "top-k picks are distinct");
        for c in &batch {
            assert!(s.is_valid(c));
            assert!(!db.contains(c), "top-k picks are unseen");
        }
        // Surrogate fit and pool draw consume the same RNG stream, so the
        // batch head is exactly the configuration the serial path suggests.
        let serial = alg.suggest(&s, &db, &mut rng0.clone()).unwrap();
        assert_eq!(batch[0], serial);
    }

    #[test]
    fn batch_during_init_is_random_and_duplicate_free() {
        let s = space5d();
        let db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let batch = ForestSearch::new().suggest_batch(&s, &db, &mut rng, 8);
        assert_eq!(batch.len(), 8);
        let mut uniq = batch.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
    }

    #[test]
    fn respects_constraints() {
        let s = ParamSpace::new()
            .with(Param::ints("x", 0..6))
            .with(Param::ints("y", 0..6))
            .with_constraint("sum<8", |_, c| c[0] + c[1] < 8);
        let mut db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut alg = ForestSearch::new().with_init(4);
        for _ in 0..30 {
            let c = alg.suggest(&s, &db, &mut rng).unwrap();
            assert!(s.is_valid(&c));
            let o = bowl(&c);
            db.record(c, o, HashMap::new());
        }
    }
}
