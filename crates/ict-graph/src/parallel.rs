//! Parallel all-simple-paths enumeration.
//!
//! The venue of the paper (IPPS) is a parallel-processing symposium and the
//! path discovery is the only super-polynomial step of the methodology
//! (Sec. V-D: `O(n!)` on complete graphs). This module parallelizes it with
//! a two-phase scheme:
//!
//! 1. **Prefix expansion** (sequential): a bounded BFS expands partial paths
//!    from the source until at least `tasks_per_thread × threads` open
//!    prefixes exist (completed paths encountered on the way are collected
//!    directly).
//! 2. **Fan-out** (parallel): the open prefixes are distributed over a
//!    crossbeam scope; every worker completes its prefixes with the one DFS
//!    of [`crate::paths`], seeded from each prefix.
//!
//! The result is the *same multiset of paths* as the sequential enumeration,
//! sorted: lexicographically by node sequence, then edge sequence. The
//! sequential DFS lists them in DFS order instead.
//!
//! `limits.max_paths` bounds **work**, not just output: all workers share an
//! atomic emitted-path counter, and a worker stops at its next emitted path
//! once the counter reaches the cap, so a capped run on a dense graph visits
//! a small fraction of the frames an uncapped run would (see
//! [`parallel_simple_paths_counted`], which reports the frame count).
//! *Which* `min(cap, total)` paths survive is scheduling-dependent — the
//! output is still sorted, but it is not necessarily a prefix of the full
//! sorted enumeration.
//!
//! Nothing on the serving path calls this module: the server runs the
//! sequential DFS on each worker. Its callers are `upsim paths --parallel`
//! and the parallel-discovery experiments.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::{
    extend_simple_paths, DiscoveryScratch, EnumerationStats, Path, PathLimits, Walk,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tuning options for [`parallel_simple_paths`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Number of worker threads (0 = available parallelism).
    pub threads: usize,
    /// Desired open prefixes per worker before fanning out.
    pub tasks_per_thread: usize,
    /// Per-path limits. `max_paths` is enforced *during* the search via a
    /// shared atomic counter (early stop), not by post-merge truncation.
    pub limits: PathLimits,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 0,
            tasks_per_thread: 16,
            limits: PathLimits::unlimited(),
        }
    }
}

fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A partial path under expansion.
#[derive(Debug, Clone)]
struct Prefix {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

/// Enumerates all simple paths from `source` to `target` in parallel.
///
/// Returns the paths sorted lexicographically (by node sequence, then edge
/// sequence). Without `max_paths` the output is deterministic regardless of
/// scheduling; with a cap, the *count* (`min(cap, total)`) is deterministic
/// but which paths survive depends on worker scheduling.
pub fn parallel_simple_paths<N: Sync, E: Sync>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    options: ParallelOptions,
) -> Vec<Path> {
    parallel_simple_paths_counted(graph, source, target, options).0
}

/// [`parallel_simple_paths`] plus [`EnumerationStats`]: total DFS frames
/// pushed across phase 1 and all workers (the work bounded by `max_paths`)
/// and the number of returned paths.
pub fn parallel_simple_paths_counted<N: Sync, E: Sync>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    options: ParallelOptions,
) -> (Vec<Path>, EnumerationStats) {
    parallel_simple_paths_pruned(graph, source, target, options, None)
}

/// The full-featured parallel enumerator: like
/// [`parallel_simple_paths_counted`] but with an optional node `mask`
/// restricting the search (same semantics as
/// [`crate::paths::for_each_simple_path`]: a `false` entry behaves like a
/// removed node). [`crate::prune::BlockCutTree::relevant_nodes`] masks are
/// path-multiset-preserving, so a pruned parallel run returns the same
/// sorted output as an unpruned one.
pub fn parallel_simple_paths_pruned<N: Sync, E: Sync>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    options: ParallelOptions,
    mask: Option<&[bool]>,
) -> (Vec<Path>, EnumerationStats) {
    let mut stats = EnumerationStats::default();
    let allowed = |n: NodeId| mask.is_none_or(|m| m.get(n.index()).copied().unwrap_or(false));
    if !graph.contains_node(source)
        || !graph.contains_node(target)
        || !allowed(source)
        || !allowed(target)
    {
        return (Vec::new(), stats);
    }
    let cap = options.limits.max_paths.unwrap_or(usize::MAX);
    if cap == 0 {
        return (Vec::new(), stats);
    }
    if source == target {
        stats.emitted = 1;
        return (
            vec![Path {
                nodes: vec![source],
                edges: vec![],
            }],
            stats,
        );
    }
    let threads = effective_threads(options.threads);
    let want_tasks = threads.saturating_mul(options.tasks_per_thread).max(1);

    // Phase 1: BFS prefix expansion, stopping as soon as the cap is
    // already satisfied by directly-collected complete paths.
    let mut complete: Vec<Path> = Vec::new();
    let mut open: VecDeque<Prefix> = VecDeque::new();
    open.push_back(Prefix {
        nodes: vec![source],
        edges: vec![],
    });
    stats.frames += 1;
    while open.len() < want_tasks && complete.len() < cap {
        let Some(prefix) = open.pop_front() else {
            break;
        };
        let head = *prefix.nodes.last().expect("non-empty prefix");
        for adj in graph.neighbors(head) {
            if adj.node == target {
                if options
                    .limits
                    .max_nodes
                    .is_none_or(|cap| prefix.nodes.len() < cap)
                {
                    let mut nodes = prefix.nodes.clone();
                    nodes.push(target);
                    let mut edges = prefix.edges.clone();
                    edges.push(adj.edge);
                    complete.push(Path { nodes, edges });
                }
                continue;
            }
            if prefix.nodes.contains(&adj.node) || !allowed(adj.node) {
                continue;
            }
            if options
                .limits
                .max_nodes
                .is_some_and(|cap| prefix.nodes.len() + 2 > cap)
            {
                continue;
            }
            let mut nodes = prefix.nodes.clone();
            nodes.push(adj.node);
            let mut edges = prefix.edges.clone();
            edges.push(adj.edge);
            open.push_back(Prefix { nodes, edges });
            stats.frames += 1;
        }
        if open.is_empty() {
            break;
        }
    }

    // Phase 2: parallel completion of the open prefixes. Each worker sorts
    // its own output so the (serial) final step is only a k-way merge —
    // a global sort would otherwise dominate and erase the speedup. The
    // shared `emitted` counter is seeded with the phase-1 completions; a
    // worker stops at its next emitted path once the counter reaches the
    // cap, so the cap bounds work, not just output size.
    complete.sort();
    let emitted = AtomicUsize::new(complete.len());
    let prefixes: Vec<Prefix> = if complete.len() >= cap {
        Vec::new() // the cap is already met; skip the fan-out entirely
    } else {
        open.into()
    };
    let mut sorted_chunks: Vec<Vec<Path>> = vec![complete];
    if !prefixes.is_empty() {
        let chunk = prefixes.len().div_ceil(threads);
        let emitted = &emitted;
        let results = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for batch in prefixes.chunks(chunk) {
                handles.push(scope.spawn(move |_| {
                    let mut scratch = DiscoveryScratch::new();
                    let mut local = Vec::new();
                    let mut frames = 0usize;
                    for p in batch {
                        if emitted.load(Ordering::Relaxed) >= cap {
                            break;
                        }
                        frames += extend_simple_paths(
                            graph,
                            &p.nodes,
                            &p.edges,
                            target,
                            Walk::bounded(options.limits.max_nodes),
                            mask,
                            &mut scratch,
                            |nodes, edges| {
                                local.push(Path {
                                    nodes: nodes.to_vec(),
                                    edges: edges.to_vec(),
                                });
                                if emitted.fetch_add(1, Ordering::Relaxed) + 1 >= cap {
                                    ControlFlow::Break(())
                                } else {
                                    ControlFlow::Continue(())
                                }
                            },
                        );
                    }
                    local.sort();
                    (local, frames)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<(Vec<Path>, usize)>>()
        })
        .expect("crossbeam scope");
        for (local, frames) in results {
            stats.frames += frames;
            sorted_chunks.push(local);
        }
    }

    let mut merged = merge_sorted(sorted_chunks);
    // Prefixes are pairwise distinct, so paths from different chunks can
    // never coincide — no dedup needed. Workers may overshoot the cap by
    // the paths they emitted before observing the counter; trim the excess.
    merged.truncate(cap.min(merged.len()));
    stats.emitted = merged.len();
    (merged, stats)
}

/// K-way merge of individually sorted path lists.
fn merge_sorted(mut chunks: Vec<Vec<Path>>) -> Vec<Path> {
    chunks.retain(|c| !c.is_empty());
    match chunks.len() {
        0 => return Vec::new(),
        1 => return chunks.pop().expect("len checked"),
        _ => {}
    }
    let total: usize = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Cursor per chunk; a linear scan over ≤ threads+1 heads is cheaper
    // than a heap for realistic worker counts. Paths are *moved* out of
    // their chunks (taking a drained path is O(1) via the cursor), never
    // cloned — cloning 10⁵ paths would serialize the run again.
    let mut cursors = vec![0usize; chunks.len()];
    for _ in 0..total {
        let mut best = usize::MAX;
        for (i, chunk) in chunks.iter().enumerate() {
            if cursors[i] < chunk.len()
                && (best == usize::MAX || chunk[cursors[i]] < chunks[best][cursors[best]])
            {
                best = i;
            }
        }
        let taken = std::mem::replace(
            &mut chunks[best][cursors[best]],
            Path {
                nodes: Vec::new(),
                edges: Vec::new(),
            },
        );
        out.push(taken);
        cursors[best] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::all_simple_paths;

    fn complete_graph(n: usize) -> (Graph<usize, ()>, Vec<NodeId>) {
        let mut g = Graph::new_undirected();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(ids[i], ids[j], ());
            }
        }
        (g, ids)
    }

    fn assert_matches_sequential(g: &Graph<usize, ()>, s: NodeId, t: NodeId) {
        let mut seq = all_simple_paths(g, s, t);
        seq.sort();
        for threads in [1, 2, 4] {
            let par = parallel_simple_paths(
                g,
                s,
                t,
                ParallelOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_on_complete_graphs() {
        for n in 2..=7 {
            let (g, ids) = complete_graph(n);
            assert_matches_sequential(&g, ids[0], ids[n - 1]);
        }
    }

    #[test]
    fn matches_sequential_on_ring() {
        let mut g: Graph<usize, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..8).map(|i| g.add_node(i)).collect();
        for i in 0..8 {
            g.add_edge(ids[i], ids[(i + 1) % 8], ());
        }
        assert_matches_sequential(&g, ids[0], ids[4]);
    }

    #[test]
    fn trivial_and_unreachable_cases() {
        let (g, ids) = complete_graph(3);
        let same = parallel_simple_paths(&g, ids[0], ids[0], ParallelOptions::default());
        assert_eq!(same.len(), 1);
        assert!(same[0].is_empty());

        let mut g2: Graph<usize, ()> = Graph::new_undirected();
        let a = g2.add_node(0);
        let b = g2.add_node(1);
        assert!(parallel_simple_paths(&g2, a, b, ParallelOptions::default()).is_empty());
    }

    #[test]
    fn max_paths_caps_count_with_valid_member_paths() {
        let (g, ids) = complete_graph(6);
        let limits = PathLimits::unlimited().with_max_paths(5);
        let par = parallel_simple_paths(
            &g,
            ids[0],
            ids[5],
            ParallelOptions {
                limits,
                ..Default::default()
            },
        );
        // Early stopping makes *which* 5 paths survive scheduling-dependent,
        // so assert cap semantics: exactly 5 sorted, distinct, genuine paths.
        assert_eq!(par.len(), 5);
        assert!(par.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        let full: std::collections::HashSet<_> =
            all_simple_paths(&g, ids[0], ids[5]).into_iter().collect();
        for p in &par {
            assert!(p.validate(&g));
            assert!(full.contains(p), "capped output invented a path: {p:?}");
        }
        // A cap at/above the total must not lose anything.
        let loose = parallel_simple_paths(
            &g,
            ids[0],
            ids[5],
            ParallelOptions {
                limits: PathLimits::unlimited().with_max_paths(full.len() + 10),
                ..Default::default()
            },
        );
        assert_eq!(loose.len(), full.len());
    }

    #[test]
    fn max_paths_zero_short_circuits() {
        let (g, ids) = complete_graph(4);
        let (paths, stats) = parallel_simple_paths_counted(
            &g,
            ids[0],
            ids[3],
            ParallelOptions {
                limits: PathLimits::unlimited().with_max_paths(0),
                ..Default::default()
            },
        );
        assert!(paths.is_empty());
        assert_eq!(stats.frames, 0);
    }

    #[test]
    fn capped_run_visits_far_fewer_frames_than_uncapped() {
        // Dense graph: K9 has tens of thousands of simple paths between two
        // vertices; a cap of 5 must stop the workers almost immediately.
        let (g, ids) = complete_graph(9);
        let base = ParallelOptions {
            threads: 2,
            ..Default::default()
        };
        let (all, uncapped) = parallel_simple_paths_counted(&g, ids[0], ids[8], base);
        // Cap large enough that phase 1 cannot satisfy it alone — the early
        // stop must happen inside the fanned-out workers.
        let (some, capped) = parallel_simple_paths_counted(
            &g,
            ids[0],
            ids[8],
            ParallelOptions {
                limits: PathLimits::unlimited().with_max_paths(200),
                ..base
            },
        );
        assert_eq!(some.len(), 200);
        assert_eq!(uncapped.emitted, all.len());
        assert!(
            capped.frames * 10 < uncapped.frames,
            "cap must bound work: {} capped vs {} uncapped frames",
            capped.frames,
            uncapped.frames
        );
    }

    #[test]
    fn mask_restricts_parallel_search() {
        // Square 0-1-3 / 0-2-3: masking out node 2 leaves only the 0-1-3 route.
        let mut g: Graph<usize, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..4).map(|i| g.add_node(i)).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[3], ());
        g.add_edge(ids[0], ids[2], ());
        g.add_edge(ids[2], ids[3], ());
        let mut mask = vec![true; g.node_capacity()];
        mask[ids[2].index()] = false;
        let (paths, _) = parallel_simple_paths_pruned(
            &g,
            ids[0],
            ids[3],
            ParallelOptions::default(),
            Some(&mask),
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![ids[0], ids[1], ids[3]]);
        // Masking an endpoint yields nothing.
        mask[ids[3].index()] = false;
        let (paths, stats) = parallel_simple_paths_pruned(
            &g,
            ids[0],
            ids[3],
            ParallelOptions::default(),
            Some(&mask),
        );
        assert!(paths.is_empty());
        assert_eq!(stats.frames, 0);
    }

    #[test]
    fn max_nodes_respected() {
        let (g, ids) = complete_graph(5);
        let limits = PathLimits::unlimited().with_max_nodes(3);
        let par = parallel_simple_paths(
            &g,
            ids[0],
            ids[4],
            ParallelOptions {
                limits,
                ..Default::default()
            },
        );
        assert!(par.iter().all(|p| p.nodes.len() <= 3));
        assert_eq!(par.len(), 4); // direct + 3 one-intermediate
    }
}
