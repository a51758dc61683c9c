// Cross-shard top-k merging for the sharded serving layer.
//
// When one user query executes on several shards (it scattered — see
// ShardRouter::Decide), every shard completes the top-k of *its* subset of the
// query's conjunctive queries; the coordinator merges those ranked
// streams into the global top-k. The distributed top-k identity makes
// this exact: each answer tuple is produced by exactly one conjunctive
// query, so every member of the global top-k is within the local top-k
// of the shard that owns its CQ — merging the per-shard top-k lists
// and truncating to k loses nothing.
//
// The merge imposes a *canonical total order* (score desc, then the
// provenance of the result tuple — see ResultTupleOrder), independent
// of arrival timing, batching composition, or shard count. The sharded
// service canonicalizes every outcome through this order, which is what
// makes per-UQ top-k results byte-equivalent between a num_shards=1 and
// a num_shards=N run of the same workload.

#ifndef QSYS_SHARD_RANK_MERGER_H_
#define QSYS_SHARD_RANK_MERGER_H_

#include <vector>

#include "src/exec/rank_merge_op.h"

namespace qsys {

// The canonical total order itself (ResultTupleOrder) lives with the
// rank-merge operator (src/exec/rank_merge_op.h): since the
// temporal-reuse completeness fix, every merge finalizes its answer set
// under that order, and this cross-shard merger reuses the exact same
// comparator — one definition, one notion of "canonical".

/// \brief Merges per-shard ranked answer streams into one global top-k.
///
/// Stateless; all methods are thread-safe.
class RankMerger {
 public:
  /// Merges `streams` (one ranked answer list per shard; empty lists
  /// allowed) into the global top-k under the canonical order. `k <= 0`
  /// means "no cap".
  static std::vector<ResultTuple> Merge(
      const std::vector<std::vector<ResultTuple>>& streams, int k);

  /// Reorders a single engine's emitted results into the canonical
  /// order and truncates to k — the single-stream degenerate case of
  /// Merge(), applied to every outcome so that sharded and unsharded
  /// runs deliver byte-identical rankings.
  static void Canonicalize(std::vector<ResultTuple>& results, int k);
};

}  // namespace qsys

#endif  // QSYS_SHARD_RANK_MERGER_H_
