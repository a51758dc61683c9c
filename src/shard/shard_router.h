// Query routing for the sharded serving layer (see docs/ARCHITECTURE.md,
// "Sharded serving topology").
//
// The router decides, for each keyword query, which of the N
// independent Engines behind one QueryService executes it, and — when
// the query scatters — which shard runs each of its CQs. One rule
// covers both placement modes: every index term has an owner set.
// Replicated placement installs no term-owner function, so every shard
// owns every term; partitioned placement installs
// PartitionMap::TermOwner, so a term is owned by exactly one shard and
// a term the index does not contain is owned by none. A query runs
// locally on a healthy shard that owns all of its indexed terms, and
// scatters otherwise (EMBANKS-style: partition the search space, merge
// the ranked streams at a thin coordinator — src/shard/rank_merger.h).
//
// Every decision is a pure function of the keyword text, the ownership
// function and the caller's healthy mask, so it is deterministic and
// lock-free, and — crucially for the sharing machinery — *stable*: with
// the same shards healthy, the same logical query always lands on the
// same shard, where its retained state from earlier submissions lives.

#ifndef QSYS_SHARD_SHARD_ROUTER_H_
#define QSYS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/config.h"

namespace qsys {

/// \brief Deterministic keyword-query -> shard routing policy.
///
/// Thread-safe after construction: Decide() and TermOwner() only read
/// immutable state and call the (immutable, caller-supplied) term-owner
/// function.
class ShardRouter {
 public:
  /// TermOwner() results other than a shard id.
  /// No term-owner function is installed: every shard owns the term.
  static constexpr int kEveryShard = -2;
  /// The index does not contain the term: no shard owns it.
  static constexpr int kNoShard = -1;

  /// Resolves the shard owning an index term (PartitionMap::TermOwner),
  /// or kNoShard for a term the index does not contain.
  using TermOwnerFn = std::function<int(const std::string& term)>;

  /// A router over `num_shards` shards (clamped to >= 1) under the
  /// given affinity policy.
  ShardRouter(int num_shards, ShardAffinity affinity);

  /// Installs per-term ownership (partitioned placement). Without one
  /// every shard owns every term. Call before serving starts.
  void set_term_owner_fn(TermOwnerFn fn) { term_owner_ = std::move(fn); }

  /// The owner of `term`: a shard id, kEveryShard or kNoShard.
  int TermOwner(const std::string& term) const;

  /// Whether some healthy shard owns a term whose TermOwner() is
  /// `owner`. `healthy[s]` != 0 when shard s may receive work.
  static bool HasHealthyOwner(int owner, const std::vector<char>& healthy);

  /// A routing decision: execute on `shard` locally, or scatter the
  /// query's CQs (`shard` is then the signature-hash shard the scatter
  /// is attributed to).
  struct Decision {
    int shard = 0;
    bool scatter = false;
  };

  /// The one routing decision, for new submissions and retries alike.
  /// kScatterCqs (with more than one shard) always scatters. Otherwise
  /// the candidates are the shards owning every indexed term of the
  /// query (every shard when no term is indexed); the query runs on the
  /// first healthy candidate at or after its signature-hash shard
  /// (mod N), and scatters when no candidate is healthy — its terms span
  /// owners, or its owner is down. Unindexed terms match nothing under
  /// the full index either, so they cannot change the answer and are
  /// ignored. `healthy` has one entry per shard.
  Decision Decide(const std::string& keywords,
                  const std::vector<char>& healthy) const;

  /// Assigns a scattered query's CQs to shards. `cq_term_owners[i]`
  /// holds the TermOwner() of every term CQ i selects on. Per CQ, the
  /// result is:
  ///   * -1 (dropped) when one of its terms has no healthy owner — the
  ///     answer then lacks that CQ's results and is degraded;
  ///   * the healthy shards in rotation by CQ index, when every healthy
  ///     shard owns all of its terms (always under replication, and for
  ///     a CQ with no terms);
  ///   * otherwise the healthy shard owning the most of its terms, ties
  ///     to the lowest id.
  /// The assignment only places work: RankMerger::Merge is exact over
  /// the union of the CQ result streams, so it cannot change an answer.
  static std::vector<int> AssignCqs(
      const std::vector<std::vector<int>>& cq_term_owners,
      const std::vector<char>& healthy);

  int num_shards() const { return num_shards_; }
  ShardAffinity affinity() const { return affinity_; }

  /// Canonical form of a keyword query: terms lowercased, tokenized,
  /// sorted, and deduplicated, joined with a separator. "Gene membrane"
  /// and "membrane GENE gene" share one canonical key, so repeats
  /// co-locate no matter how the user typed them.
  static std::string CanonicalKey(const std::string& keywords);

  /// 64-bit FNV-1a hash of CanonicalKey() — the canonical query
  /// signature that routing starts from.
  static uint64_t CanonicalSignature(const std::string& keywords);

 private:
  int SignatureShard(const std::string& keywords) const;

  int num_shards_;
  ShardAffinity affinity_;
  TermOwnerFn term_owner_;
};

}  // namespace qsys

#endif  // QSYS_SHARD_SHARD_ROUTER_H_
