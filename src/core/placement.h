// DataPlacement: the layer between dataset builders and shard Engine
// construction that decides which shard holds which data.
//
// Replicated mode (the historical behavior) runs the dataset builder
// once per shard, so every shard is resident for the full catalog and
// full inverted index. Partitioned mode builds the dataset ONCE, into
// a private host engine owned here, and carves per-shard ownership
// slices out of it with a PartitionMap (src/storage/partition.h):
//
//   * each shard resident-owns the inverted-index slice of the terms
//     hashed to it — whole per-term posting lists copied verbatim, so
//     a slice-local lookup of an owned term is bit-identical to a
//     full-index lookup — plus a TableSlice ownership view of every
//     base table (which tuples it answers resident-bytes for);
//   * all shards *execute* against the one shared catalog (the paper's
//     catalog models remote databases reached through src/source with
//     charged network delays — partitioning changes who is resident
//     for what, not what the simulated remote world contains). That is
//     what keeps per-UQ top-k byte-identical to the single-shard
//     oracle: execution state, plan choices (the optimizer reads the
//     full placement index), and source streams are placement-
//     independent; only routing and resident accounting change.
//
// Routing uses one rule for both modes: every index term has an owner
// set — all shards when replicated, {PartitionMap::TermOwner(term)}
// here (src/shard/shard_router.h). A query whose terms all resolve on
// one healthy shard routes there and is generated from that shard's
// slice; a query whose terms span owners, or whose owner is down,
// scatters through the cross-shard RankMerger path (generation runs
// centrally here, over the full index).

#ifndef QSYS_CORE_PLACEMENT_H_
#define QSYS_CORE_PLACEMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/storage/partition.h"

namespace qsys {

/// Approximate resident data bytes of one full dataset copy (inverted
/// index + base-table rows) — the per-shard accounting basis in
/// replicated mode, on the same scale as
/// DataPlacement::ShardResidentBytes().
int64_t EstimateResidentBytes(const Catalog& catalog,
                              const InvertedIndex& index);

/// \brief One shared dataset plus its per-shard ownership slices.
///
/// Immutable after Create(); every accessor is const and safe to call
/// concurrently from all shard executors (the host engine never
/// ingests or executes — its catalog, schema graph and index are
/// read-only after the builder finalizes them).
class DataPlacement {
 public:
  using Builder = std::function<Status(Engine&)>;

  /// Builds the dataset once (running `builder` on a private host
  /// engine configured like `config` but without spill or sharding)
  /// and computes the ownership slices for `config.num_shards` shards,
  /// keyed by `config.seed`. The builder must register tables, init
  /// the schema graph, and FinalizeCatalog(), exactly as it would for
  /// a replicated shard.
  static Result<std::unique_ptr<DataPlacement>> Create(
      const QConfig& config, const Builder& builder);

  DataPlacement(const DataPlacement&) = delete;
  DataPlacement& operator=(const DataPlacement&) = delete;
  ~DataPlacement();

  int num_shards() const { return map_.num_shards(); }
  const PartitionMap& partition_map() const { return map_; }

  /// The one shared catalog all shards execute against.
  const Catalog& catalog() const;
  const SchemaGraph& schema_graph() const;
  /// The full (unsliced) inverted index; optimizer statistics and
  /// central scatter generation read this.
  const InvertedIndex& full_index() const;

  /// Central candidate generation over the full index — the scatter
  /// path for queries whose terms span owners. Thread-safe.
  Result<UserQuery> GenerateCandidates(
      const std::string& keywords, const CandidateGenOptions& options) const;

  /// Materializes shard `s`'s inverted-index slice: every term owned
  /// by `s`, with its full posting list copied verbatim.
  InvertedIndex BuildIndexSlice(int shard) const;

  /// Shard `s`'s ownership views of every base table, indexed by
  /// TableId.
  const std::vector<TableSlice>& shard_tables(int shard) const {
    return tables_[shard];
  }

  /// Approximate resident bytes shard `s` owns (its index slice plus
  /// its owned base-table rows). Strictly shrinks as num_shards grows
  /// on any non-trivial dataset — the point of partitioned placement.
  int64_t ShardResidentBytes(int shard) const;

  /// Owned index terms per shard (coverage: these sum to
  /// full_index().num_terms()).
  int64_t ShardIndexTerms(int shard) const {
    return index_terms_[shard];
  }

 private:
  DataPlacement(std::unique_ptr<Engine> host, PartitionMap map);
  void BuildSlices();

  std::unique_ptr<Engine> host_;
  PartitionMap map_;
  /// [shard][table] ownership views.
  std::vector<std::vector<TableSlice>> tables_;
  /// Per-shard index-slice resident bytes and term counts, computed
  /// once from the full index (same accounting as
  /// InvertedIndex::EstimateBytes()).
  std::vector<int64_t> index_bytes_;
  std::vector<int64_t> index_terms_;
};

}  // namespace qsys

#endif  // QSYS_CORE_PLACEMENT_H_
