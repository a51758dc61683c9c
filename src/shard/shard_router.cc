#include "src/shard/shard_router.h"

#include <algorithm>

#include "src/storage/inverted_index.h"
#include "src/storage/partition.h"

namespace qsys {

// Hashing now lives in src/storage/partition.h (the placement layer
// and the router must agree on it); MixBits64's finalizer keeps the
// historical routing bit-identical — same constants as the file-local
// helpers this file used to carry.

ShardRouter::ShardRouter(int num_shards, ShardAffinity affinity)
    : num_shards_(std::max(1, num_shards)), affinity_(affinity) {}

std::string ShardRouter::CanonicalKey(const std::string& keywords) {
  std::vector<std::string> terms = TokenizeKeywords(keywords);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string key;
  for (const std::string& t : terms) {
    if (!key.empty()) key.push_back('\x1f');
    key += t;
  }
  return key;
}

uint64_t ShardRouter::CanonicalSignature(const std::string& keywords) {
  return Fnv1a64(CanonicalKey(keywords));
}

int ShardRouter::SignatureShard(const std::string& keywords) const {
  // FNV-1a's low bit is the parity of the input bytes, so a bare
  // mod-2 would route by text parity (nearly every lowercase query on
  // one shard). Finalize before reducing.
  return static_cast<int>(MixBits64(CanonicalSignature(keywords)) %
                          static_cast<uint64_t>(num_shards_));
}

int ShardRouter::TermOwner(const std::string& term) const {
  return term_owner_ ? term_owner_(term) : kEveryShard;
}

bool ShardRouter::HasHealthyOwner(int owner,
                                  const std::vector<char>& healthy) {
  if (owner == kEveryShard) {
    return std::find(healthy.begin(), healthy.end(), 1) != healthy.end();
  }
  return owner >= 0 && healthy[static_cast<size_t>(owner)] != 0;
}

ShardRouter::Decision ShardRouter::Decide(
    const std::string& keywords, const std::vector<char>& healthy) const {
  const int home = SignatureShard(keywords);
  if (num_shards_ > 1 && affinity_ == ShardAffinity::kScatterCqs) {
    return {home, true};
  }
  // Intersect the owner sets of the query's indexed terms.
  std::vector<char> owns(static_cast<size_t>(num_shards_), 1);
  for (const std::string& term : TokenizeKeywords(keywords)) {
    const int owner = TermOwner(term);
    if (owner < 0) continue;  // owned by every shard, or not indexed
    for (int s = 0; s < num_shards_; ++s) {
      if (s != owner) owns[static_cast<size_t>(s)] = 0;
    }
  }
  for (int off = 0; off < num_shards_; ++off) {
    const size_t s = static_cast<size_t>((home + off) % num_shards_);
    if (owns[s] && healthy[s]) return {static_cast<int>(s), false};
  }
  // No healthy shard holds every posting list the query needs: scatter
  // through the exact cross-shard merge.
  return {home, true};
}

std::vector<int> ShardRouter::AssignCqs(
    const std::vector<std::vector<int>>& cq_term_owners,
    const std::vector<char>& healthy) {
  std::vector<int> up;  // healthy shards, ascending
  for (size_t s = 0; s < healthy.size(); ++s) {
    if (healthy[s]) up.push_back(static_cast<int>(s));
  }
  std::vector<int> target(cq_term_owners.size(), -1);
  if (up.empty()) return target;
  for (size_t i = 0; i < cq_term_owners.size(); ++i) {
    std::vector<int64_t> votes(healthy.size(), 0);
    bool reachable = true;
    // Whether every healthy shard owns every term of the CQ.
    bool everywhere = true;
    for (int owner : cq_term_owners[i]) {
      if (!HasHealthyOwner(owner, healthy)) {
        reachable = false;
        break;
      }
      if (owner >= 0) {
        votes[static_cast<size_t>(owner)] += 1;
        everywhere = everywhere && up.size() == 1;
      }
    }
    if (!reachable) continue;
    if (everywhere) {
      target[i] = up[i % up.size()];
      continue;
    }
    int best = up[0];
    for (int s : up) {
      if (votes[static_cast<size_t>(s)] > votes[static_cast<size_t>(best)]) {
        best = s;
      }
    }
    target[i] = best;
  }
  return target;
}

}  // namespace qsys
