#include "src/exec/rank_merge_op.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace qsys {

std::string FingerprintResults(const std::vector<ResultTuple>& results) {
  std::string bytes;
  auto put = [&bytes](const void* p, size_t n) {
    bytes.append(reinterpret_cast<const char*>(p), n);
  };
  for (const ResultTuple& r : results) {
    put(&r.score, sizeof(r.score));
    for (const BaseRef& ref : r.tuple.refs()) {
      put(&ref.table, sizeof(ref.table));
      put(&ref.row, sizeof(ref.row));
      put(&ref.score, sizeof(ref.score));
    }
    bytes.push_back('|');
  }
  return bytes;
}

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;
}  // namespace

bool ResultTupleOrder::operator()(const ResultTuple& a,
                                  const ResultTuple& b) const {
  if (a.score != b.score) return a.score > b.score;
  const std::vector<BaseRef>& ra = a.tuple.refs();
  const std::vector<BaseRef>& rb = b.tuple.refs();
  size_t n = std::min(ra.size(), rb.size());
  for (size_t i = 0; i < n; ++i) {
    if (ra[i].table != rb[i].table) return ra[i].table < rb[i].table;
    if (ra[i].row != rb[i].row) return ra[i].row < rb[i].row;
  }
  if (ra.size() != rb.size()) return ra.size() < rb.size();
  // Same provenance: distinguish by the per-slot score contributions
  // (different CQs can cover the same base tuples with different
  // selections). Engine-local cq ids are NOT consulted — they are not
  // stable across shard layouts.
  for (size_t i = 0; i < n; ++i) {
    if (ra[i].score != rb[i].score) return ra[i].score < rb[i].score;
  }
  return false;  // equivalent
}

int RankMergeOp::RegisterCq(CqRegistration reg) {
  CqSlot slot;
  slot.status = reg.initially_active ? CqStatus::kActive : CqStatus::kPending;
  if (reg.initially_active) executed_cq_ids_.insert(reg.cq_id);
  all_cq_ids_.insert(reg.cq_id);
  if (reg.grafted_depth > 0 || reg.grafted_exhausted > 0) {
    ++warm_registrations_;
  }
  slot.reg = std::move(reg);
  regs_.push_back(std::move(slot));
  complete_ = false;
  return static_cast<int>(regs_.size()) - 1;
}

void RankMergeOp::Consume(int port, const CompositeTuple& tuple,
                          ExecContext& ctx) {
  (void)ctx;
  if (!active()) return;
  CqSlot& slot = regs_[port];
  if (slot.status == CqStatus::kDone) return;
  // Per-CQ result dedup: a conjunctive query delivers each logical
  // answer once. Duplicate derivations can reach the merge when
  // retained state is re-derived under a changed module structure (an
  // atom probed by one batch's plan, streamed by the next) — see
  // MJoinOp::Consume. Keyed by logical cq id, so a recovery query CQᵉ
  // (same id, own port) cannot double-deliver either. The score sum is
  // folded into the key purely defensively: equal provenance implies
  // equal scores in real execution.
  uint64_t identity =
      tuple.IdentityHash() ^
      (std::hash<double>{}(tuple.sum_scores()) * 0x9e3779b97f4a7c15ull);
  if (!seen_results_.emplace(slot.reg.cq_id, identity).second) {
    return;
  }
  Buffered b;
  b.score = slot.reg.score_fn.Score(tuple.sum_scores());
  b.port = port;
  b.seq = seq_counter_++;
  b.tuple = tuple;
  // Keep top_scores_ = the Need() largest buffered scores.
  const int64_t need = Need();
  if (static_cast<int64_t>(top_scores_.size()) < need) {
    top_scores_.push_back(b.score);
    std::push_heap(top_scores_.begin(), top_scores_.end(),
                   std::greater<double>());
  } else if (need > 0 && b.score > top_scores_.front()) {
    std::pop_heap(top_scores_.begin(), top_scores_.end(),
                  std::greater<double>());
    top_scores_.back() = b.score;
    std::push_heap(top_scores_.begin(), top_scores_.end(),
                   std::greater<double>());
  }
  buffer_.push(std::move(b));
}

double RankMergeOp::Threshold(int port) const {
  const CqSlot& slot = regs_[port];
  if (slot.status == CqStatus::kDone) return kNegInf;
  // Any future result of this CQ must contain at least one unread tuple
  // from one of its streaming inputs J; every other component is bounded
  // by its input's overall maximum. With slack(J) = initial_max − frontier
  // the bound is C(max_sum − min over unexhausted J of slack(J)).
  double min_slack = std::numeric_limits<double>::infinity();
  bool any_live = false;
  for (const StreamingSource* s : slot.reg.streams) {
    if (s->exhausted()) continue;
    any_live = true;
    min_slack = std::min(min_slack, s->initial_max_sum() - s->frontier_sum());
  }
  if (!any_live) return kNegInf;
  return slot.reg.score_fn.Score(slot.reg.max_sum - min_slack);
}

double RankMergeOp::KthKnownScore() const {
  // Scores of emitted results are all >= anything buffered, so count
  // them first.
  const int64_t need = Need();
  if (need <= 0) return results_[k_ - 1].score;
  // top_scores_ holds the `need` largest buffered scores once at least
  // `need` are buffered; its minimum is then the kth known score.
  if (static_cast<int64_t>(top_scores_.size()) < need) return kNegInf;
  return top_scores_.front();
}

void RankMergeOp::EmitTop(ExecContext& ctx) {
  const Buffered& top = buffer_.top();
  if (Need() > 0) {
    // The emitted score is the maximum of top_scores_, which holds the
    // largest buffered scores (and is nonempty: it holds min(Need(),
    // |buffer_|) of them). A min-heap keeps its maximum in a leaf
    // (index >= size/2): overwrite that with the last element and sift
    // it up. O(k), at most k times per merge.
    const size_t n = top_scores_.size();
    const size_t leaf = static_cast<size_t>(
        std::max_element(top_scores_.begin() + n / 2, top_scores_.end()) -
        top_scores_.begin());
    assert(top_scores_[leaf] == top.score);
    top_scores_[leaf] = top_scores_.back();
    top_scores_.pop_back();
    if (leaf < top_scores_.size()) {
      std::push_heap(top_scores_.begin(), top_scores_.begin() + leaf + 1,
                     std::greater<double>());
    }
  }
  ResultTuple r;
  r.score = top.score;
  r.cq_id = regs_[top.port].reg.cq_id;
  r.tuple = top.tuple;
  r.emitted_at_us = ctx.clock->now();
  results_.push_back(std::move(r));
  buffer_.pop();
}

StreamingSource* RankMergeOp::PreferredStream() {
  if (complete_) return nullptr;
  // Find the registration with the highest threshold that can still be
  // advanced by a read.
  int best_port = -1;
  double best_threshold = kNegInf;
  for (size_t p = 0; p < regs_.size(); ++p) {
    double t = Threshold(static_cast<int>(p));
    if (t == kNegInf) continue;
    bool readable = false;
    for (StreamingSource* s : regs_[p].reg.streams) {
      if (!s->exhausted()) readable = true;
    }
    if (!readable) continue;
    if (best_port < 0 || t > best_threshold) {
      best_port = static_cast<int>(p);
      best_threshold = t;
    }
  }
  if (best_port < 0) return nullptr;
  CqSlot& slot = regs_[best_port];
  if (slot.status == CqStatus::kPending) {
    // Incremental activation (§3, §6.3): the CQ's bound now governs the
    // output, so it must actually be executed.
    slot.status = CqStatus::kActive;
    executed_cq_ids_.insert(slot.reg.cq_id);
  }
  // Read the stream attaining the bound (minimum slack): advancing its
  // frontier lowers this CQ's threshold the fastest.
  StreamingSource* best_stream = nullptr;
  double min_slack = std::numeric_limits<double>::infinity();
  for (StreamingSource* s : slot.reg.streams) {
    if (s->exhausted()) continue;
    double slack = s->initial_max_sum() - s->frontier_sum();
    if (best_stream == nullptr || slack < min_slack) {
      best_stream = s;
      min_slack = slack;
    }
  }
  return best_stream;
}

void RankMergeOp::ReleaseCqDedup(int cq_id) {
  // Done ports drop their input before the dedup lookup (see Consume),
  // so once the last registration of a CQ is done its dedup entries can
  // never be consulted again — erase them so a long-serving engine does
  // not accumulate one red-black node per result ever delivered.
  seen_results_.erase(
      seen_results_.lower_bound({cq_id, 0}),
      seen_results_.lower_bound({cq_id + 1, 0}));
}

void RankMergeOp::MarkDone(int port) {
  CqSlot& slot = regs_[port];
  if (slot.status == CqStatus::kDone) return;
  slot.status = CqStatus::kDone;
  // A logical CQ may have several registrations (the live pipeline plus
  // an epoch-recovery replay, §6.2). Its plan path may only be unlinked
  // once the *last* of them finishes.
  for (const CqSlot& other : regs_) {
    if (other.reg.cq_id == slot.reg.cq_id &&
        other.status != CqStatus::kDone) {
      return;
    }
  }
  ReleaseCqDedup(slot.reg.cq_id);
  if (on_cq_pruned) on_cq_pruned(slot.reg.cq_id);
}

void RankMergeOp::Maintain(ExecContext& ctx) {
  if (complete_) return;
  // One threshold pass. A registration's bound reads only its own
  // streams and status, and nothing below reads a stream: emission
  // changes neither, and MarkDone changes only the status of the port
  // it marks (its callback unlinks plan operators, not streams). So the
  // cached value stands for every registration that is not yet done.
  const size_t n = regs_.size();
  thresholds_.resize(n);
  double bar = kNegInf;  // the global threshold
  for (size_t p = 0; p < n; ++p) {
    thresholds_[p] = Threshold(static_cast<int>(p));
    bar = std::max(bar, thresholds_[p]);
  }
  // Emit buffered results that clear the global threshold.
  while (Need() > 0 && !buffer_.empty()) {
    if (buffer_.top().score + kEps < bar) break;
    EmitTop(ctx);
    ctx.stats->results_emitted += 1;
  }
  // Prune CQs that can no longer contribute: threshold below the kth
  // known answer (§6.3). Exhausted registrations (threshold −inf) are
  // done too.
  const double kth_known = KthKnownScore();
  double live_bar = kNegInf;
  for (size_t p = 0; p < n; ++p) {
    if (regs_[p].status == CqStatus::kDone) continue;
    if (thresholds_[p] + kEps < kth_known || thresholds_[p] == kNegInf) {
      MarkDone(static_cast<int>(p));
    } else {
      live_bar = std::max(live_bar, thresholds_[p]);
    }
  }
  // Completion: k results out, or nothing can ever arrive again.
  //
  // "k results out" alone is not enough: a sibling registration whose
  // bound still *ties* the kth score may deliver equal-score answers
  // that rank earlier in the canonical total order. Declaring
  // completion while such a sibling is pending (possibly never
  // activated) would make the chosen tie subset depend on arrival
  // timing — exactly what differs between a warm-state graft and a
  // fresh run. Emission already guarantees every emitted score is >=
  // every bound at emission time and bounds only decrease, so a late
  // result can tie the kth score but never beat it; the merge therefore
  // stays live until every remaining bound is *strictly* below the kth
  // score (the scheduler keeps activating/reading the tied sibling —
  // that is the activation-order half of the §6.3 safety argument).
  // live_bar is the largest bound still pending (−inf when none is).
  if (Need() <= 0) {
    const double kth = results_[k_ - 1].score;
    const bool tied_bound_pending =
        live_bar > kNegInf && live_bar + kEps >= kth;
    if (!tied_bound_pending) complete_ = true;
  } else if (live_bar == kNegInf && buffer_.empty()) {
    complete_ = true;
  }
  if (complete_ && complete_time_us_ == 0) {
    // Fold buffered results that tie the kth score into the candidate
    // set: every bound is now below the kth score, so they are final
    // answers, and the canonical order — not arrival order — must pick
    // which of the tied answers make the top k. Re-ranking the whole
    // set canonically makes a warm-state run byte-equivalent to a
    // fresh run (and a sharded run to an unsharded one).
    if (Need() <= 0) {
      const double kth = results_[k_ - 1].score;
      while (!buffer_.empty() && buffer_.top().score + kEps >= kth) {
        EmitTop(ctx);
      }
    }
    std::stable_sort(results_.begin(), results_.end(), ResultTupleOrder());
    if (static_cast<int>(results_.size()) > k_) {
      results_.resize(static_cast<size_t>(k_));
    }
    complete_time_us_ = ctx.clock->now();
    // Release all contributing paths.
    for (size_t p = 0; p < regs_.size(); ++p) {
      MarkDone(static_cast<int>(p));
    }
  }
}

int64_t RankMergeOp::StateSizeBytes() const {
  int64_t total = static_cast<int64_t>(buffer_.size()) *
                  static_cast<int64_t>(sizeof(Buffered));
  for (const ResultTuple& r : results_) total += r.tuple.SizeBytes() + 32;
  // Dedup set: ~one red-black node per delivered (cq, identity) pair.
  total += static_cast<int64_t>(seen_results_.size()) * 64;
  return total;
}

std::string RankMergeOp::Describe() const {
  return "rank-merge[UQ" + std::to_string(uq_id_) + ",k=" +
         std::to_string(k_) + "]";
}

}  // namespace qsys
