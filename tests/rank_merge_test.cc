// Unit tests for the rank-merge operator: NRA-style thresholds, ordered
// emission, incremental CQ activation (Table 4's counter), pruning,
// completion, and the incrementally kept kth known score.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/rank_merge_op.h"

namespace qsys {

/// Test access to the merge's private state (friend of RankMergeOp).
class RankMergeOpPeer {
 public:
  static double KthKnownScore(const RankMergeOp& m) {
    return m.KthKnownScore();
  }
  /// The kth known score by brute force: results_[k-1] once k are out,
  /// else the need-th best buffered score, found by popping a copy of
  /// the whole buffer.
  static double BruteForceKth(const RankMergeOp& m) {
    const int64_t have = static_cast<int64_t>(m.results_.size());
    if (have >= m.k_) return m.results_[m.k_ - 1].score;
    const int64_t need = m.k_ - have;
    if (static_cast<int64_t>(m.buffer_.size()) < need) {
      return -std::numeric_limits<double>::infinity();
    }
    auto copy = m.buffer_;
    for (int64_t i = 1; i < need; ++i) copy.pop();
    return copy.top().score;
  }
  static bool Done(const RankMergeOp& m, int port) {
    return m.regs_[port].status == RankMergeOp::CqStatus::kDone;
  }
};

namespace {

/// A scripted in-memory stream (no catalog needed).
class FakeStream : public StreamingSource {
 public:
  FakeStream(std::vector<double> sums, double max_sum)
      : StreamingSource(Expr(), max_sum), sums_(std::move(sums)) {}

  Status Open(ExecContext&) override { return Status::OK(); }

  std::optional<CompositeTuple> Next(ExecContext&) override {
    if (cursor_ >= sums_.size()) return std::nullopt;
    CompositeTuple t = CompositeTuple::ForBase(0, cursor_, sums_[cursor_]);
    ++cursor_;
    ++tuples_read_;
    return t;
  }

  double frontier_sum() const override {
    if (cursor_ >= sums_.size()) {
      return -std::numeric_limits<double>::infinity();
    }
    return sums_[cursor_];
  }

  bool exhausted() const override { return cursor_ >= sums_.size(); }

 private:
  std::vector<double> sums_;
  size_t cursor_ = 0;
};

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;  // the merge's comparison slack

/// Reference rank merge for the differential test below: the merge's
/// contract restated as plainly as possible. Every bound is recomputed
/// on each use, the buffer is a flat vector searched linearly, and the
/// kth known score is found by sorting the buffered scores.
class ReferenceMerge {
 public:
  explicit ReferenceMerge(int k) : k_(k) {}

  int RegisterCq(const CqRegistration& reg) {
    regs_.push_back({reg.cq_id, reg.max_sum, reg.streams, false});
    complete_ = false;
    return static_cast<int>(regs_.size()) - 1;
  }

  void Consume(int port, const CompositeTuple& tuple) {
    if (regs_[port].done) return;
    const uint64_t identity =
        tuple.IdentityHash() ^
        (std::hash<double>{}(tuple.sum_scores()) * 0x9e3779b97f4a7c15ull);
    if (!seen_.emplace(regs_[port].cq_id, identity).second) return;
    buffer_.push_back({tuple.sum_scores(), seq_++, port, tuple});
  }

  double Threshold(int port) const {
    const Reg& r = regs_[port];
    if (r.done) return kNegInf;
    double min_slack = std::numeric_limits<double>::infinity();
    bool any_live = false;
    for (const StreamingSource* s : r.streams) {
      if (s->exhausted()) continue;
      any_live = true;
      min_slack =
          std::min(min_slack, s->initial_max_sum() - s->frontier_sum());
    }
    return any_live ? r.max_sum - min_slack : kNegInf;
  }

  double GlobalThreshold() const {
    double best = kNegInf;
    for (size_t p = 0; p < regs_.size(); ++p) {
      best = std::max(best, Threshold(static_cast<int>(p)));
    }
    return best;
  }

  /// The kth emitted score once k are out; before that the need-th best
  /// buffered score (emitted scores dominate the buffer up to the slack).
  double KthKnownScore() const {
    const int have = static_cast<int>(results_.size());
    if (have >= k_) return results_[k_ - 1].score;
    std::vector<double> buffered;
    for (const Entry& e : buffer_) buffered.push_back(e.score);
    const int need = k_ - have;
    if (static_cast<int>(buffered.size()) < need) return kNegInf;
    std::sort(buffered.begin(), buffered.end(), std::greater<double>());
    return buffered[need - 1];
  }

  void Maintain(VirtualTime now) {
    if (complete_) return;
    while (static_cast<int>(results_.size()) < k_ && !buffer_.empty()) {
      if (buffer_[Best()].score + kEps < GlobalThreshold()) break;
      Emit(now);
      ++emitted_;
    }
    const double kth = KthKnownScore();
    for (size_t p = 0; p < regs_.size(); ++p) {
      if (!regs_[p].done && Threshold(static_cast<int>(p)) + kEps < kth) {
        MarkDone(p);
      }
    }
    for (size_t p = 0; p < regs_.size(); ++p) {
      if (!regs_[p].done && Threshold(static_cast<int>(p)) == kNegInf) {
        MarkDone(p);
      }
    }
    if (static_cast<int>(results_.size()) >= k_) {
      bool tied_bound_pending = false;
      for (size_t p = 0; p < regs_.size(); ++p) {
        if (!regs_[p].done &&
            Threshold(static_cast<int>(p)) + kEps >= results_[k_ - 1].score) {
          tied_bound_pending = true;
        }
      }
      complete_ = !tied_bound_pending;
    } else {
      complete_ = GlobalThreshold() == kNegInf && buffer_.empty();
    }
    if (complete_ && complete_time_ == 0) {
      if (static_cast<int>(results_.size()) >= k_) {
        const double kth_out = results_[k_ - 1].score;
        while (!buffer_.empty() && buffer_[Best()].score + kEps >= kth_out) {
          Emit(now);
        }
      }
      std::stable_sort(results_.begin(), results_.end(), ResultTupleOrder());
      if (static_cast<int>(results_.size()) > k_) results_.resize(k_);
      complete_time_ = now;
      for (size_t p = 0; p < regs_.size(); ++p) MarkDone(p);
    }
  }

  bool complete() const { return complete_; }
  bool done(int port) const { return regs_[port].done; }
  int64_t emitted() const { return emitted_; }
  const std::vector<ResultTuple>& results() const { return results_; }
  const std::vector<int>& pruned() const { return pruned_; }

 private:
  struct Reg {
    int cq_id;
    double max_sum;
    std::vector<StreamingSource*> streams;
    bool done;
  };
  struct Entry {
    double score;
    int64_t seq;
    int port;
    CompositeTuple tuple;
  };

  /// Highest score, earliest arrival first on ties.
  size_t Best() const {
    size_t best = 0;
    for (size_t i = 1; i < buffer_.size(); ++i) {
      if (buffer_[i].score > buffer_[best].score) best = i;
    }
    return best;  // ties keep the lowest index == earliest seq
  }

  void Emit(VirtualTime now) {
    const size_t i = Best();
    ResultTuple r;
    r.score = buffer_[i].score;
    r.cq_id = regs_[buffer_[i].port].cq_id;
    r.tuple = buffer_[i].tuple;
    r.emitted_at_us = now;
    results_.push_back(std::move(r));
    buffer_.erase(buffer_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void MarkDone(size_t port) {
    if (regs_[port].done) return;
    regs_[port].done = true;
    const int cq = regs_[port].cq_id;
    for (const Reg& r : regs_) {
      if (r.cq_id == cq && !r.done) return;
    }
    seen_.erase(seen_.lower_bound({cq, 0}), seen_.lower_bound({cq + 1, 0}));
    pruned_.push_back(cq);
  }

  int k_;
  std::vector<Reg> regs_;
  std::vector<Entry> buffer_;
  std::vector<ResultTuple> results_;
  std::set<std::pair<int, uint64_t>> seen_;
  std::vector<int> pruned_;
  int64_t seq_ = 0;
  int64_t emitted_ = 0;
  bool complete_ = false;
  VirtualTime complete_time_ = 0;
};

class RankMergeTest : public ::testing::Test {
 protected:
  ExecContext Ctx() {
    ExecContext ctx;
    ctx.clock = &clock_;
    ctx.stats = &stats_;
    return ctx;
  }
  VirtualClock clock_;
  ExecStats stats_;
};

CompositeTuple TupleWithSum(double sum) {
  return CompositeTuple::ForBase(0, 0, sum);
}

TEST_F(RankMergeTest, EmitsInScoreOrderOnceThresholdCleared) {
  RankMergeOp merge(/*uq_id=*/1, /*k=*/3, /*submit=*/0);
  FakeStream stream({0.9, 0.8, 0.2}, /*max_sum=*/0.9);
  CqRegistration reg;
  reg.cq_id = 10;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.9;
  reg.streams = {&stream};
  int port = merge.RegisterCq(reg);
  ExecContext ctx = Ctx();

  // Buffer a 0.8-scoring result while the frontier still promises 0.9:
  // it must NOT be emitted yet.
  merge.Consume(port, TupleWithSum(0.8), ctx);
  merge.Maintain(ctx);
  EXPECT_TRUE(merge.results().empty());

  // Read past the 0.9 promise (frontier drops to 0.8): now emittable.
  ASSERT_TRUE(stream.Next(ctx).has_value());
  merge.Maintain(ctx);
  ASSERT_EQ(merge.results().size(), 1u);
  EXPECT_DOUBLE_EQ(merge.results()[0].score, 0.8);
}

TEST_F(RankMergeTest, ThresholdUsesMinSlackAcrossStreams) {
  RankMergeOp merge(1, 3, 0);
  FakeStream a({0.9, 0.5}, 0.9);
  FakeStream b({0.7, 0.6}, 0.7);
  CqRegistration reg;
  reg.cq_id = 1;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 1.6;  // 0.9 + 0.7
  reg.streams = {&a, &b};
  int port = merge.RegisterCq(reg);
  // No reads yet: slack 0 on both, threshold = U = 1.6.
  EXPECT_DOUBLE_EQ(merge.Threshold(port), 1.6);
  ExecContext ctx = Ctx();
  a.Next(ctx);  // a's frontier 0.5 -> slack 0.4; b slack 0.
  EXPECT_DOUBLE_EQ(merge.Threshold(port), 1.6);  // min slack still 0 (b)
  b.Next(ctx);  // b frontier 0.6 -> slack 0.1; min slack now 0.1.
  EXPECT_NEAR(merge.Threshold(port), 1.5, 1e-12);
}

TEST_F(RankMergeTest, ExhaustedStreamsDropThresholdToNegInf) {
  RankMergeOp merge(1, 2, 0);
  FakeStream stream({0.4}, 0.4);
  CqRegistration reg;
  reg.cq_id = 5;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.4;
  reg.streams = {&stream};
  int port = merge.RegisterCq(reg);
  ExecContext ctx = Ctx();
  merge.Consume(port, TupleWithSum(0.4), ctx);
  stream.Next(ctx);  // exhaust
  EXPECT_TRUE(std::isinf(merge.Threshold(port)));
  merge.Maintain(ctx);
  // Fewer than k results exist: everything emits, then completion.
  EXPECT_EQ(merge.results().size(), 1u);
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.complete_time_us(), clock_.now());
}

TEST_F(RankMergeTest, PreferredStreamActivatesHighestBoundCq) {
  RankMergeOp merge(1, 2, 0);
  FakeStream hot({0.9}, 0.9);
  FakeStream cold({0.5}, 0.5);
  CqRegistration high;
  high.cq_id = 1;
  high.score_fn = ScoreFunction::DiscoverSum(1);
  high.max_sum = 0.9;
  high.streams = {&hot};
  CqRegistration low;
  low.cq_id = 2;
  low.score_fn = ScoreFunction::DiscoverSum(1);
  low.max_sum = 0.5;
  low.streams = {&cold};
  merge.RegisterCq(high);
  merge.RegisterCq(low);
  EXPECT_EQ(merge.cqs_executed(), 0);  // nothing activated yet
  StreamingSource* s = merge.PreferredStream();
  EXPECT_EQ(s, &hot);  // the higher-bound CQ drives
  EXPECT_EQ(merge.cqs_executed(), 1);
  EXPECT_EQ(merge.cqs_total(), 2);
}

TEST_F(RankMergeTest, LowerBoundCqActivatesOnlyWhenNeeded) {
  RankMergeOp merge(1, 3, 0);
  FakeStream hot({0.9, 0.85, 0.8}, 0.9);
  FakeStream cold({0.5}, 0.5);
  CqRegistration high;
  high.cq_id = 1;
  high.score_fn = ScoreFunction::DiscoverSum(1);
  high.max_sum = 0.9;
  high.streams = {&hot};
  CqRegistration low;
  low.cq_id = 2;
  low.score_fn = ScoreFunction::DiscoverSum(1);
  low.max_sum = 0.5;
  low.streams = {&cold};
  int hp = merge.RegisterCq(high);
  merge.RegisterCq(low);
  ExecContext ctx = Ctx();
  // Drive the high CQ: deliver its three strong results.
  for (double s : {0.9, 0.85, 0.8}) {
    ASSERT_EQ(merge.PreferredStream(), &hot);
    hot.Next(ctx);
    merge.Consume(hp, TupleWithSum(s), ctx);
    merge.Maintain(ctx);
  }
  // Top-3 all beat the cold CQ's 0.5 bound: done without activating it.
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.cqs_executed(), 1);
  EXPECT_EQ(merge.results().size(), 3u);
}

TEST_F(RankMergeTest, PrunesCqBelowKthKnownScore) {
  RankMergeOp merge(1, 2, 0);
  FakeStream hot({0.9, 0.8, 0.7}, 0.9);
  FakeStream weak({0.3, 0.2}, 0.3);
  CqRegistration strong;
  strong.cq_id = 1;
  strong.score_fn = ScoreFunction::DiscoverSum(1);
  strong.max_sum = 0.9;
  strong.streams = {&hot};
  strong.initially_active = true;
  CqRegistration feeble;
  feeble.cq_id = 2;
  feeble.score_fn = ScoreFunction::DiscoverSum(1);
  feeble.max_sum = 0.3;
  feeble.streams = {&weak};
  feeble.initially_active = true;
  int sp = merge.RegisterCq(strong);
  merge.RegisterCq(feeble);
  int pruned_cq = -1;
  merge.on_cq_pruned = [&](int cq) {
    if (cq == 2) pruned_cq = cq;
  };
  ExecContext ctx = Ctx();
  merge.Consume(sp, TupleWithSum(0.9), ctx);
  merge.Consume(sp, TupleWithSum(0.8), ctx);
  hot.Next(ctx);
  hot.Next(ctx);  // frontier 0.7: both results emit (0.9, 0.8)
  merge.Maintain(ctx);
  // kth known = 0.8 > feeble's bound 0.3: feeble must be pruned.
  EXPECT_EQ(pruned_cq, 2);
  EXPECT_TRUE(merge.complete());  // k=2 results out
  EXPECT_EQ(stats_.results_emitted, 2);
}

TEST_F(RankMergeTest, RecoveryRegistrationSharesLogicalId) {
  RankMergeOp merge(1, 2, 0);
  FakeStream live({0.9}, 0.9);
  FakeStream replay({0.8}, 0.9);
  CqRegistration original;
  original.cq_id = 7;
  original.score_fn = ScoreFunction::DiscoverSum(1);
  original.max_sum = 0.9;
  original.streams = {&live};
  CqRegistration recovery = original;
  recovery.streams = {&replay};
  recovery.initially_active = true;
  merge.RegisterCq(original);
  merge.RegisterCq(recovery);
  // Both registrations share logical CQ id 7.
  EXPECT_EQ(merge.cqs_total(), 1);
  EXPECT_EQ(merge.num_registrations(), 2);
  EXPECT_EQ(merge.cqs_executed(), 1);  // recovery counts as activation
}

TEST_F(RankMergeTest, CompletesAtExactlyK) {
  RankMergeOp merge(1, 2, 0);
  FakeStream stream({0.9, 0.8, 0.7, 0.6}, 0.9);
  CqRegistration reg;
  reg.cq_id = 1;
  reg.score_fn = ScoreFunction::DiscoverSum(1);
  reg.max_sum = 0.9;
  reg.streams = {&stream};
  reg.initially_active = true;
  int port = merge.RegisterCq(reg);
  ExecContext ctx = Ctx();
  for (double s : {0.9, 0.8, 0.7, 0.6}) {
    stream.Next(ctx);
    merge.Consume(port, TupleWithSum(s), ctx);
    merge.Maintain(ctx);
    if (merge.complete()) break;
  }
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.results().size(), 2u);
  EXPECT_DOUBLE_EQ(merge.results()[0].score, 0.9);
  EXPECT_DOUBLE_EQ(merge.results()[1].score, 0.8);
  // Consumption after completion-marked CQs is dropped gracefully.
  merge.Consume(port, TupleWithSum(0.5), ctx);
  EXPECT_EQ(merge.results().size(), 2u);
  EXPECT_GT(merge.StateSizeBytes(), 0);
}

// Differential check of the incrementally maintained kth known score:
// seeded random sequences of stream reads, Consume (with duplicate
// deliveries), Maintain and late RegisterCq drive the merge and the
// brute-force ReferenceMerge side by side. Scores sit on a lattice with
// exact ties and 1e-13 steps that straddle the merge's 1e-12 slack; k
// runs from 1 to more than the answers the streams can produce.
TEST_F(RankMergeTest, IncrementalKthMatchesBruteForceReference) {
  const double kBases[] = {0.9, 0.75, 0.6, 0.45, 0.3};
  int64_t completions = 0, prunes = 0, late_registrations = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const int ks[] = {1, 2, 3, 5, 8, 200};
    const int k = ks[rng.NextUint(6)];
    // A lattice score: exact ties on the base, or 1e-13 steps below it
    // (up to 2e-12, past the slack).
    auto lattice = [&rng, &kBases]() {
      return kBases[rng.NextUint(5)] -
             1e-13 * static_cast<double>(rng.NextUint(21));
    };
    std::vector<std::unique_ptr<FakeStream>> streams;
    auto make_stream = [&]() {
      std::vector<double> sums;
      const int n = 1 + static_cast<int>(rng.NextUint(6));
      for (int i = 0; i < n; ++i) sums.push_back(lattice());
      std::sort(sums.begin(), sums.end(), std::greater<double>());
      streams.push_back(std::make_unique<FakeStream>(sums, sums[0]));
      return streams.back().get();
    };
    auto make_reg = [&](int cq_id) {
      CqRegistration reg;
      reg.cq_id = cq_id;
      reg.score_fn = ScoreFunction::DiscoverSum(1);
      const int n = 1 + static_cast<int>(rng.NextUint(2));
      for (int i = 0; i < n; ++i) {
        reg.streams.push_back(make_stream());
        reg.max_sum += reg.streams.back()->initial_max_sum();
      }
      // Keep one-stream bounds on the lattice; two-stream bounds are
      // sums of base scores.
      if (n == 2) reg.max_sum -= kBases[0];
      reg.initially_active = rng.NextUint(2) == 0;
      return reg;
    };

    clock_ = VirtualClock();
    stats_ = ExecStats();
    RankMergeOp merge(/*uq_id=*/1, k, /*submit=*/0);
    ReferenceMerge ref(k);
    std::vector<int> pruned;
    merge.on_cq_pruned = [&pruned](int cq) { pruned.push_back(cq); };
    std::vector<std::vector<CompositeTuple>> sent;  // per port
    int next_cq = 1;
    auto register_cq = [&](CqRegistration reg) {
      ASSERT_EQ(merge.RegisterCq(reg), ref.RegisterCq(reg));
      sent.emplace_back();
    };
    const int initial = 1 + static_cast<int>(rng.NextUint(3));
    for (int i = 0; i < initial; ++i) register_cq(make_reg(next_cq++));
    int64_t row = 0;
    ExecContext ctx = Ctx();

    for (int step = 0; step < 80; ++step) {
      clock_.Advance(1);
      const uint64_t op = rng.NextUint(100);
      const int ports = static_cast<int>(sent.size());
      if (op < 25) {
        FakeStream* s = streams[rng.NextUint(streams.size())].get();
        s->Next(ctx);
      } else if (op < 60) {
        const int port = static_cast<int>(rng.NextUint(ports));
        CompositeTuple t;
        if (!sent[port].empty() && rng.NextUint(5) == 0) {
          t = sent[port][rng.NextUint(sent[port].size())];  // duplicate
        } else {
          // Mostly below the port's bound, as a real CQ delivers.
          const double bound = merge.Threshold(port);
          const double sum =
              bound > kNegInf && rng.NextUint(4) != 0
                  ? bound - 1e-13 * static_cast<double>(rng.NextUint(21))
                  : lattice();
          t = CompositeTuple::ForBase(0, row++, sum);
          sent[port].push_back(t);
        }
        merge.Consume(port, t, ctx);
        ref.Consume(port, t);
      } else if (op < 97) {
        merge.Maintain(ctx);
        ref.Maintain(clock_.now());
        ASSERT_EQ(merge.complete(), ref.complete()) << "seed " << seed;
        ASSERT_EQ(stats_.results_emitted, ref.emitted()) << "seed " << seed;
        ASSERT_EQ(pruned, ref.pruned()) << "seed " << seed;
        for (int p = 0; p < ports; ++p) {
          ASSERT_EQ(RankMergeOpPeer::Done(merge, p), ref.done(p))
              << "seed " << seed << " port " << p;
        }
        ASSERT_EQ(merge.results().size(), ref.results().size())
            << "seed " << seed;
        for (size_t i = 0; i < ref.results().size(); ++i) {
          const ResultTuple& a = merge.results()[i];
          const ResultTuple& b = ref.results()[i];
          ASSERT_EQ(a.cq_id, b.cq_id) << "seed " << seed << " rank " << i;
          ASSERT_EQ(a.emitted_at_us, b.emitted_at_us) << "seed " << seed;
        }
        ASSERT_EQ(FingerprintResults(merge.results()),
                  FingerprintResults(ref.results()))
            << "seed " << seed;
      } else {
        // Late registration: a fresh CQ, or a recovery query sharing a
        // registered CQ's logical id.
        const int cq = rng.NextUint(2) == 0
                           ? next_cq++
                           : 1 + static_cast<int>(rng.NextUint(next_cq - 1));
        register_cq(make_reg(cq));
        ++late_registrations;
      }
      // The incremental kth equals the brute-force one after every step,
      // bit for bit.
      const double kth = RankMergeOpPeer::KthKnownScore(merge);
      const double brute = RankMergeOpPeer::BruteForceKth(merge);
      ASSERT_EQ(std::memcmp(&kth, &brute, sizeof(kth)), 0)
          << "seed " << seed << " step " << step << ": " << kth << " vs "
          << brute;
      if (!merge.complete()) {
        ASSERT_EQ(kth, ref.KthKnownScore()) << "seed " << seed;
      }
    }
    completions += merge.complete() ? 1 : 0;
    prunes += static_cast<int64_t>(pruned.size());
  }
  // The sequences reach the interesting states.
  EXPECT_GT(completions, 50);
  EXPECT_GT(prunes, 100);
  EXPECT_GT(late_registrations, 100);
}

}  // namespace
}  // namespace qsys
