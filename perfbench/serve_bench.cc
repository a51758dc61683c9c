// Serving benchmark binary: open-loop keyword traffic against one
// QueryService, plus the reference (oracle) and traced runs that check
// and explain it. perfbench/run.py orchestrates the modes below, each
// in its own process so the measured run's memory peak is its own.
//
//   serve_bench schedule --workload W --seed N --seconds S --out F
//       Generates the workload's arrival schedule (send offset, user,
//       keyword string per query) from the seed.
//   serve_bench serve --schedule F --workload W --journal F
//       Builds and starts the service kSetups times (set-up timing; the
//       last one serves), replays the schedule open loop from one thread
//       over one session per user, and appends each send and each
//       resolution to the journal as it happens, so a crash loses only
//       what had not happened yet.
//   serve_bench oracle --schedule F --workload W --need F --out F
//       Reference fingerprints for the listed queries: single shard,
//       one executor thread, unlimited budget, no spill, one query per
//       batch, no reuse of earlier queries' state (a query's top-k is a
//       pure function of query and data).
//   serve_bench trace --schedule F --workload W --journal F --out F
//                     --trace-dir D --budget S
//       Per-layer numbers. An otherwise identical served run (journal
//       as above) gives the service's exported counters and histograms.
//       Then the schedule is replayed on one thread, where engine state
//       can be read between steps without racing an executor: directly
//       on an Engine in virtual time for single-shard workloads (timing
//       the benchmark's own calls into each layer), on a manual-pump
//       service otherwise. The replay stops stepping once the process
//       has run S seconds. Writes a Chrome trace and a per-layer
//       self-time table into D.
//
// serve and trace take --defaults 1 to serve with the default stall
// timeout and temporal reuse on (see ServedOptions and FindWorkload).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/rank_merge_op.h"
#include "src/serve/query_service.h"
#include "src/storage/partition.h"
#include "src/workload/bio_terms.h"
#include "src/workload/gus.h"
#include "src/workload/pfam.h"

using namespace qsys;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  bool pfam = false;
  int64_t burst_interval_ms = 0;  // one burst of kBurst queries per interval
  int num_shards = 1;
  bool partitioned = false;
  int64_t memory_budget_bytes = 0;  // 0 = QConfig default
  bool spill = false;
  int max_cqs = 20;
  int max_matches_per_keyword = 4;  // CandidateGenOptions default
  int pool_size = 0;                // 0 = every query freshly generated
  bool temporal_reuse = true;       // QConfig default
  // Served with ServiceOptions' default 1 s stall timeout instead of
  // kDeadlineMs (--defaults; see ServedOptions).
  bool default_stall_timeout = false;
};

constexpr int kBurst = 5;
constexpr int64_t kDeadlineMs = 30'000;
constexpr int kUsers = 3;  // WorkloadOptions::num_users
constexpr uint64_t kQuerySeed = 1;  // draws every run's query multiset
// Set-ups per served run; run.py reports their median as setup_s.
constexpr int kSetups = 15;

bool FindWorkload(const std::string& name, Workload* w) {
  if (name == "gus-partitioned") {
    *w = Workload{false, 1000, 2, true, 0, false, 3, 4, 0, true};
  } else if (name == "gus-repeat-spill") {
    *w = Workload{false, 1000, 1, false, 64 << 10, true, 3, 4, 12, true};
  } else if (name == "pfam-partitioned") {
    // Not in BENCHMARK.json: it returns wrong answers now and then, with
    // temporal reuse off too (README, "Known defects").
    *w = Workload{true, 2000, 2, true, 0, false, 4, 2, 0, false};
  } else {
    return false;
  }
  return true;
}

/// Pfam/InterPro at scale 3 as in the paper benches' PfamDefaults; GUS
/// in the shape the differential fuzz harness checks warm reuse and
/// spill on (src/sim/runner.cc: 80 relations of 60-180 rows).
Status BuildDataset(const Workload& w, Engine& e) {
  if (w.pfam) {
    PfamOptions pfam;
    pfam.scale = 3.0;
    return BuildPfamDataset(e, pfam);
  }
  GusOptions gus;
  gus.num_relations = 80;
  gus.min_rows = 60;
  gus.max_rows = 180;
  gus.seed = 3;
  return BuildGusDataset(e, gus);
}

CandidateGenOptions GenTemplate(const Workload& w) {
  CandidateGenOptions gen;
  gen.max_cqs = w.max_cqs;
  gen.max_matches_per_keyword = w.max_matches_per_keyword;
  return gen;
}

/// Per-user candidate-generation options, exactly as GenerateBioWorkload
/// assigns them (users 1..kUsers cycle through the workload).
std::vector<CandidateGenOptions> UserOptions(const Workload& w) {
  WorkloadOptions wopts;
  wopts.num_queries = kUsers;
  wopts.gen = GenTemplate(w);
  std::vector<CandidateGenOptions> out;
  for (const WorkloadQuery& q : GenerateBioWorkload({"a", "b"}, wopts)) {
    out.push_back(q.options);
  }
  return out;
}

/// The served configuration: default ServiceOptions except the
/// workload's QConfig fields, the per-query deadline and the stall
/// timeout. The default 1 s stall timeout declares a shard stalled
/// whenever one drain segment (a whole batch's execution) or one
/// optimizer run takes longer, or when a shard that finished its part
/// of a scattered query idles while another shard works on; the shard
/// then stays down and every later query fails. Those verdicts depend
/// on timing, so the benchmark waits as long as a query may wait
/// (kDeadlineMs) before it calls a shard stalled.
ServiceOptions ServedOptions(const Workload& w, const std::string& spill_dir) {
  ServiceOptions options;
  options.default_deadline_ms = kDeadlineMs;
  if (!w.default_stall_timeout) options.stall_timeout_ms = kDeadlineMs;
  QConfig& c = options.config;
  c.sharing = SharingConfig::kAtcFull;
  c.batch_size = kBurst;
  c.batch_window_us = 50'000;
  c.num_shards = w.num_shards;
  c.temporal_reuse = w.temporal_reuse;
  if (w.partitioned) c.placement = PlacementMode::kPartitioned;
  if (w.memory_budget_bytes > 0) c.memory_budget_bytes = w.memory_budget_bytes;
  if (w.spill) c.spill_dir = spill_dir;
  return options;
}

struct ScheduledQuery {
  int64_t send_ms = 0;
  int user = 1;
  std::string keywords;
};

/// The arrival schedule of one run. The bursts (which queries share a
/// batch) are fixed per workload and schedule length, drawn with
/// kQuerySeed; `seed` orders them. Runs with different seeds thus do
/// the same batches in a different order. Drawing the queries per seed
/// made one run's cost swing by a factor of three with the few
/// expensive queries it drew, and regrouping them per seed moved the
/// median latency by 40%.
std::vector<ScheduledQuery> GenerateSchedule(const Workload& w, uint64_t seed,
                                             double seconds) {
  const int bursts = std::max<int>(
      1, static_cast<int>(seconds * 1000.0 / w.burst_interval_ms + 0.5));
  const int n = bursts * kBurst;

  std::vector<std::string> vocabulary = BioVocabulary();
  if (w.pfam) {
    // Keywords only from terms that match the data, as the paper's
    // real-data workload chose them (bench PfamDefaults).
    Engine probe{QConfig{}};
    Status built = BuildDataset(w, probe);
    if (!built.ok()) {
      fprintf(stderr, "dataset build failed: %s\n", built.ToString().c_str());
      std::exit(2);
    }
    std::vector<std::string> matching;
    for (const std::string& term : vocabulary) {
      if (!probe.inverted_index().Lookup(term).empty()) {
        matching.push_back(term);
      }
    }
    if (matching.size() >= 2) vocabulary = std::move(matching);
  }

  WorkloadOptions wopts;
  wopts.seed = kQuerySeed;
  wopts.gen = GenTemplate(w);
  std::vector<WorkloadQuery> drawn;
  if (w.pool_size == 0) {
    wopts.num_queries = n;
    drawn = GenerateBioWorkload(vocabulary, wopts);
  } else {
    // A pool of distinct queries, then Zipf(1) draws from it: the head
    // of the pool repeats across bursts.
    wopts.num_queries = 8 * w.pool_size;
    std::vector<WorkloadQuery> pool;
    std::set<std::pair<int, std::string>> seen;
    for (WorkloadQuery& q : GenerateBioWorkload(vocabulary, wopts)) {
      if (static_cast<int>(pool.size()) == w.pool_size) break;
      if (seen.insert({q.user_id, q.keywords}).second) {
        pool.push_back(std::move(q));
      }
    }
    Rng rng(kQuerySeed ^ 0x5bd1e9955bd1e995ull);
    ZipfTable zipf(pool.size(), 1.0);
    for (int i = 0; i < n; ++i) drawn.push_back(pool[zipf.Sample(rng)]);
  }
  std::vector<int> burst_order(bursts);
  for (int b = 0; b < bursts; ++b) burst_order[b] = b;
  Rng order(seed);
  for (int b = bursts - 1; b > 0; --b) {
    std::swap(burst_order[b],
              burst_order[order.NextUint(static_cast<uint64_t>(b) + 1)]);
  }

  std::vector<ScheduledQuery> schedule;
  for (int b = 0; b < bursts; ++b) {
    for (int j = 0; j < kBurst; ++j) {
      const WorkloadQuery& drawn_q = drawn[burst_order[b] * kBurst + j];
      ScheduledQuery q;
      q.send_ms = b * w.burst_interval_ms;
      q.user = drawn_q.user_id;
      q.keywords = drawn_q.keywords;
      schedule.push_back(std::move(q));
    }
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Small helpers: files, JSON, timing

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return "\"" + out + "\"";
}

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Flat JSON object writer: one "key": value per call.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + JsonEscape(key) + ": " + value;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonEscape(v));
  }
  JsonObject& Val(const std::string& key, double v) { return Raw(key, Num(v)); }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\n " : "") + items[i];
  }
  return out + "]";
}

/// One-line array of numbers (journal lines hold one object each).
std::string NumArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.flush();
  return static_cast<bool>(f);
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// FNV-1a 64 of the canonical result rendering, as hex: compact and
/// stable across processes, so answers compare by string.
std::string AnswerFingerprint(const std::vector<ResultTuple>& results) {
  char buf[48];
  snprintf(buf, sizeof(buf), "%016" PRIx64 "-%zu",
           Fnv1a64(FingerprintResults(results)), results.size());
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Schedule files: one "send_ms<TAB>user<TAB>keywords" line per query.
bool WriteSchedule(const std::string& path,
                   const std::vector<ScheduledQuery>& schedule) {
  std::string text;
  for (const ScheduledQuery& q : schedule) {
    text += std::to_string(q.send_ms) + "\t" + std::to_string(q.user) + "\t" +
            q.keywords + "\n";
  }
  return WriteFile(path, text);
}

std::vector<ScheduledQuery> ReadSchedule(const std::string& path) {
  std::vector<ScheduledQuery> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    ScheduledQuery q;
    q.send_ms = std::stoll(line.substr(0, a));
    q.user = std::stoi(line.substr(a + 1, b - a - 1));
    q.keywords = line.substr(b + 1);
    out.push_back(std::move(q));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Served run

/// Append-only record of a served run, one JSON object per line, each
/// flushed as it is written: a process that dies mid-run leaves every
/// send and resolution it got to, and run.py counts the rest as lost.
///   {"kind": "setup", "setup_s": [...]}
///   {"kind": "sent", "i", "sched_ms", "sent_ms", "submit_us", "uq"}
///       (a refused submit carries "rejected", "status" and
///       "resolved_ms" instead of "uq")
///   {"kind": "resolved", "uq", "resolved_ms", "status", "degraded",
///    "retries", "fp", "cpu_s", "rss_mb"}
///   {"kind": "end", "window_s", "window_cpu_s", "peak_rss_mb"}
class Journal {
 public:
  explicit Journal(const std::string& path)
      : f_(std::fopen(path.c_str(), "w")) {}
  ~Journal() {
    if (f_ != nullptr) std::fclose(f_);
  }
  bool ok() const { return f_ != nullptr; }
  void Write(const JsonObject& o) {
    const std::string line = o.Render() + "\n";
    std::lock_guard<std::mutex> lock(mu_);
    std::fwrite(line.data(), 1, line.size(), f_);
    std::fflush(f_);
  }

 private:
  std::mutex mu_;
  std::FILE* f_;
};

struct QueryRecord {
  double submit_us = 0;
  std::string status;  // "" = OK
};

struct ServedRun {
  std::vector<QueryRecord> queries;
  double window_s = 0;
  double peak_rss_mb = 0;
};

struct SetupTiming {
  double build_s = 0;
  double start_s = 0;
};

std::unique_ptr<QueryService> BuildService(const Workload& w,
                                           const std::string& spill_dir,
                                           SetupTiming* timing) {
  auto service = std::make_unique<QueryService>(ServedOptions(w, spill_dir));
  const Clock::time_point t0 = Clock::now();
  Status s = service->BuildEachEngine(
      [&w](Engine& e) { return BuildDataset(w, e); });
  timing->build_s = SecondsSince(t0);
  if (s.ok()) {
    const Clock::time_point t1 = Clock::now();
    s = service->Start();
    timing->start_s = SecondsSince(t1);
  }
  if (!s.ok()) {
    fprintf(stderr, "service set-up failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  return service;
}

/// Replays `schedule` open loop: one thread sends each burst at its
/// scheduled offset whatever the service is doing; the result sink
/// stamps and journals each resolution as it happens.
void ServeSchedule(QueryService& service, const Workload& w,
                   const std::vector<ScheduledQuery>& schedule,
                   Journal* journal, ServedRun* run) {
  run->queries.assign(schedule.size(), QueryRecord{});
  std::vector<QueryTicket> tickets(schedule.size());
  std::mutex mu;
  std::condition_variable delivered;
  std::map<int, std::string> resolved;  // uq id -> status
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last = t0;
  CallbackSink sink([&](const QueryOutcome& out) {
    const Clock::time_point at = Clock::now();
    const std::string status = out.status.ok() ? "" : out.status.ToString();
    JsonObject o;
    o.Str("kind", "resolved")
        .Val("uq", out.uq_id)
        .Val("resolved_ms", MsBetween(t0, at))
        .Str("status", status)
        .Val("degraded", out.degraded ? 1 : 0)
        .Val("retries", out.retries)
        .Str("fp", out.status.ok() ? AnswerFingerprint(out.results) : "")
        .Val("cpu_s", CpuSeconds() - cpu0)
        .Val("rss_mb", PeakRssMb());
    journal->Write(o);
    std::lock_guard<std::mutex> lock(mu);
    resolved[out.uq_id] = status;
    last = std::max(last, at);
    delivered.notify_all();
  });
  service.set_result_sink(&sink);

  const std::vector<CandidateGenOptions> users = UserOptions(w);
  std::vector<SessionId> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(
        service.OpenSession("user-" + std::to_string(u + 1), users[u]).value());
  }

  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledQuery& q = schedule[i];
    std::this_thread::sleep_until(t0 + std::chrono::milliseconds(q.send_ms));
    const Clock::time_point sent = Clock::now();
    auto ticket = service.Submit(sessions[q.user - 1], q.keywords);
    const Clock::time_point after = Clock::now();
    QueryRecord& rec = run->queries[i];
    rec.submit_us = 1000.0 * MsBetween(sent, after);
    JsonObject o;
    o.Str("kind", "sent")
        .Val("i", static_cast<double>(i))
        .Val("sched_ms", static_cast<double>(q.send_ms))
        .Val("sent_ms", MsBetween(t0, sent))
        .Val("submit_us", rec.submit_us);
    if (ticket.ok()) {
      tickets[i] = std::move(ticket).value();
      o.Val("uq", tickets[i].uq_id());
    } else {
      rec.status = ticket.status().ToString();
      o.Val("rejected", 1)
          .Str("status", rec.status)
          .Val("resolved_ms", MsBetween(t0, after));
      std::lock_guard<std::mutex> lock(mu);
      last = std::max(last, after);
    }
    journal->Write(o);
  }
  // The service fulfils a ticket just before it calls the sink, so wait
  // for the sink's record of every ticket, not for the tickets.
  std::unique_lock<std::mutex> lock(mu);
  delivered.wait(lock, [&] {
    for (const QueryTicket& t : tickets) {
      if (t.valid() && resolved.count(t.uq_id()) == 0) return false;
    }
    return true;
  });
  const double window_cpu_s = CpuSeconds() - cpu0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i].valid()) {
      run->queries[i].status = resolved[tickets[i].uq_id()];
    }
  }
  run->window_s = std::chrono::duration<double>(last - t0).count();
  lock.unlock();
  service.set_result_sink(nullptr);
  run->peak_rss_mb = PeakRssMb();
  JsonObject end;
  end.Str("kind", "end")
      .Val("window_s", run->window_s)
      .Val("window_cpu_s", window_cpu_s)
      .Val("peak_rss_mb", run->peak_rss_mb);
  journal->Write(end);
}

std::string FreshSpillDir(const std::string& base) {
  const std::string dir =
      base + "/spill-" + std::to_string(::getpid()) + "-" +
      std::to_string(Clock::now().time_since_epoch().count() % 1000000007);
  std::filesystem::create_directories(dir);
  return dir;
}

int RunServe(const Workload& w, const std::vector<ScheduledQuery>& schedule,
             const std::string& journal_path, const std::string& scratch) {
  Journal journal(journal_path);
  if (!journal.ok()) {
    fprintf(stderr, "cannot write %s\n", journal_path.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  std::unique_ptr<QueryService> service;
  std::vector<std::string> spill_dirs;
  for (int i = 0; i < kSetups; ++i) {
    if (service != nullptr) {
      (void)service->Shutdown();
      service.reset();
    }
    spill_dirs.push_back(w.spill ? FreshSpillDir(scratch) : "");
    SetupTiming timing;
    service = BuildService(w, spill_dirs.back(), &timing);
    setup_s.push_back(timing.build_s + timing.start_s);
  }
  JsonObject setup;
  setup.Str("kind", "setup").Raw("setup_s", NumArray(setup_s));
  journal.Write(setup);
  ServedRun run;
  ServeSchedule(*service, w, schedule, &journal, &run);

  // Everything measured is in the journal before teardown starts; a
  // crash while the service shuts down shows in the exit status.
  Status down = service->Shutdown();
  service.reset();
  for (const std::string& d : spill_dirs) {
    if (!d.empty()) std::filesystem::remove_all(d);
  }
  if (!down.ok()) {
    fprintf(stderr, "shutdown: %s\n", down.ToString().c_str());
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Oracle

int RunOracle(const Workload& w, const std::vector<ScheduledQuery>& schedule,
              const std::string& need_path, const std::string& out_path) {
  std::vector<int> need;
  {
    std::ifstream f(need_path);
    int i;
    while (f >> i) need.push_back(i);
  }
  ServiceOptions options;
  options.manual_pump = true;
  options.config.sharing = SharingConfig::kAtcFull;
  options.config.batch_size = 1;
  options.config.batch_window_us = 0;
  options.config.num_shards = 1;
  options.config.exec_threads = 1;
  options.config.memory_budget_bytes = int64_t{1} << 50;
  // Each reference answer comes from its own reads only, never from
  // state an earlier reference query left behind.
  options.config.temporal_reuse = false;
  QueryService service(options);
  Status s = service.BuildEachEngine(
      [&w](Engine& e) { return BuildDataset(w, e); });
  if (s.ok()) s = service.Start();
  if (!s.ok()) {
    fprintf(stderr, "oracle set-up failed: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::vector<CandidateGenOptions> users = UserOptions(w);
  std::vector<SessionId> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(
        service.OpenSession("oracle-" + std::to_string(u + 1), users[u])
            .value());
  }
  std::vector<std::string> items;
  for (int i : need) {
    const ScheduledQuery& q = schedule.at(static_cast<size_t>(i));
    auto ticket = service.Submit(sessions[q.user - 1], q.keywords);
    if (!ticket.ok()) {
      fprintf(stderr, "oracle submit failed: %s\n",
              ticket.status().ToString().c_str());
      return 2;
    }
    while (ticket.value().future().wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      s = service.PumpOnce();
      if (!s.ok()) {
        fprintf(stderr, "oracle pump failed: %s\n", s.ToString().c_str());
        return 2;
      }
    }
    const QueryOutcome& out = ticket.value().Wait();
    JsonObject o;
    o.Val("i", i).Str("status", out.status.ok() ? "" : out.status.ToString());
    o.Str("fp", out.status.ok() ? AnswerFingerprint(out.results) : "");
    items.push_back(o.Render());
  }
  (void)service.Shutdown();
  return WriteFile(out_path, JsonArray(items) + "\n") ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Traced run

struct Span {
  std::string name;
  std::string layer;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  int uq = -1;
  int64_t arg = 0;
};

/// In-memory spans around the benchmark's own calls into the engine,
/// written out only at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point t0) : t0_(t0) {}
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - t0_)
        .count();
  }
  void Add(Span s) { spans_.push_back(std::move(s)); }
  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

std::string ChromeTrace(const std::vector<Span>& spans) {
  std::vector<std::string> events;
  for (const Span& s : spans) {
    JsonObject args;
    args.Val("uq", s.uq).Val("n", static_cast<double>(s.arg));
    JsonObject e;
    e.Str("name", s.name)
        .Str("cat", s.layer)
        .Str("ph", "X")
        .Val("ts", static_cast<double>(s.ts_us))
        .Val("dur", static_cast<double>(s.dur_us))
        .Val("pid", 1)
        .Val("tid", 1)
        .Raw("args", args.Render());
    events.push_back(e.Render());
  }
  return "{\"traceEvents\": " + JsonArray(events) + "}\n";
}

/// Per-layer self time: a span's duration minus the part its child spans
/// cover. The only nesting is the optimizer run inside its batch flush
/// (layer "opt" inside layer "qs").
std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans) {
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    self[s.layer] += s.dur_us / 1000.0;
    if (s.layer == "opt") self["qs"] -= s.dur_us / 1000.0;
  }
  return self;
}

/// Calibrates one span record (two clock reads plus an append) so the
/// tracing overhead of the replay can be stated next to its numbers.
double SpanCostUs() {
  SpanLog log(Clock::now());
  constexpr int kN = 200'000;
  log.spans().reserve(kN);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    const int64_t a = log.NowUs();
    log.Add(Span{"calibrate", "obs", a, log.NowUs() - a, i, 0});
  }
  return 1e6 * SecondsSince(t0) / kN;
}

/// exec.* and source.* work counters per fully completed query.
void AddWorkCounters(const ExecStats& st, double answers,
                     std::map<std::string, double>* m) {
  (*m)["exec.join_probes_per_answer"] = st.join_probes / answers;
  (*m)["exec.useful_output_ratio"] =
      st.join_outputs ? static_cast<double>(st.results_emitted) / st.join_outputs
                      : 0;
  (*m)["source.tuples_streamed_per_answer"] = st.tuples_streamed / answers;
  (*m)["source.probes_per_answer"] = st.probes_issued / answers;
  // Cache hits are probes answered without reaching the source.
  const int64_t lookups = st.probes_issued + st.probe_cache_hits;
  (*m)["source.probe_cache_hit_ratio"] =
      lookups ? static_cast<double>(st.probe_cache_hits) / lookups : 0;
}

/// The same calibration for the service's own tracer (one span record
/// into its per-thread ring).
double TracerCostUs() {
  Tracer tracer(1 << 16);
  constexpr int kN = 200'000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    tracer.Span(TraceEventType::kAtcExec, tracer.NowUs(), 1, 0, i);
  }
  return 1e6 * SecondsSince(t0) / kN;
}

struct ReplayResult {
  std::map<std::string, double> layer;  // per-layer metric values
  std::vector<Span> spans;
};

/// Replays the schedule on one Engine in virtual time: arrivals at their
/// scheduled offsets, so batches form exactly as in the served run.
/// Takes no step after `deadline` (the last one may overrun it).
ReplayResult ReplayOnEngine(const Workload& w,
                            const std::vector<ScheduledQuery>& schedule,
                            const std::string& scratch,
                            Clock::time_point deadline) {
  ReplayResult out;
  const std::string spill_dir = w.spill ? FreshSpillDir(scratch) : "";
  QConfig config = ServedOptions(w, spill_dir).config;
  config.num_shards = 1;
  Engine engine(config);
  Status s = BuildDataset(w, engine);
  if (!s.ok()) {
    fprintf(stderr, "replay build failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  std::vector<double> gen_ms, opt_ms, graft_ms;
  double cqs = 0;
  int64_t peak_cache = 0, nodes = 0, budget_hits = 0, opt_batches = 0;
  double atc_total_ms = 0;
  int64_t rounds = 0;
  bool truncated = false;

  const std::vector<CandidateGenOptions> users = UserOptions(w);
  const Clock::time_point t0 = Clock::now();
  SpanLog log(t0);
  size_t next = 0;
  Span segment;  // consecutive ATC rounds merge into one span
  auto close_segment = [&] {
    if (segment.arg > 0) log.Add(segment);
    segment = Span{};
  };
  while (true) {
    if (Clock::now() > deadline) {
      truncated = true;
      break;
    }
    const VirtualTime horizon =
        next < schedule.size() ? schedule[next].send_ms * 1000
                               : Engine::kNeverUs;
    Engine::StepOptions so;
    so.arrival_horizon = horizon;
    const int64_t a = log.NowUs();
    const size_t recs_before = engine.optimization_records().size();
    auto step = engine.Step(so);
    const int64_t dur = log.NowUs() - a;
    if (!step.ok()) {
      fprintf(stderr, "replay step failed: %s\n",
              step.status().ToString().c_str());
      std::exit(2);
    }
    peak_cache = std::max(peak_cache, engine.state_manager().TotalCacheBytes());
    const Engine::StepKind kind = step.value().kind;
    if (kind == Engine::StepKind::kAtcRound) {
      if (segment.arg == 0) segment = Span{"atc_rounds", "exec", a, 0, -1, 0};
      segment.dur_us = a + dur - segment.ts_us;
      segment.arg += 1;
      atc_total_ms += dur / 1000.0;
      ++rounds;
      continue;
    }
    close_segment();
    if (kind == Engine::StepKind::kFlushed) {
      double opt_s = 0;
      const auto& recs = engine.optimization_records();
      for (size_t r = recs_before; r < recs.size(); ++r) {
        opt_s += recs[r].wall_seconds;
        nodes += recs[r].nodes_explored;
        budget_hits += recs[r].nodes_explored >=
                               config.pruning.search_node_budget
                           ? 1
                           : 0;
        ++opt_batches;
      }
      const int64_t opt_us = static_cast<int64_t>(opt_s * 1e6);
      log.Add(Span{"flush", "qs", a, dur, -1, 0});
      log.Add(Span{"optimize", "opt", a, std::min(opt_us, dur), -1, 0});
      opt_ms.push_back(opt_s * 1000.0);
      graft_ms.push_back(std::max(0.0, dur / 1000.0 - opt_s * 1000.0));
      continue;
    }
    // Idle: the engine waits for the next arrival (or is done).
    if (next >= schedule.size()) break;
    const int64_t burst_ms = schedule[next].send_ms;
    while (next < schedule.size() && schedule[next].send_ms == burst_ms) {
      const ScheduledQuery& q = schedule[next];
      const int64_t g0 = log.NowUs();
      auto uq = engine.GenerateCandidates(q.keywords, users[q.user - 1]);
      const int64_t g1 = log.NowUs();
      const int uq_id = engine.AllocateUqId();
      log.Add(Span{"generate_candidates", "keyword", g0, g1 - g0, uq_id, 0});
      gen_ms.push_back((g1 - g0) / 1000.0);
      if (uq.ok()) {
        UserQuery prepared = std::move(uq).value();
        cqs += static_cast<double>(prepared.cqs.size());
        prepared.id = uq_id;
        prepared.user_id = q.user;
        Status in = engine.IngestPrepared(std::move(prepared),
                                          burst_ms * 1000);
        log.Add(Span{"ingest", "qs", g1, log.NowUs() - g1, uq_id, 0});
        if (!in.ok()) {
          fprintf(stderr, "replay ingest failed: %s\n", in.ToString().c_str());
          std::exit(2);
        }
      }
      ++next;
    }
  }
  close_segment();
  const double wall_s = SecondsSince(t0);
  out.spans = std::move(log.spans());

  const ExecStats st = engine.aggregate_stats();
  const SpillStats sp = engine.spill_stats();
  const double answers = std::max<double>(1, engine.metrics().size());
  const double wall_ms = wall_s * 1000.0;
  std::map<std::string, double> self = SelfTimeMs(out.spans);
  auto& m = out.layer;
  m["keyword.gen_ms_p50"] = Median(gen_ms);
  m["keyword.cqs_per_query"] = cqs / std::max<size_t>(1, gen_ms.size());
  m["opt.batch_ms_p50"] = Median(opt_ms);
  m["opt.batch_ms_max"] =
      opt_ms.empty() ? 0 : *std::max_element(opt_ms.begin(), opt_ms.end());
  m["opt.nodes_per_batch"] =
      static_cast<double>(nodes) / std::max<int64_t>(1, opt_batches);
  m["opt.node_budget_hit_share"] =
      static_cast<double>(budget_hits) / std::max<int64_t>(1, opt_batches);
  m["opt.wall_share"] = self["opt"] / wall_ms;
  double graft_total = 0;
  for (double g : graft_ms) graft_total += g;
  m["qs.graft_ms_per_batch"] = graft_total / std::max<size_t>(1, graft_ms.size());
  m["qs.wall_share"] = self["qs"] / wall_ms;
  m["qs.shared_tuples_per_answer"] =
      static_cast<double>(st.tuples_shared_served) / answers;
  m["qs.ops_reused"] = static_cast<double>(engine.grafter().ops_reused());
  m["qs.evictions"] = static_cast<double>(engine.state_manager().evictions());
  m["qs.cache_bytes_peak"] = static_cast<double>(peak_cache);
  m["exec.rounds"] = static_cast<double>(rounds);
  m["exec.round_us_mean"] = rounds ? 1000.0 * atc_total_ms / rounds : 0;
  m["exec.wall_share"] = self["exec"] / wall_ms;
  AddWorkCounters(st, answers, &m);
  m["buffer.items_spilled"] = static_cast<double>(sp.items_spilled);
  m["buffer.items_restored"] = static_cast<double>(sp.items_restored);
  m["buffer.pages_read"] = static_cast<double>(sp.pages_read);
  m["buffer.pages_written"] = static_cast<double>(sp.pages_written);
  m["buffer.spill_faults"] = static_cast<double>(sp.spill_faults);
  int64_t recorded = 0;
  for (const Span& span : out.spans) recorded += std::max<int64_t>(1, span.arg);
  m["obs.span_overhead_share"] = SpanCostUs() * recorded / (1e6 * wall_s);
  m["replay.answers"] = static_cast<double>(engine.metrics().size());
  m["replay.wall_s"] = wall_s;
  m["replay.truncated"] = truncated ? 1 : 0;
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
  return out;
}

/// Per-layer numbers of a service replay: per-shard snapshots and engine
/// counters, plus the spans the service's own tracer recorded (optimize,
/// graft, per-ATC execution with its round count), which also become
/// the replay's spans. Only for a manual-pump service, whose engines no
/// executor thread touches while this reads them.
std::map<std::string, double> LayersFromService(QueryService& service,
                                                double wall_s,
                                                std::vector<Span>* spans) {
  std::map<std::string, double> m;
  ExecStats st;
  SpillStats sp;
  int64_t ops_reused = 0, evictions = 0;
  for (int i = 0; i < service.num_shards(); ++i) {
    st.Merge(service.shard_stats(i));
    Engine& e = service.shard_engine(i);
    const SpillStats s = e.spill_stats();
    sp.items_spilled += s.items_spilled;
    sp.items_restored += s.items_restored;
    sp.pages_read += s.pages_read;
    sp.pages_written += s.pages_written;
    sp.spill_faults += s.spill_faults;
    ops_reused += e.grafter().ops_reused();
    evictions += e.state_manager().evictions();
  }
  const double answers =
      std::max<double>(1, service.counters().completed.load());

  std::vector<double> opt_ms;
  double opt_total = 0, flush_total = 0, graft_total = 0, atc_total = 0;
  int64_t flushes = 0, rounds = 0;
  const std::vector<TraceEvent> events = service.tracer()->Snapshot();
  for (const TraceEvent& ev : events) {
    const double ms = ev.dur_us / 1000.0;
    const char* layer = nullptr;
    switch (ev.type) {
      case TraceEventType::kOptimize:
        opt_ms.push_back(ms);
        opt_total += ms;
        layer = "opt";
        break;
      case TraceEventType::kFlush:
        flush_total += ms;
        ++flushes;
        layer = "qs";
        break;
      case TraceEventType::kGraft:
        graft_total += ms;
        break;
      case TraceEventType::kAtcExec:
        atc_total += ms;
        rounds += ev.arg;
        layer = "exec";
        break;
      case TraceEventType::kSpillDemote:
      case TraceEventType::kSpillRestore:
        layer = "buffer";
        break;
      default:
        break;
    }
    if (layer != nullptr) {
      spans->push_back(Span{TraceEventTypeName(ev.type), layer, ev.ts_us,
                            ev.dur_us, ev.uq_id, ev.arg});
    }
  }
  const double wall_ms = std::max(1.0, 1000.0 * wall_s);
  m["opt.batch_ms_p50"] = Median(opt_ms);
  m["opt.batch_ms_max"] =
      opt_ms.empty() ? 0 : *std::max_element(opt_ms.begin(), opt_ms.end());
  // Serving engines keep no optimization history, so search-node counts
  // are not exported on this path.
  m["opt.nodes_per_batch"] = 0;
  m["opt.node_budget_hit_share"] = 0;
  m["opt.wall_share"] = opt_total / wall_ms;
  m["qs.graft_ms_per_batch"] = graft_total / std::max<int64_t>(1, flushes);
  m["qs.wall_share"] = std::max(0.0, flush_total - opt_total) / wall_ms;
  m["qs.shared_tuples_per_answer"] = st.tuples_shared_served / answers;
  m["qs.ops_reused"] = static_cast<double>(ops_reused);
  m["qs.evictions"] = static_cast<double>(evictions);
  m["exec.rounds"] = static_cast<double>(rounds);
  m["exec.round_us_mean"] = rounds ? 1000.0 * atc_total / rounds : 0;
  m["exec.wall_share"] = atc_total / wall_ms;
  AddWorkCounters(st, answers, &m);
  m["buffer.items_spilled"] = static_cast<double>(sp.items_spilled);
  m["buffer.items_restored"] = static_cast<double>(sp.items_restored);
  m["buffer.pages_read"] = static_cast<double>(sp.pages_read);
  m["buffer.pages_written"] = static_cast<double>(sp.pages_written);
  m["buffer.spill_faults"] = static_cast<double>(sp.spill_faults);
  m["obs.span_overhead_share"] =
      TracerCostUs() * static_cast<double>(events.size()) / (1000.0 * wall_ms);
  return m;
}

/// Replays the schedule on a manual-pump copy of the served service
/// (same options, its tracer on). One thread pumping the shards in turn
/// cannot keep up with the open-loop schedule, and a backlog makes one
/// pump run for minutes, so the bursts go in back to back, each once the
/// previous one has resolved; a burst is one batch either way. No
/// executor thread exists, so the engines' cache size is read after
/// every pump (the peak) and their counters at the end, without a race.
/// Pumps no more after `deadline` (the last pump may overrun it).
ReplayResult ReplayOnService(const Workload& w,
                             const std::vector<ScheduledQuery>& schedule,
                             const std::string& scratch,
                             Clock::time_point deadline) {
  ReplayResult out;
  const std::string spill_dir = w.spill ? FreshSpillDir(scratch) : "";
  ServiceOptions options = ServedOptions(w, spill_dir);
  options.manual_pump = true;
  options.config.trace_buffer_events = 1 << 16;
  QueryService service(options);
  Status s = service.BuildEachEngine(
      [&w](Engine& e) { return BuildDataset(w, e); });
  if (s.ok()) s = service.Start();
  if (!s.ok()) {
    fprintf(stderr, "replay set-up failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  const std::vector<CandidateGenOptions> users = UserOptions(w);
  std::vector<SessionId> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(
        service.OpenSession("user-" + std::to_string(u + 1), users[u]).value());
  }
  std::vector<QueryTicket> burst;
  int64_t peak_cache = 0;
  bool truncated = false;
  size_t next = 0;
  const Clock::time_point t0 = Clock::now();
  while (true) {
    const bool pending =
        std::any_of(burst.begin(), burst.end(), [](const QueryTicket& t) {
          return t.future().wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready;
        });
    if (!pending) {
      if (next >= schedule.size()) break;
      burst.clear();
      const int64_t burst_ms = schedule[next].send_ms;
      for (; next < schedule.size() && schedule[next].send_ms == burst_ms;
           ++next) {
        const ScheduledQuery& q = schedule[next];
        auto ticket = service.Submit(sessions[q.user - 1], q.keywords);
        if (ticket.ok()) burst.push_back(std::move(ticket).value());
      }
      continue;
    }
    if (Clock::now() > deadline) {
      truncated = true;
      break;
    }
    s = service.PumpOnce();
    if (!s.ok()) {
      fprintf(stderr, "replay pump failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    for (int i = 0; i < service.num_shards(); ++i) {
      peak_cache = std::max(
          peak_cache, service.shard_engine(i).state_manager().TotalCacheBytes());
    }
  }
  const double wall_s = SecondsSince(t0);
  out.layer = LayersFromService(service, wall_s, &out.spans);
  out.layer["qs.cache_bytes_peak"] = static_cast<double>(peak_cache);
  out.layer["replay.answers"] =
      static_cast<double>(service.counters().completed.load());
  out.layer["replay.wall_s"] = wall_s;
  out.layer["replay.truncated"] = truncated ? 1 : 0;
  // A truncated replay's leftovers are cancelled, not drained.
  (void)service.Shutdown(QueryService::ShutdownMode::kCancelPending);
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
  return out;
}

/// Times Engine::GenerateCandidates for every scheduled query on a
/// standalone replicated engine (shard engines of a partitioned service
/// hold only their slice).
void TimeCandidateGeneration(const Workload& w,
                             const std::vector<ScheduledQuery>& schedule,
                             ReplayResult* out) {
  Engine engine{QConfig{}};
  Status s = BuildDataset(w, engine);
  if (!s.ok()) {
    fprintf(stderr, "keyword engine build failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  const std::vector<CandidateGenOptions> users = UserOptions(w);
  SpanLog log(Clock::now());
  std::vector<double> gen_ms;
  double cqs = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int64_t a = log.NowUs();
    auto uq = engine.GenerateCandidates(schedule[i].keywords,
                                        users[schedule[i].user - 1]);
    const int64_t d = log.NowUs() - a;
    log.Add(Span{"generate_candidates", "keyword", a, d, static_cast<int>(i), 0});
    gen_ms.push_back(d / 1000.0);
    if (uq.ok()) cqs += static_cast<double>(uq.value().cqs.size());
  }
  out->layer["keyword.gen_ms_p50"] = Median(gen_ms);
  out->layer["keyword.cqs_per_query"] =
      cqs / std::max<size_t>(1, schedule.size());
  for (Span& span : log.spans()) out->spans.push_back(std::move(span));
}

/// shard.* and serve.* numbers of a served run, all read through the
/// service's thread-safe exports.
std::map<std::string, double> ServingLayers(QueryService& service,
                                            const ServedRun& run) {
  std::map<std::string, double> m;
  const auto queue =
      service.metrics().AggregateSnapshot(ServiceMetric::kQueueWait);
  const auto epoch =
      service.metrics().AggregateSnapshot(ServiceMetric::kEpochDuration);
  int64_t local = 0, scatter = 0;
  for (int i = 0; i < service.num_shards(); ++i) {
    local += service.shard_routes(i).local;
    scatter += service.shard_routes(i).scatter;
  }
  const ServiceCounters& c = service.counters();
  std::vector<double> submit_us;
  int64_t unavailable = 0;
  for (const QueryRecord& q : run.queries) {
    submit_us.push_back(q.submit_us);
    if (q.status.rfind("Unavailable", 0) == 0) ++unavailable;
  }
  m["shard.queue_wait_ms_p50"] = queue.p50_us / 1000.0;
  m["shard.epoch_ms_p50"] = epoch.p50_us / 1000.0;
  m["shard.epoch_ms_max"] = epoch.max_us / 1000.0;
  m["shard.scatter_share"] =
      local + scatter ? static_cast<double>(scatter) / (local + scatter) : 0;
  m["shard.cross_shard_merges"] = static_cast<double>(c.cross_shard_merges.load());
  m["serve.submit_us_p50"] = Median(submit_us);
  m["serve.rejected"] = static_cast<double>(c.rejected.load());
  m["serve.retries"] = static_cast<double>(c.retries.load());
  m["serve.unavailable"] = static_cast<double>(unavailable);
  m["serve.deadline_exceeded"] = static_cast<double>(c.deadline_exceeded.load());
  m["serve.degraded"] = static_cast<double>(c.degraded.load());
  m["process.peak_rss_mb"] = run.peak_rss_mb;
  return m;
}

int RunTrace(const Workload& w, const std::vector<ScheduledQuery>& schedule,
             const std::string& journal_path, const std::string& out_path,
             const std::string& trace_dir, const std::string& scratch,
             double budget_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<int64_t>(1000.0 * budget_s));
  std::map<std::string, double> m;

  // Served pass: shard.* and serve.* from the service's counters and
  // histograms; no engine internals are read from a threaded service.
  Journal journal(journal_path);
  if (!journal.ok()) {
    fprintf(stderr, "cannot write %s\n", journal_path.c_str());
    return 2;
  }
  const std::string spill_dir = w.spill ? FreshSpillDir(scratch) : "";
  SetupTiming timing;
  auto service = BuildService(w, spill_dir, &timing);
  m["storage.dataset_build_s"] = timing.build_s;
  m["core.start_s"] = timing.start_s;
  ServedRun run;
  ServeSchedule(*service, w, schedule, &journal, &run);

  // Replay on one thread for every other layer. The served service is
  // shut down afterwards: an executor still busy with a batch nobody
  // waits for finishes meanwhile instead of holding up a bounded drain.
  ReplayResult replay;
  if (w.num_shards == 1) {
    replay = ReplayOnEngine(w, schedule, scratch, deadline);
  } else {
    replay = ReplayOnService(w, schedule, scratch, deadline);
    TimeCandidateGeneration(w, schedule, &replay);
  }
  for (const auto& [k, v] : replay.layer) m[k] = v;
  (void)service->Shutdown();
  for (const auto& [k, v] : ServingLayers(*service, run)) m[k] = v;
  service.reset();
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);

  std::map<std::string, double> self = SelfTimeMs(replay.spans);
  double total = 0;
  for (const auto& [layer, ms] : self) total += ms;
  std::string table = "layer\tself_ms\tshare\n";
  for (const auto& [layer, ms] : self) {
    table += layer + "\t" + Num(ms) + "\t" + Num(total > 0 ? ms / total : 0) +
             "\n";
  }
  std::filesystem::create_directories(trace_dir);
  if (!WriteFile(trace_dir + "/trace.json", ChromeTrace(replay.spans)) ||
      !WriteFile(trace_dir + "/self_time.tsv", table)) {
    return 2;
  }
  JsonObject o;
  for (const auto& [k, v] : m) o.Val(k, v);
  return WriteFile(out_path, o.Render() + "\n") ? 0 : 2;
}

// ---------------------------------------------------------------------------

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: serve_bench schedule|serve|oracle|trace ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  Workload w;
  if (!FindWorkload(Flag(argc, argv, "workload"), &w)) {
    fprintf(stderr, "unknown workload\n");
    return 2;
  }
  if (Flag(argc, argv, "defaults") == "1") {
    w.temporal_reuse = true;
    w.default_stall_timeout = true;
  }
  const std::string out = Flag(argc, argv, "out");
  const std::string scratch = Flag(argc, argv, "scratch", ".");
  if (mode == "schedule") {
    const auto schedule =
        GenerateSchedule(w, std::stoull(Flag(argc, argv, "seed", "1")),
                         std::stod(Flag(argc, argv, "seconds", "10")));
    return WriteSchedule(out, schedule) ? 0 : 2;
  }
  const std::vector<ScheduledQuery> schedule =
      ReadSchedule(Flag(argc, argv, "schedule"));
  if (schedule.empty()) {
    fprintf(stderr, "empty or missing schedule\n");
    return 2;
  }
  if (mode == "serve") {
    return RunServe(w, schedule, Flag(argc, argv, "journal"), scratch);
  }
  if (mode == "oracle") {
    return RunOracle(w, schedule, Flag(argc, argv, "need"), out);
  }
  if (mode == "trace") {
    const std::string budget = Flag(argc, argv, "budget");
    if (budget.empty()) {
      fprintf(stderr, "trace needs --budget SECONDS\n");
      return 2;
    }
    return RunTrace(w, schedule, Flag(argc, argv, "journal"), out,
                    Flag(argc, argv, "trace-dir"), scratch, std::stod(budget));
  }
  fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
