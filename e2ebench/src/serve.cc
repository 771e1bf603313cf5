// serve-cold and serve-resubmit: closed-loop certify traffic into one
// in-process Server, plus (traced run) an outside replay of the server's
// certify path through the same public layer calls, and a single-client
// guard pass that proves the replay still matches the server.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "analysis/certificate.h"
#include "analysis/safety_checker.h"
#include "common/macros.h"
#include "core/canonical.h"
#include "core/schedule.h"
#include "inputs.h"
#include "io/text_format.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/verdict_cache.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using wydb::Result;
using wydb::Status;

/// The server configuration every serve workload uses: the defaults
/// (kIncremental, 128 entries, 5M states, fsync every 8 appends,
/// compaction slack 256) plus a journal.
wydb::ServerOptions ServeOptions(const std::string& journal) {
  wydb::ServerOptions o;
  o.journal_path = journal;
  return o;
}

/// Slice length for the per-slice medians of the untraced run.
constexpr double kSliceSeconds = 1.0;

/// Journal frame overhead: magic, length and CRC words (serve/journal.h).
constexpr uint64_t kFrameHeaderBytes = 12;

/// What one certify response said.
struct Answer {
  bool error = false;
  bool certified = false;
  std::string source;
  uint64_t states = 0;
  std::string witness;  ///< The `witness:` line's schedule, if refuted.
  std::string message;  ///< The error text, if any.
};

Answer ParseAnswer(const std::string& response) {
  Answer a;
  std::istringstream in(response);
  std::string line;
  bool verdict = false;
  while (std::getline(in, line)) {
    if (line.rfind("error: ", 0) == 0) {
      a.error = true;
      a.message = line.substr(7);
    } else if (line.rfind("verdict: ", 0) == 0) {
      verdict = true;
      std::istringstream toks(line.substr(9));
      std::string tok;
      while (toks >> tok) {
        const size_t eq = tok.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        if (key == "certified") a.certified = value == "yes";
        if (key == "source") a.source = value;
        if (key == "states") {
          a.states = std::strtoull(value.c_str(), nullptr, 10);
        }
      }
    } else if (line.rfind("witness: ", 0) == 0) {
      a.witness = line.substr(9);
    }
  }
  if (!verdict && !a.error) {
    a.error = true;
    a.message = "no verdict line";
  }
  return a;
}

/// Re-parses a `witness:` schedule in the request's own names.
Result<wydb::Schedule> ParseWitness(const wydb::TransactionSystem& sys,
                                    const std::string& text) {
  std::map<std::string, wydb::GlobalNode> label;
  for (int t = 0; t < sys.num_transactions(); ++t) {
    for (wydb::NodeId v = 0; v < sys.txn(t).num_steps(); ++v) {
      label[sys.NodeLabel(wydb::GlobalNode{t, v})] = wydb::GlobalNode{t, v};
    }
  }
  wydb::Schedule sched;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    auto it = label.find(tok);
    if (it == label.end()) {
      return Status::InvalidArgument("witness step '" + tok +
                                     "' not in system");
    }
    sched.push_back(it->second);
  }
  return sched;
}

/// Judges one server answer against the oracle; empty when correct.
std::string Judge(const ServeRequest& req, int expected, const Answer& a) {
  if (a.error) return "error: " + a.message;
  if (static_cast<int>(a.certified) != expected) {
    return std::string("verdict certified=") + (a.certified ? "yes" : "no") +
           " but the oracle says " + (expected ? "yes" : "no") + " (" +
           req.family + ")";
  }
  if (req.expect_cache && a.source != "cache") {
    return "isomorphic resubmission answered source=" + a.source;
  }
  if (!a.certified) {
    Result<wydb::OwnedSystem> owned = wydb::ParseSystem(req.payload);
    if (!owned.ok()) return "request does not re-parse";
    Result<wydb::Schedule> sched = ParseWitness(*owned->system, a.witness);
    if (!sched.ok()) return sched.status().message();
    Result<wydb::SafetyViolation> v =
        wydb::ValidateViolation(*owned->system, std::move(*sched));
    if (!v.ok()) return "witness does not replay: " + v.status().message();
  }
  return "";
}

std::string Wire(const ServeRequest& req) {
  return "certify\n" + req.payload + "end\n";
}

/// One request sent through Server::ServeStream, timed from send to the
/// end of the response.
/// Kept small: a run keeps one per request, and the process's peak memory
/// is a measured metric.
struct Sent {
  uint32_t request;
  float ms;
  float done_s;    ///< Completion, seconds since the loop started.
  uint8_t source;  ///< Index into kSources of the verdict's source= field.
};

const char* const kSources[] = {"", "cache", "incremental", "full"};

/// Every distinct answer per request-list slot, with how many sends got
/// it. Kept instead of every response, so memory does not grow with
/// throughput; the elapsed_us field is stripped, as it differs per send.
using AnswerLog = std::map<std::pair<size_t, std::string>, uint64_t>;

std::string SendOne(wydb::Server* server, const std::string& wire) {
  std::istringstream in(wire);
  std::ostringstream out;
  server->ServeStream(in, out);
  return out.str();
}

/// A response without its elapsed_us field.
std::string Timeless(const std::string& response) {
  const size_t at = response.find(" elapsed_us=");
  if (at == std::string::npos) return response;
  const size_t end = response.find(' ', at + 1);
  if (end == std::string::npos) return response.substr(0, at);
  return response.substr(0, at) + response.substr(end);
}

uint8_t SourceOf(const std::string& response) {
  const size_t at = response.find(" source=");
  if (at == std::string::npos) return 0;
  const size_t from = at + 8;
  const std::string source =
      response.substr(from, response.find(' ', from) - from);
  for (uint8_t i = 1; i < std::size(kSources); ++i) {
    if (source == kSources[i]) return i;
  }
  return 0;
}

/// Records one answer: its sample and its entry in the answer log.
void Log(size_t request, Clock::time_point t0, Clock::time_point t1,
         Clock::time_point start, const std::string& response,
         size_t list_size, std::vector<Sent>* sent, AnswerLog* log) {
  sent->push_back(Sent{static_cast<uint32_t>(request),
                       static_cast<float>(NanosBetween(t0, t1) / 1e6),
                       static_cast<float>(NanosBetween(start, t1) / 1e9),
                       SourceOf(response)});
  ++(*log)[{request % list_size, Timeless(response)}];
}

/// Closed loop: `clients` threads, each starting its next request only
/// after the previous one was answered, until `seconds` have passed.
/// Request numbers come in order from `*next`, so consecutive loops
/// continue one request stream. `fn(client, request, loop_start)` serves
/// one request. Returns the loop's wall time.
template <typename Fn>
double ClientLoop(int clients, double seconds, std::atomic<size_t>* next,
                  Fn fn) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        fn(c, next->fetch_add(1, std::memory_order_relaxed), start);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return SecondsSince(start);
}

/// The closed loop against the server; appends every sample to `*sent` and
/// every answer to `*log`.
double ClosedLoop(wydb::Server* server, const std::vector<std::string>& wires,
                  int clients, double seconds, std::atomic<size_t>* next,
                  std::vector<Sent>* sent, AnswerLog* log) {
  // Sample buffers are reserved up front and sized exactly when merged, so
  // the bookkeeping's share of peak memory does not jump with the number of
  // requests a run happens to complete.
  std::vector<std::vector<Sent>> per_client(clients);
  for (auto& v : per_client) v.reserve(1 << 18);
  std::vector<AnswerLog> logs(clients);
  const double wall = ClientLoop(
      clients, seconds, next,
      [&](int c, size_t i, Clock::time_point start) {
        const Clock::time_point t0 = Clock::now();
        std::string response = SendOne(server, wires[i % wires.size()]);
        Log(i, t0, Clock::now(), start, response, wires.size(),
            &per_client[c], &logs[c]);
      });
  size_t total = sent->size();
  for (const auto& v : per_client) total += v.size();
  sent->reserve(total);
  for (int c = 0; c < clients; ++c) {
    sent->insert(sent->end(), per_client[c].begin(), per_client[c].end());
    for (const auto& [key, n] : logs[c]) (*log)[key] += n;
  }
  return wall;
}

/// Judges every distinct answer once; a wrong one fails every send that
/// got it.
void CheckAnswers(const ServeInputs& in, const std::vector<int>& oracle,
                  const AnswerLog& log, Report* report) {
  for (const auto& [key, n] : log) {
    report->attempted += n;
    const ServeRequest& req = in.requests[key.first];
    const std::string bad =
        Judge(req, oracle[req.system], ParseAnswer(key.second));
    if (!bad.empty()) {
      report->Fail("request " + std::to_string(key.first) + ": " + bad, n);
    }
  }
}

// ---------------------------------------------------------------------------
// The outside replay of Server::HandleCertify.
// ---------------------------------------------------------------------------

/// A replica of the server's certify state (cache + journal) driven through
/// the layers' public calls in the order HandleCertify makes them.
class Replay {
 public:
  /// Opens the journal at `journal` and reloads its records into the
  /// cache, as Server::Create does.
  static std::unique_ptr<Replay> Open(const std::string& journal,
                                      Report* report) {
    auto r = std::unique_ptr<Replay>(new Replay());
    const Clock::time_point t0 = Clock::now();
    wydb::JournalOptions jopts;
    jopts.fsync_every = r->options_.journal_fsync_every;
    wydb::JournalRecovery recovery;
    Result<wydb::Journal> j = wydb::Journal::Open(journal, jopts, &recovery);
    if (!j.ok()) {
      report->Fail("replay journal: " + j.status().message());
      return nullptr;
    }
    r->journal_ = std::make_unique<wydb::Journal>(std::move(*j));
    for (const std::string& payload : recovery.payloads) {
      if (!r->LoadRecord(payload).ok()) report->Fail("replay: journal record");
    }
    r->recover_s_ = SecondsSince(t0);
    // Counts the journal's write and fsync syscalls; never fires.
    r->syscalls_.fault = wydb::FaultInjector::Fault::kFailFsync;
    r->syscalls_.trigger_op = UINT64_MAX;
    r->journal_->set_fault_injector(&r->syscalls_);
    return r;
  }

  struct Outcome {
    bool error = false;
    bool certified = false;
    const char* source = "";
    uint64_t states = 0;
    std::string witness;  ///< As the server's `witness:` line renders it.
  };

  Outcome Certify(const std::string& payload, Tracer* tr, int tid,
                  uint64_t id);

  double recover_s() const { return recover_s_; }
  uint64_t appends() const { return appends_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t fsyncs() const {
    return syscalls_.ops - appends_ - compaction_writes_;
  }
  uint64_t hits() const { return hits_; }
  uint64_t delta_probes() const { return delta_probes_; }
  uint64_t delta_matches() const { return delta_matches_; }
  /// States visited by the searches this replay ran.
  uint64_t search_states() const { return search_states_; }

 private:
  Replay() : cache_(options_.cache_entries) {}

  Status LoadRecord(const std::string& payload) {
    WYDB_ASSIGN_OR_RETURN(wydb::CertificateBundle bundle,
                          wydb::ParseCertificate(payload));
    WYDB_ASSIGN_OR_RETURN(wydb::WorkloadSpec spec,
                          wydb::ParseWorkload(bundle.canonical_text));
    const wydb::TransactionSystem& sys = *spec.owned.system;
    WYDB_ASSIGN_OR_RETURN(wydb::SystemKey key, wydb::CanonicalSystemKey(sys));
    if (key.text != bundle.canonical_text) {
      return Status::FailedPrecondition("not canonical-stable");
    }
    wydb::SystemProfile profile = wydb::ProfileOf(sys);
    cache_.Insert(std::move(key), std::move(bundle), std::move(profile));
    return Status::OK();
  }

  wydb::ServerOptions options_ = ServeOptions("");
  wydb::VerdictCache cache_;
  wydb::FaultInjector syscalls_;  ///< Outlives the journal that points at it.
  std::mutex journal_mu_;
  std::unique_ptr<wydb::Journal> journal_;
  double recover_s_ = 0.0;
  uint64_t appends_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compaction_writes_ = 0;
  uint64_t appended_bytes_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> delta_probes_{0};
  std::atomic<uint64_t> delta_matches_{0};
  std::atomic<uint64_t> search_states_{0};
};

/// The server's mapping of a cached neighbour's witness onto the request
/// (canonical slot -> entry transaction -> body-equal request transaction),
/// countersigned by ValidateViolation.
Result<wydb::SafetyViolation> MapEntryWitness(
    const wydb::DeltaMatch& match, const wydb::TransactionSystem& sys) {
  wydb::Schedule sched;
  for (const auto& [slot, node] : match.bundle.witness) {
    if (slot < 0 || slot >= static_cast<int>(match.entry_txn_perm.size())) {
      return Status::InvalidArgument("witness slot out of range");
    }
    const int request_txn =
        match.request_txn_of_entry[match.entry_txn_perm[slot]];
    if (request_txn < 0) {
      return Status::FailedPrecondition("witness touches the removed txn");
    }
    if (node < 0 || node >= sys.txn(request_txn).num_steps()) {
      return Status::InvalidArgument("witness node out of range");
    }
    sched.push_back(wydb::GlobalNode{request_txn, node});
  }
  return wydb::ValidateViolation(sys, std::move(sched));
}

Replay::Outcome Replay::Certify(const std::string& payload, Tracer* tr,
                                int tid, uint64_t id) {
  Outcome out;
  Result<wydb::WorkloadSpec> parsed = [&] {
    ScopedSpan s(tr, tid, "io.parse", id);
    return wydb::ParseWorkload(payload);
  }();
  if (!parsed.ok()) {
    out.error = true;
    return out;
  }
  const wydb::TransactionSystem& sys = *parsed->owned.system;
  Result<wydb::SystemKey> key = [&] {
    ScopedSpan s(tr, tid, "canonical.key", id);
    return wydb::CanonicalSystemKey(sys);
  }();
  if (!key.ok()) {
    out.error = true;
    return out;
  }

  // The witness rendering the server formats into a refutation's answer.
  auto respond = [&](const wydb::SafetyViolation* v) {
    ScopedSpan s(tr, tid, "serve.respond", id);
    if (v != nullptr) out.witness = wydb::ScheduleToString(sys, v->schedule);
  };

  // 1. Exact canonical hit.
  std::optional<wydb::CertificateBundle> hit = [&] {
    ScopedSpan s(tr, tid, "cache.find", id);
    return cache_.Find(*key);
  }();
  if (hit.has_value()) {
    if (hit->certified) {
      ++hits_;
      respond(nullptr);
      out.certified = true;
      out.source = "cache";
      out.states = hit->states_visited;
      return out;
    }
    Result<wydb::SafetyViolation> v = [&] {
      ScopedSpan s(tr, tid, "certificate.countersign", id);
      return wydb::RealizeWitness(*hit, *key, sys);
    }();
    if (v.ok()) {
      ++hits_;
      respond(&*v);
      out.source = "cache";
      out.states = hit->states_visited;
      return out;
    }
  }

  const wydb::SystemProfile profile = [&] {
    ScopedSpan s(tr, tid, "cache.profile", id);
    return wydb::ProfileOf(sys);
  }();

  auto finish = [&](const wydb::SafetyReport& report, const char* source) {
    wydb::CertificateBundle bundle = [&] {
      ScopedSpan s(tr, tid, "certificate.make", id);
      return wydb::MakeCertificate(*key, report);
    }();
    respond(report.violation.has_value() ? &*report.violation : nullptr);
    {
      ScopedSpan s(tr, tid, "cache.insert", id);
      cache_.Insert(std::move(*key), bundle, profile);
    }
    std::string record = [&] {
      ScopedSpan s(tr, tid, "certificate.serialize", id);
      return wydb::SerializeCertificate(bundle);
    }();
    {
      std::lock_guard<std::mutex> lock(journal_mu_);
      Status st = [&] {
        ScopedSpan s(tr, tid, "journal.append", id);
        return journal_->Append(record);
      }();
      if (st.ok()) {
        ++appends_;
        appended_bytes_ += record.size() + kFrameHeaderBytes;
        if (journal_->records() >
            static_cast<uint64_t>(cache_.size()) +
                static_cast<uint64_t>(options_.journal_compact_slack)) {
          std::vector<std::string> snapshot = [&] {
            ScopedSpan s(tr, tid, "cache.snapshot", id);
            return cache_.SerializedSnapshot();
          }();
          ScopedSpan s(tr, tid, "journal.compact", id);
          if (journal_->Compact(snapshot).ok()) {
            ++compactions_;
            compaction_writes_ += snapshot.size();
          }
        }
      }
    }
    out.certified = bundle.certified;
    out.source = source;
    out.states = bundle.states_visited;
  };

  wydb::SafetyCheckOptions base;
  base.max_states = options_.max_states;
  base.search_threads = options_.search_threads;

  // 2. One transaction away from a cached system.
  ++delta_probes_;
  std::optional<wydb::DeltaMatch> match = [&] {
    ScopedSpan s(tr, tid, "cache.find_delta", id);
    return cache_.FindDelta(profile);
  }();
  if (match.has_value()) {
    ++delta_matches_;
    if (match->removed && match->bundle.certified) {
      wydb::SafetyReport derived;
      derived.holds = true;
      finish(derived, "incremental");
      return out;
    }
    if (!match->bundle.certified) {
      Result<wydb::SafetyViolation> v = [&] {
        ScopedSpan s(tr, tid, "certificate.countersign", id);
        return MapEntryWitness(*match, sys);
      }();
      if (v.ok()) {
        wydb::SafetyReport derived;
        derived.holds = false;
        derived.violation = std::move(*v);
        finish(derived, "incremental");
        return out;
      }
    } else if (match->added) {
      wydb::SafetyCheckOptions opts = base;
      opts.engine = wydb::SearchEngine::kIncremental;
      opts.delta_txn = match->delta_index;
      Result<wydb::SafetyReport> report = [&] {
        ScopedSpan s(tr, tid, "search.delta", id);
        return wydb::CheckSafeAndDeadlockFree(sys, opts);
      }();
      if (!report.ok()) {
        out.error = true;
        return out;
      }
      search_states_ += report->states_visited;
      finish(*report, "incremental");
      return out;
    }
  }

  // 3. Full certification.
  wydb::SafetyCheckOptions opts = base;
  opts.engine = options_.engine;
  Result<wydb::SafetyReport> report = [&] {
    ScopedSpan s(tr, tid, "search.full", id);
    return wydb::CheckSafeAndDeadlockFree(sys, opts);
  }();
  if (!report.ok()) {
    out.error = true;
    return out;
  }
  search_states_ += report->states_visited;
  finish(*report, "full");
  return out;
}

/// Every layer span the replay records, each the self time of one call.
const char* const kLayerSpans[] = {
    "io.parse",         "canonical.key",         "cache.find",
    "cache.profile",    "cache.find_delta",      "certificate.countersign",
    "search.full",      "search.delta",          "certificate.make",
    "serve.respond",    "cache.insert",          "certificate.serialize",
    "journal.append",   "cache.snapshot",        "journal.compact"};

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct ServeSetup {
  ServeInputs inputs;
  std::vector<std::string> wires;
  std::vector<int> oracle;
  std::string base_journal;  ///< Journal every server/replay starts from.
  double setup_s = 0.0;      ///< Median over the set-up repetitions.
  std::vector<double> setup_reps;
};

int PoolSize(const RunConfig& c) { return c.smoke ? 256 : 4096; }

ServeInputs Generate(const RunConfig& c, bool resubmit) {
  return resubmit ? GenerateServeResubmit(c.seed, PoolSize(c))
                  : GenerateServeCold(c.seed, PoolSize(c));
}

std::string JournalPath(const RunConfig& c, const std::string& tag) {
  return c.workdir + "/" + c.workload + "-" + std::to_string(::getpid()) +
         "-" + tag + ".journal";
}

/// A fresh journal at `path` holding exactly the base journal's records.
bool StartJournal(const std::string& base, const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (base.empty()) return true;
  return fs::copy_file(base, path, ec) && !ec;
}

/// Builds the base journal (resubmit): a server certifies and journals
/// every base system. This is the journal's history, not part of set-up.
bool AuthorBaseJournal(const ServeInputs& in, const std::string& path,
                       Report* report) {
  std::error_code ec;
  fs::remove(path, ec);
  Result<wydb::Server> server = wydb::Server::Create(ServeOptions(path));
  if (!server.ok()) {
    report->Fail("base journal: " + server.status().message());
    return false;
  }
  for (const std::string& text : in.base_texts) {
    Status st = server->Preload(text);
    if (!st.ok()) {
      report->Fail("base preload: " + st.message());
      return false;
    }
  }
  return server->FlushJournal().ok();
}

/// Runs set-up `reps` times (input generation, journal copy, server start
/// with recovery) and keeps the last server. Oracle verdicts are computed
/// afterwards, untimed.
std::unique_ptr<wydb::Server> SetUp(const RunConfig& c, bool resubmit,
                                    const std::string& journal, int reps,
                                    ServeSetup* setup, Report* report) {
  std::unique_ptr<wydb::Server> server;
  for (int rep = 0; rep < reps; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    setup->inputs = Generate(c, resubmit);
    if (setup->inputs.requests.empty()) {
      report->Fail("input generation failed");
      return nullptr;
    }
    setup->wires.clear();
    setup->wires.reserve(setup->inputs.requests.size());
    for (const ServeRequest& r : setup->inputs.requests) {
      setup->wires.push_back(Wire(r));
    }
    if (!StartJournal(setup->base_journal, journal)) {
      report->Fail("cannot copy the base journal");
      return nullptr;
    }
    Result<wydb::Server> created = wydb::Server::Create(ServeOptions(journal));
    if (!created.ok()) {
      report->Fail("server start: " + created.status().message());
      return nullptr;
    }
    server = std::make_unique<wydb::Server>(std::move(*created));
    setup->setup_reps.push_back(SecondsSince(t0));
  }
  setup->setup_s = Median(setup->setup_reps);
  if (resubmit &&
      server->stats().journal_recovered != setup->inputs.base_texts.size()) {
    report->Fail("server recovered " +
                 std::to_string(server->stats().journal_recovered.load()) +
                 " of " + std::to_string(setup->inputs.base_texts.size()) +
                 " base verdicts");
  }
  return server;
}

std::vector<double> LatenciesMs(const std::vector<Sent>& sent) {
  std::vector<double> v;
  v.reserve(sent.size());
  for (const Sent& s : sent) v.push_back(s.ms);
  return v;
}

std::vector<double> LatenciesBySource(const std::vector<Sent>& sent,
                                      const std::string& source) {
  std::vector<double> v;
  for (const Sent& s : sent) {
    if (source == kSources[s.source]) v.push_back(s.ms);
  }
  return v;
}

void RemoveJournal(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".tmp", ec);
}

}  // namespace

Report RunServe(const RunConfig& c, bool resubmit) {
  Report report;
  ServeSetup setup;
  const std::string journal = JournalPath(c, "server");
  if (resubmit) {
    setup.base_journal = JournalPath(c, "base");
    ServeInputs fixture = Generate(c, resubmit);
    if (!AuthorBaseJournal(fixture, setup.base_journal, &report)) {
      return report;
    }
  }
  const int reps = c.smoke ? 1 : 9;
  std::unique_ptr<wydb::Server> server =
      SetUp(c, resubmit, journal, reps, &setup, &report);
  if (server == nullptr) return report;
  {
    Result<std::vector<int>> oracle = ServeOracle(setup.inputs);
    if (!oracle.ok()) {
      report.Fail("oracle: " + oracle.status().message());
      return report;
    }
    setup.oracle = std::move(*oracle);
  }
  report.notes.push_back(
      "inputs: requests=" + std::to_string(setup.inputs.requests.size()) +
      " systems=" + std::to_string(setup.inputs.num_systems) +
      " bases=" + std::to_string(setup.inputs.base_texts.size()) +
      " fingerprint=" + std::to_string(Fingerprint(setup.inputs)));

  const int clients = c.threads;
  if (!c.trace) {
    std::atomic<size_t> next{0};
    std::vector<Sent> sent;
    AnswerLog log;
    const double wall = ClosedLoop(server.get(), setup.wires, clients,
                                   c.seconds, &next, &sent, &log);
    CheckAnswers(setup.inputs, setup.oracle, log, &report);
    const std::vector<double> ms = LatenciesMs(sent);
    std::vector<double> done;
    done.reserve(sent.size());
    for (const Sent& s : sent) done.push_back(s.done_s);
    const SliceMedians sliced = Slice(done, ms, wall, kSliceSeconds);
    report.Add("setup_s", setup.setup_s, "s");
    report.Add("ops_per_s", sliced.per_s, "1/s");
    report.Add("op_p50_ms", sliced.p50, "ms");
    report.Add("op_p99_ms", sliced.p99, "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Extra("certify_per_s", static_cast<double>(sent.size()) / wall,
                 "1/s");
    report.Extra("certify_p50_ms", Quantile(ms, 0.5), "ms");
    report.Extra("certify_p99_ms", Quantile(ms, 0.99), "ms");
    report.Extra("slices", sliced.slices, "count");
    for (size_t i = 0; i < setup.setup_reps.size(); ++i) {
      report.Extra("setup_rep" + std::to_string(i) + "_s", setup.setup_reps[i],
                   "s");
    }
    report.Extra("hit_p50_ms",
                 Median(LatenciesBySource(sent, "cache")), "ms");
    report.Extra("delta_p50_ms",
                 Median(LatenciesBySource(sent, "incremental")), "ms");
    report.Extra("full_p50_ms",
                 Median(LatenciesBySource(sent, "full")), "ms");
    report.Extra("samples", static_cast<double>(sent.size()), "count");
    std::map<std::string, std::vector<double>> by_family;
    for (const Sent& s : sent) {
      by_family[setup.inputs.requests[s.request % setup.inputs.requests.size()]
                    .family]
          .push_back(s.ms);
    }
    for (const auto& [family, v] : by_family) {
      report.Extra(family + "_p50_ms", Median(v), "ms");
      report.Extra(family + "_mean_ms", Sum(v) / static_cast<double>(v.size()),
                   "ms");
    }
    std::map<std::string, int> mix;
    for (const Sent& s : sent) ++mix[kSources[s.source]];
    std::string line = "sources:";
    for (const auto& [src, n] : mix) {
      line += " " + src + "=" + std::to_string(n);
    }
    report.notes.push_back(line);
    report.notes.push_back("stats: " + server->StatsLine());
    server.reset();
    RemoveJournal(journal);
    if (resubmit) RemoveJournal(setup.base_journal);
    return report;
  }

  // Traced run. The untraced server (A) and the traced outside replay (B)
  // serve the same closed loop in alternating slices, A B A B, so neither
  // side alone absorbs warm-up or a burst of outside load; A is the
  // overhead baseline, B gives the layer spans.
  const std::string replay_journal = JournalPath(c, "replay");
  StartJournal(setup.base_journal, replay_journal);
  std::unique_ptr<Replay> replay = Replay::Open(replay_journal, &report);
  if (replay == nullptr) return report;
  Tracer tracer(clients);
  const double slice_s = c.seconds * 0.2;
  std::atomic<size_t> next_a{0}, next_b{0};
  std::vector<Sent> sent_a;
  AnswerLog log_a;
  std::atomic<uint64_t> replay_errors{0}, done_b{0};
  double wall_a = 0.0, wall_b = 0.0;
  for (int round = 0; round < 2; ++round) {
    wall_a += ClosedLoop(server.get(), setup.wires, clients, slice_s, &next_a,
                         &sent_a, &log_a);
    wall_b += ClientLoop(
        clients, slice_s, &next_b, [&](int t, size_t i, Clock::time_point) {
          const ServeRequest& req =
              setup.inputs.requests[i % setup.inputs.requests.size()];
          Replay::Outcome o = [&] {
            ScopedSpan s(&tracer, t, "replay.request", i);
            return replay->Certify(req.payload, &tracer, t, i);
          }();
          if (o.error ||
              static_cast<int>(o.certified) != setup.oracle[req.system]) {
            ++replay_errors;
          }
          ++done_b;
        });
  }
  CheckAnswers(setup.inputs, setup.oracle, log_a, &report);
  server.reset();
  const double untraced_per_s = static_cast<double>(sent_a.size()) / wall_a;
  const double traced_per_s = static_cast<double>(done_b.load()) / wall_b;
  if (replay_errors > 0) {
    report.Fail("replay disagreed with the oracle on " +
                std::to_string(replay_errors.load()) + " requests");
  }

  // Single-client guard: the server and a fresh replay answer the same
  // requests in the same order; source, verdict, state count and witness
  // must agree request by request.
  const std::string guard_journal = JournalPath(c, "guard");
  const std::string guard_replay_journal = JournalPath(c, "guard-replay");
  StartJournal(setup.base_journal, guard_journal);
  StartJournal(setup.base_journal, guard_replay_journal);
  Result<wydb::Server> created =
      wydb::Server::Create(ServeOptions(guard_journal));
  std::unique_ptr<Replay> guard_replay =
      Replay::Open(guard_replay_journal, &report);
  if (!created.ok() || guard_replay == nullptr) {
    report.Fail("guard set-up failed");
    return report;
  }
  auto guard = std::make_unique<wydb::Server>(std::move(*created));
  Tracer guard_tracer(1);
  const size_t guard_requests = c.smoke ? 100 : 400;
  std::vector<double> handler_us;
  AnswerLog guard_log;
  std::map<std::string, int> mix;
  uint64_t guard_states = 0;
  int guard_certified = 0;
  for (size_t i = 0; i < guard_requests; ++i) {
    const size_t idx = i % setup.inputs.requests.size();
    const Clock::time_point t0 = Clock::now();
    std::string response = SendOne(guard.get(), setup.wires[idx]);
    handler_us.push_back(NanosBetween(t0, Clock::now()) / 1e3);
    Replay::Outcome o = guard_replay->Certify(
        setup.inputs.requests[idx].payload, &guard_tracer, 0, i);
    const Answer a = ParseAnswer(response);
    if (a.error || o.error || a.source != o.source ||
        a.certified != o.certified || a.states != o.states ||
        a.witness != o.witness) {
      report.Fail("guard: request " + std::to_string(i) + " server source=" +
                  a.source + " replay source=" + o.source);
    }
    ++mix[a.source];
    guard_certified += a.certified ? 1 : 0;
    if (a.source != "cache") guard_states += a.states;
    ++guard_log[{idx, Timeless(response)}];
  }
  CheckAnswers(setup.inputs, setup.oracle, guard_log, &report);
  double layer_us = 0.0;
  for (const char* name : kLayerSpans) layer_us += guard_tracer.TotalUs(name);
  std::string line = "guard: requests=" + std::to_string(guard_requests) +
                     " certified=" + std::to_string(guard_certified) +
                     " states=" + std::to_string(guard_states);
  for (const auto& [src, n] : mix) line += " " + src + "=" + std::to_string(n);
  report.notes.push_back(line);

  // A timed metric is reported only when its layer ran here (serve-cold has
  // no cache hits or deltas; serve-resubmit never compacts its journal).
  // The main program fills the rest in from a run of a workload that does.
  auto span_q = [&](const char* metric, const char* span, double q) {
    const std::vector<double> us = tracer.DurationsUs(span);
    if (!us.empty()) report.Add(metric, Quantile(us, q), "us");
  };
  const double requests_b = static_cast<double>(done_b.load());
  double search_ns = 0.0;
  for (const char* s : {"search.full", "search.delta"}) {
    search_ns += tracer.TotalUs(s) * 1e3;
  }
  span_q("io.parse_us_p50", "io.parse", 0.5);
  span_q("canonical.key_us_p50", "canonical.key", 0.5);
  span_q("canonical.key_us_p99", "canonical.key", 0.99);
  span_q("cache.find_us_p50", "cache.find", 0.5);
  span_q("cache.find_delta_us_p50", "cache.find_delta", 0.5);
  span_q("cache.insert_us_p50", "cache.insert", 0.5);
  report.Add("cache.hit_ratio",
             static_cast<double>(replay->hits()) / requests_b, "ratio");
  report.Add("cache.delta_ratio",
             replay->delta_probes() == 0
                 ? 0.0
                 : static_cast<double>(replay->delta_matches()) /
                       static_cast<double>(replay->delta_probes()),
             "ratio");
  span_q("certificate.countersign_us_p50", "certificate.countersign", 0.5);
  span_q("certificate.serialize_us_p50", "certificate.serialize", 0.5);
  span_q("search.full_us_p50", "search.full", 0.5);
  span_q("search.full_us_p99", "search.full", 0.99);
  span_q("search.delta_us_p50", "search.delta", 0.5);
  report.Add("search.states_visited", static_cast<double>(guard_states),
             "count");
  if (replay->search_states() > 0) {
    report.Add("search.ns_per_state",
               search_ns / static_cast<double>(replay->search_states()), "ns");
  }
  span_q("journal.append_us_p50", "journal.append", 0.5);
  span_q("journal.append_us_p99", "journal.append", 0.99);
  report.Add("journal.fsyncs", static_cast<double>(replay->fsyncs()), "count");
  report.Add("journal.compactions", static_cast<double>(replay->compactions()),
             "count");
  span_q("journal.compact_us_p50", "journal.compact", 0.5);
  if (replay->appends() > 0) {
    report.Add("journal.bytes_per_verdict",
               static_cast<double>(replay->appended_bytes()) /
                   static_cast<double>(replay->appends()),
               "bytes");
  }
  report.Add("journal.recover_s", replay->recover_s(), "s");
  report.Add("serve.handler_us_p50", Median(handler_us), "us");
  report.Add("trace.coverage", layer_us / Sum(handler_us), "ratio");
  report.Add("trace.overhead", untraced_per_s / traced_per_s - 1.0, "ratio");

  report.Extra("untraced_certify_per_s", untraced_per_s, "1/s");
  report.Extra("traced_certify_per_s", traced_per_s, "1/s");
  report.Extra("spans", static_cast<double>(tracer.size()), "count");
  if (!tracer.WriteChromeJson(TracePath(c))) report.Fail("cannot write trace");

  guard.reset();
  guard_replay.reset();
  replay.reset();
  for (const std::string& j : {journal, replay_journal, guard_journal,
                               guard_replay_journal, setup.base_journal}) {
    if (!j.empty()) RemoveJournal(j);
  }
  return report;
}

}  // namespace e2e
