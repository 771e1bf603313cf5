#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "io/text_format.h"
#include "runtime/simulation.h"

namespace wydb {
namespace {

std::vector<std::string> Tokens(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// Splits a `key=value` request parameter.
bool SplitParam(const std::string& tok, std::string* key, std::string* value) {
  size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = tok.substr(0, eq);
  *value = tok.substr(eq + 1);
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

uint64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The payload line a "line %d: ..." error message points at, if any —
/// malformed requests echo the offending line back (docs/SERVE.md).
std::string OffendingLine(const std::string& message,
                          const std::string& payload) {
  if (message.rfind("line ", 0) != 0) return "";
  char* end = nullptr;
  long lineno = std::strtol(message.c_str() + 5, &end, 10);
  if (end == message.c_str() + 5 || lineno < 1) return "";
  std::istringstream in(payload);
  std::string line;
  for (long i = 0; i < lineno; ++i) {
    if (!std::getline(in, line)) return "";
  }
  return line;
}

/// Maps a cached refutation witness onto the request system through a
/// delta match: canonical slot -> entry transaction -> body-equal request
/// transaction. Fails (falling back to a fresh search) when the witness
/// touches a removed transaction or does not revalidate.
Result<SafetyViolation> MapEntryWitness(const CertificateBundle& bundle,
                                        const std::vector<int>& entry_perm,
                                        const DeltaMatch& match,
                                        const TransactionSystem& sys) {
  Schedule sched;
  sched.reserve(bundle.witness.size());
  for (const auto& [slot, node] : bundle.witness) {
    if (slot < 0 || slot >= static_cast<int>(entry_perm.size())) {
      return Status::InvalidArgument("witness slot out of range");
    }
    const int entry_txn = entry_perm[slot];
    const int request_txn = match.request_txn_of_entry[entry_txn];
    if (request_txn < 0) {
      return Status::FailedPrecondition(
          "witness touches the removed transaction");
    }
    if (node < 0 || node >= sys.txn(request_txn).num_steps()) {
      return Status::InvalidArgument("witness node out of range");
    }
    sched.push_back(GlobalNode{request_txn, node});
  }
  return ValidateViolation(sys, std::move(sched));
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_entries),
      shared_(std::make_unique<Shared>()) {
  shared_->latencies.reserve(512);
}

Result<Server> Server::Create(const ServerOptions& options) {
  if (options.store.encoding == StoreOptions::KeyEncoding::kCompact) {
    return Status::InvalidArgument(
        "wydb_serve rejects --store-encoding compact: compacted verdicts "
        "are probabilistic, and a verdict cache must only hold exact ones");
  }
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options.store, options.engine));
  if (options.cache_entries < 1) {
    return Status::InvalidArgument("cache capacity must be at least 1");
  }
  if (options.journal_fsync_every < 0 || options.journal_compact_slack < 0) {
    return Status::InvalidArgument("journal policy values must be >= 0");
  }

  Server server(options);
  if (!options.journal_path.empty()) {
    JournalOptions jopts;
    jopts.fsync_every = options.journal_fsync_every;
    JournalRecovery recovery;
    auto journal = Journal::Open(options.journal_path, jopts, &recovery);
    if (!journal.ok()) return journal.status();
    server.shared_->journal = std::make_unique<Journal>(std::move(*journal));
    server.shared_->stats.journal_salvaged_bytes = recovery.dropped_bytes;
    for (const std::string& payload : recovery.payloads) {
      // A record that fails the certificate fingerprint or is not
      // canonical-stable is skipped, never fatal: the journal already
      // survived the frame CRC, so this is defense in depth.
      if (server.LoadJournalRecord(payload).ok()) {
        ++server.shared_->stats.journal_recovered;
      } else {
        ++server.shared_->stats.journal_errors;
      }
    }
  }
  return server;
}

Status Server::LoadJournalRecord(const std::string& payload) {
  WYDB_ASSIGN_OR_RETURN(CertificateBundle bundle, ParseCertificate(payload));
  WYDB_ASSIGN_OR_RETURN(WorkloadSpec spec,
                        ParseWorkload(bundle.canonical_text));
  const TransactionSystem& sys = *spec.owned.system;
  WYDB_ASSIGN_OR_RETURN(SystemKey key, CanonicalSystemKey(sys));
  if (key.text != bundle.canonical_text) {
    // Witness realization requires key.text == canonical_text; an
    // incomplete key whose text is not a reparse fixpoint cannot be
    // re-served soundly, so it is dropped rather than mis-keyed.
    return Status::FailedPrecondition(
        "journaled certificate is not canonical-stable");
  }
  SystemProfile profile = ProfileOf(sys);
  cache_.Insert(std::move(key), std::move(bundle), std::move(profile));
  return Status::OK();
}

void Server::JournalVerdict(const CertificateBundle& bundle) {
  Shared& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.journal_mu);
  if (sh.journal == nullptr) return;
  Status st = sh.journal->Append(SerializeCertificate(bundle));
  if (!st.ok()) {
    // Persistence degrades, serving does not: the verdict is already in
    // the in-memory cache and on its way to the client.
    ++sh.stats.journal_errors;
    return;
  }
  ++sh.stats.journal_appends;
  if (sh.journal->records() >
      static_cast<uint64_t>(cache_.size()) +
          static_cast<uint64_t>(options_.journal_compact_slack)) {
    Status compacted = sh.journal->Compact(cache_.SerializedSnapshot());
    if (compacted.ok()) {
      ++sh.stats.journal_compactions;
    } else {
      ++sh.stats.journal_errors;
    }
  }
}

Status Server::FlushJournal() {
  Shared& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.journal_mu);
  if (sh.journal == nullptr) return Status::OK();
  return sh.journal->Sync();
}

void Server::RecordLatency(uint64_t micros) {
  constexpr size_t kRing = 512;
  Shared& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.latency_mu);
  if (sh.latencies.size() < kRing) {
    sh.latencies.push_back(micros);
  } else {
    sh.latencies[sh.latency_next % kRing] = micros;
  }
  ++sh.latency_next;
}

std::string Server::StatsLine() const {
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  {
    Shared& sh = *shared_;
    std::lock_guard<std::mutex> lock(sh.latency_mu);
    if (!sh.latencies.empty()) {
      std::vector<uint64_t> sorted = sh.latencies;
      std::sort(sorted.begin(), sorted.end());
      p50 = sorted[sorted.size() / 2];
      p95 = sorted[(sorted.size() * 95) / 100 == sorted.size()
                       ? sorted.size() - 1
                       : (sorted.size() * 95) / 100];
    }
  }
  const ServerStats& s = shared_->stats;
  return StrFormat(
      "stats: requests=%llu certify=%llu simulate=%llu errors=%llu "
      "cache_hits=%llu cache_misses=%llu incremental=%llu full=%llu "
      "monotone=%llu witness_reuse=%llu delta_searches=%llu "
      "delta_skipped_tests=%llu deadline_polls=%llu runaways=%llu "
      "journal_appends=%llu journal_recovered=%llu "
      "journal_salvaged_bytes=%llu journal_compactions=%llu "
      "journal_errors=%llu cache_size=%d p50_us=%llu p95_us=%llu",
      (unsigned long long)s.requests, (unsigned long long)s.certify_requests,
      (unsigned long long)s.simulate_requests, (unsigned long long)s.errors,
      (unsigned long long)s.cache_hits, (unsigned long long)s.cache_misses,
      (unsigned long long)s.incremental_certifications,
      (unsigned long long)s.full_certifications,
      (unsigned long long)s.monotone_shortcuts,
      (unsigned long long)s.witness_reuses,
      (unsigned long long)s.delta_searches,
      (unsigned long long)s.delta_skipped_tests,
      (unsigned long long)s.deadline_polls,
      (unsigned long long)s.runaways_rejected,
      (unsigned long long)s.journal_appends,
      (unsigned long long)s.journal_recovered,
      (unsigned long long)s.journal_salvaged_bytes,
      (unsigned long long)s.journal_compactions,
      (unsigned long long)s.journal_errors, cache_.size(),
      (unsigned long long)p50, (unsigned long long)p95);
}

void Server::HandleCertify(const std::vector<std::string>& params,
                           const std::string& payload,
                           std::vector<std::string>* response) {
  const uint64_t start_us = NowMicros();
  ServerStats& stats = shared_->stats;
  auto fail = [&](const std::string& message) {
    ++stats.errors;
    response->push_back("error: " + message);
    const std::string echo = OffendingLine(message, payload);
    if (!echo.empty()) response->push_back("echo: " + echo);
  };

  uint64_t max_states = options_.max_states;
  uint64_t timeout_ms = options_.timeout_ms > 0 ? options_.timeout_ms : 0;
  for (const std::string& tok : params) {
    std::string key;
    std::string value;
    if (!SplitParam(tok, &key, &value)) {
      return fail("bad certify parameter '" + tok + "' (want key=value)");
    }
    if (key == "max_states") {
      if (!ParseU64(value, &max_states)) {
        return fail("bad max_states value '" + value + "'");
      }
    } else if (key == "timeout_ms") {
      if (!ParseU64(value, &timeout_ms)) {
        return fail("bad timeout_ms value '" + value + "'");
      }
    } else {
      return fail("unknown certify parameter '" + key + "'");
    }
  }

  // Runaway rejection: with no wall-clock budget, the state budget is
  // the only bound left, so a request may not disable it (max_states=0)
  // or raise it past the server's configured budget. With a timeout the
  // request is time-bounded regardless of states, so both are allowed.
  if (timeout_ms == 0 &&
      (max_states == 0 ||
       (options_.max_states > 0 && max_states > options_.max_states))) {
    ++stats.runaways_rejected;
    return fail(
        "runaway certify rejected: timeout_ms=0 leaves max_states as the "
        "only bound, which may not be 0 or above the server budget");
  }

  auto parsed = ParseWorkload(payload);
  if (!parsed.ok()) return fail(parsed.status().message());
  const TransactionSystem& sys = *parsed->owned.system;

  auto key = CanonicalSystemKey(sys);
  if (!key.ok()) return fail(key.status().message());

  SafetyCheckOptions base;
  base.max_states = max_states;
  base.search_threads = options_.search_threads;
  base.store = options_.store;
  if (timeout_ms > 0) {
    base.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
  }

  auto respond = [&](const CertificateBundle& bundle, const char* source,
                     const SafetyViolation* violation) {
    response->push_back(StrFormat(
        "verdict: certified=%s source=%s states=%llu elapsed_us=%llu "
        "key=%016llx",
        bundle.certified ? "yes" : "no", source,
        (unsigned long long)bundle.states_visited,
        (unsigned long long)(NowMicros() - start_us),
        (unsigned long long)key->hash));
    if (violation != nullptr) {
      response->push_back("witness: " +
                          ScheduleToString(sys, violation->schedule));
      std::string cycle = "cycle:";
      for (int t : violation->txn_cycle) cycle += " " + sys.txn(t).name();
      response->push_back(cycle);
    }
  };

  // 1. Exact canonical hit: the cached verdict transfers through the
  // isomorphism; a refutation witness is remapped and countersigned.
  if (auto hit = cache_.Find(*key)) {
    if (hit->certified) {
      ++stats.cache_hits;
      respond(*hit, "cache", nullptr);
      return;
    }
    auto violation = RealizeWitness(*hit, *key, sys);
    if (violation.ok()) {
      ++stats.cache_hits;
      respond(*hit, "cache", &*violation);
      return;
    }
    // A cached witness that fails to countersign falls through to a
    // fresh search rather than being served.
  }
  ++stats.cache_misses;

  const SystemProfile profile = ProfileOf(sys);
  auto finish = [&](const SafetyReport& report, const char* source) {
    stats.deadline_polls += report.deadline_polls;
    CertificateBundle bundle = MakeCertificate(*key, report);
    respond(bundle, source,
            report.violation.has_value() ? &*report.violation : nullptr);
    cache_.Insert(std::move(*key), bundle, profile);
    JournalVerdict(bundle);
  };

  // 2. One transaction away from a cached system: incremental paths.
  if (auto match = cache_.FindDelta(profile)) {
    const CertificateBundle& entry_bundle = match->bundle;
    const std::vector<int>& entry_perm = match->entry_txn_perm;

    if (match->removed && entry_bundle.certified) {
      // Safety and deadlock-freedom are monotone under transaction
      // removal: every partial schedule of the subsystem is one of the
      // certified supersystem (docs/SERVE.md).
      ++stats.incremental_certifications;
      ++stats.monotone_shortcuts;
      SafetyReport derived;
      derived.holds = true;
      finish(derived, "incremental");
      return;
    }
    if (!entry_bundle.certified) {
      // Refuted neighbor: the cached witness transfers verbatim when it
      // avoids a removed transaction (removal) or unconditionally
      // (addition — a violation survives adding transactions).
      auto violation = MapEntryWitness(entry_bundle, entry_perm, *match, sys);
      if (violation.ok()) {
        ++stats.incremental_certifications;
        ++stats.witness_reuses;
        SafetyReport derived;
        derived.holds = false;
        derived.violation = std::move(*violation);
        finish(derived, "incremental");
        return;
      }
      // Witness didn't transfer (e.g. it uses the removed transaction):
      // fall through to a full search.
    } else if (match->added) {
      // Certified base plus one transaction: delta-gated search. Cycle
      // tests are skipped while the new transaction is idle — sound
      // because the base system is certified (docs/SERVE.md).
      SafetyCheckOptions opts = base;
      opts.engine = SearchEngine::kIncremental;
      opts.delta_txn = match->delta_index;
      auto report = CheckSafeAndDeadlockFree(sys, opts);
      if (!report.ok()) return fail(report.status().message());
      ++stats.incremental_certifications;
      ++stats.delta_searches;
      stats.delta_skipped_tests += report->delta_skipped_tests;
      finish(*report, "incremental");
      return;
    }
  }

  // 3. Full certification.
  SafetyCheckOptions opts = base;
  opts.engine = options_.engine;
  auto report = CheckSafeAndDeadlockFree(sys, opts);
  if (!report.ok()) return fail(report.status().message());
  ++stats.full_certifications;
  finish(*report, "full");
}

void Server::HandleSimulate(const std::vector<std::string>& params,
                            const std::string& payload,
                            std::vector<std::string>* response) {
  ServerStats& stats = shared_->stats;
  auto fail = [&](const std::string& message) {
    ++stats.errors;
    response->push_back("error: " + message);
    const std::string echo = OffendingLine(message, payload);
    if (!echo.empty()) response->push_back("echo: " + echo);
  };

  ConflictPolicy policy = ConflictPolicy::kBlock;
  uint64_t runs = 20;
  uint64_t seed = 1;
  for (const std::string& tok : params) {
    std::string key;
    std::string value;
    if (!SplitParam(tok, &key, &value)) {
      return fail("bad simulate parameter '" + tok + "' (want key=value)");
    }
    if (key == "policy") {
      if (!ParseConflictPolicy(value, &policy)) {
        return fail("unknown policy '" + value + "'");
      }
    } else if (key == "runs") {
      if (!ParseU64(value, &runs) || runs == 0 || runs > 10'000) {
        return fail("bad runs value '" + value + "'");
      }
    } else if (key == "seed") {
      if (!ParseU64(value, &seed)) {
        return fail("bad seed value '" + value + "'");
      }
    } else {
      return fail("unknown simulate parameter '" + key + "'");
    }
  }

  auto parsed = ParseWorkload(payload);
  if (!parsed.ok()) return fail(parsed.status().message());
  const TransactionSystem& sys = *parsed->owned.system;

  SimOptions opts;
  opts.policy = policy;
  opts.seed = seed;
  if (parsed->has_latency) opts.latency = parsed->latency;
  opts.placement = parsed->owned.placement.get();
  auto agg = RunMany(sys, opts, static_cast<int>(runs));
  if (!agg.ok()) return fail(agg.status().message());
  response->push_back(StrFormat(
      "sim: policy=%s runs=%d committed=%d deadlocked=%d "
      "budget_exhausted=%d gave_up=%d aborts=%llu messages=%llu "
      "serializable=%s",
      ConflictPolicyName(policy), agg->runs, agg->committed_runs,
      agg->deadlocked_runs, agg->budget_exhausted_runs, agg->gave_up_runs,
      (unsigned long long)agg->total_aborts,
      (unsigned long long)agg->total_messages,
      agg->all_histories_serializable ? "yes" : "no"));
}

Status Server::Preload(const std::string& text) {
  WYDB_ASSIGN_OR_RETURN(WorkloadSpec spec, ParseWorkload(text));
  const TransactionSystem& sys = *spec.owned.system;
  WYDB_ASSIGN_OR_RETURN(SystemKey key, CanonicalSystemKey(sys));
  if (cache_.Find(key).has_value()) return Status::OK();
  SafetyCheckOptions opts;
  opts.max_states = options_.max_states;
  opts.engine = options_.engine;
  opts.search_threads = options_.search_threads;
  opts.store = options_.store;
  WYDB_ASSIGN_OR_RETURN(SafetyReport report, CheckSafeAndDeadlockFree(sys, opts));
  CertificateBundle bundle = MakeCertificate(key, report);
  SystemProfile profile = ProfileOf(sys);
  cache_.Insert(std::move(key), bundle, std::move(profile));
  JournalVerdict(bundle);
  return Status::OK();
}

void Server::ServeStream(std::istream& in, std::ostream& out) {
  ServerStats& stats = shared_->stats;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::vector<std::string> toks = Tokens(line);
    if (toks.empty()) continue;
    const std::string verb = toks[0];
    const std::vector<std::string> params(toks.begin() + 1, toks.end());

    if (verb == "quit") {
      ++stats.requests;
      out << "bye\n.\n" << std::flush;
      return;
    }
    if (verb == "stats") {
      ++stats.requests;
      out << StatsLine() << "\n.\n" << std::flush;
      continue;
    }
    if (verb == "certify" || verb == "simulate") {
      std::string payload;
      bool terminated = false;
      std::string pl;
      while (std::getline(in, pl)) {
        if (!pl.empty() && pl.back() == '\r') pl.pop_back();
        if (pl == "end") {
          terminated = true;
          break;
        }
        payload += pl + "\n";
      }
      ++stats.requests;
      if (!terminated) {
        ++stats.errors;
        out << "error: unexpected EOF before 'end'\n.\n" << std::flush;
        return;
      }
      const uint64_t start_us = NowMicros();
      std::vector<std::string> response;
      if (verb == "certify") {
        ++stats.certify_requests;
        HandleCertify(params, payload, &response);
      } else {
        ++stats.simulate_requests;
        HandleSimulate(params, payload, &response);
      }
      RecordLatency(NowMicros() - start_us);
      for (const std::string& r : response) out << r << "\n";
      out << ".\n" << std::flush;
      continue;
    }
    ++stats.requests;
    ++stats.errors;
    out << "error: unknown verb '" << verb << "'\n.\n" << std::flush;
  }
}

}  // namespace wydb
