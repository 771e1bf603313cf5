#include "inputs.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/multi_analyzer.h"
#include "bench_util.h"
#include "common/macros.h"
#include "core/canonical.h"
#include "io/text_format.h"

namespace e2e {
namespace {

using wydb::OwnedSystem;
using wydb::Result;
using wydb::Rng;
using wydb::Status;

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> Tokens(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

std::string Serialize(const OwnedSystem& owned) {
  return wydb::SerializeSystem(*owned.system);
}

/// An isomorphic copy of `owned`, renamed and permuted by `rng`.
Result<OwnedSystem> Disguise(const OwnedSystem& owned, Rng* rng) {
  return wydb::ParseSystem(IsomorphicCopy(Serialize(owned), rng));
}

/// Random system number `i` of 4 or 5 transactions over 6 entities. The
/// shape cycles with `i` (size, then two-phase or not, then shared point
/// reads or not) so every seed sends the same mix of shapes; the seed
/// picks the systems. The shapes keep the search cost's tail short, so a
/// seed's rare giant cannot set its memory peak: over 2000 samples each,
/// the costliest exact search was 5.5k states for 4 transactions touching
/// 3 entities each and 15k for 5 touching 2. Six transactions have a long
/// tail (1 in ~2000 passes 0.27M states and doubles the peak memory).
Result<OwnedSystem> ColdRandom(int i, Rng* rng) {
  wydb::RandomSystemOptions o;
  o.num_transactions = 4 + i % 2;
  o.num_sites = 2;
  o.entities_per_site = 3;
  o.entities_per_txn = o.num_transactions == 4 ? 3 : 2;
  o.extra_arc_prob = 0.8;
  o.two_phase = (i / 2) % 2 == 1;
  if ((i / 4) % 2 == 1) {
    o.shared_fraction = 0.4;
    o.shared_point_reads = true;
  }
  o.seed = rng->Next();
  return wydb::GenerateRandomSystem(o);
}

Result<OwnedSystem> ColdSafe(int i, Rng* rng) {
  wydb::SafeSystemOptions o;
  o.num_transactions = 4 + i % 2;
  o.num_sites = 2;
  o.entities_per_site = 4;
  o.entities_per_txn = 3;
  o.seed = rng->Next();
  return wydb::GenerateSafeSystem(o);
}

/// Adds a system to `in` as distinct system number `num_systems`.
int NewSystem(ServeInputs* in, int constructed) {
  in->constructed.push_back(constructed);
  return in->num_systems++;
}

/// The base population of serve-resubmit: symmetric families whose
/// canonical keys are expensive (chains, grids, farms), refuted rings and
/// chorded cycles, plus seeded safe and random systems. The fixed-shape
/// families are 50 of the 64 bases, so two seeds differ mostly in how the
/// bases are presented, not in what the cache path costs.
struct Base {
  const char* family;
  OwnedSystem owned;
  /// 1 certified by construction, 0 refuted by construction, -1 Theorem 4
  /// decides.
  int constructed;
  bool delta;  ///< Small enough that its one-transaction delta is cheap.
};

Status AddBase(std::vector<Base>* out, const char* family,
               Result<OwnedSystem> owned, int constructed, bool delta) {
  if (!owned.ok()) return owned.status();
  out->push_back(Base{family, std::move(*owned), constructed, delta});
  return Status::OK();
}

Result<std::vector<Base>> ResubmitBases(Rng* rng) {
  std::vector<Base> bases;
  for (int k = 2; k <= 6; ++k) {
    WYDB_RETURN_IF_ERROR(AddBase(&bases, "chain",
                                 wydb::GenerateSharedChainSystem(k), 1,
                                 k <= 4));
  }
  const std::pair<int, int> grids[] = {{2, 1}, {2, 2}, {2, 3}, {3, 1},
                                       {3, 2}, {3, 3}, {3, 4}, {4, 1},
                                       {4, 2}, {4, 3}, {5, 1}, {5, 2},
                                       {6, 1}, {7, 1}};
  for (auto [k, e] : grids) {
    WYDB_RETURN_IF_ERROR(AddBase(&bases, "grid",
                                 wydb::GenerateDisjointGridSystem(k, e), 1,
                                 k <= 3));
  }
  // A one-entity read set rounds to the same farm at both fractions.
  for (int workers = 2; workers <= 5; ++workers) {
    for (int reads = 1; reads <= 3; ++reads) {
      for (double shared : {0.5, 1.0}) {
        if (reads == 1 && shared < 1.0) continue;
        wydb::ReadMostlyFarmOptions o;
        o.workers = workers;
        o.read_entities = reads;
        o.sites = 2;
        o.shared_fraction = shared;
        WYDB_RETURN_IF_ERROR(AddBase(&bases, "farm",
                                     wydb::GenerateReadMostlyFarm(o), 1,
                                     workers <= 3));
      }
    }
  }
  for (int k = 3; k <= 9; ++k) {
    WYDB_RETURN_IF_ERROR(
        AddBase(&bases, "ring", wydb::GenerateRingSystem(k), 0, true));
  }
  const std::pair<int, int> chorded[] = {{4, 1}, {5, 1}, {5, 2}, {6, 2}};
  for (auto [k, chords] : chorded) {
    WYDB_RETURN_IF_ERROR(AddBase(
        &bases, "chorded",
        wydb::GenerateChordedCycleSystem(k, chords, 1000 + k * 10 + chords),
        -1, false));
  }
  // Seeded bases cycle through their shapes, so every seed has the same mix.
  for (int i = 0; i < 7; ++i) {
    wydb::SafeSystemOptions o;
    o.num_transactions = 3 + i % 3;
    o.entities_per_txn = 3;
    o.seed = rng->Next();
    WYDB_RETURN_IF_ERROR(
        AddBase(&bases, "safe", wydb::GenerateSafeSystem(o), 1, true));
  }
  for (int i = 0; i < 7; ++i) {
    wydb::RandomSystemOptions o;
    o.num_transactions = 3 + i % 3;
    o.num_sites = 2;
    o.entities_per_site = 3;
    o.entities_per_txn = 3;
    o.two_phase = (i / 3) % 2 == 1;
    o.seed = rng->Next();
    WYDB_RETURN_IF_ERROR(AddBase(&bases, "random",
                                 wydb::GenerateRandomSystem(o), -1, true));
  }
  return bases;
}

/// One-transaction delta of a canonical text: drops transaction `drop`
/// (when >= 0) or appends a copy of transaction `dup`'s body under a new
/// name. Keeps the header, so the server's delta matcher sees it.
std::string DeltaText(const std::string& canonical, int drop, int dup) {
  std::string out;
  std::string dup_body;
  int txn = 0;
  for (const std::string& line : SplitLines(canonical)) {
    if (line.rfind("txn ", 0) == 0) {
      const int index = txn++;
      if (index == dup) dup_body = line.substr(line.find(':') + 1);
      if (index == drop) continue;
    }
    out += line + "\n";
  }
  if (dup >= 0) out += "txn tdelta:" + dup_body + "\n";
  return out;
}

}  // namespace

std::string IsomorphicCopy(const std::string& text, Rng* rng) {
  std::vector<std::string> sites;
  std::vector<std::string> site_lines;
  std::vector<std::string> txn_lines;
  std::vector<std::string> entities;
  for (const std::string& line : SplitLines(text)) {
    std::vector<std::string> toks = Tokens(line);
    if (toks.empty()) continue;
    if (toks[0] == "sites:") {
      sites.insert(sites.end(), toks.begin() + 1, toks.end());
    } else if (toks[0] == "site") {
      std::string name = toks[1].substr(0, toks[1].size() - 1);
      sites.push_back(name);
      entities.insert(entities.end(), toks.begin() + 2, toks.end());
      site_lines.push_back(line);
    } else if (toks[0] == "txn") {
      txn_lines.push_back(line);
    }
  }
  auto fresh_names = [&](const std::vector<std::string>& old,
                         const char* prefix) {
    std::vector<int> order(old.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    rng->Shuffle(&order);
    std::map<std::string, std::string> rename;
    for (size_t i = 0; i < old.size(); ++i) {
      rename[old[i]] = prefix + std::to_string(order[i]);
    }
    return rename;
  };
  std::map<std::string, std::string> site_name = fresh_names(sites, "n");
  std::map<std::string, std::string> entity_name = fresh_names(entities, "x");

  std::string out;
  // Sites with no catalog entity are declared up front, as the serializer
  // does; every other site gets its (shuffled) `site` line.
  std::vector<std::string> bare;
  for (const std::string& line : SplitLines(text)) {
    std::vector<std::string> toks = Tokens(line);
    if (!toks.empty() && toks[0] == "sites:") {
      for (size_t i = 1; i < toks.size(); ++i) {
        bare.push_back(site_name[toks[i]]);
      }
    }
  }
  if (!bare.empty()) {
    out += "sites:";
    for (const std::string& s : bare) out += " " + s;
    out += "\n";
  }
  rng->Shuffle(&site_lines);
  for (const std::string& line : site_lines) {
    std::vector<std::string> toks = Tokens(line);
    std::vector<std::string> ents(toks.begin() + 2, toks.end());
    rng->Shuffle(&ents);
    out += "site " + site_name[toks[1].substr(0, toks[1].size() - 1)] + ":";
    for (const std::string& e : ents) out += " " + entity_name[e];
    out += "\n";
  }
  std::vector<int> txn_order(txn_lines.size());
  for (size_t i = 0; i < txn_order.size(); ++i) {
    txn_order[i] = static_cast<int>(i);
  }
  rng->Shuffle(&txn_order);
  for (size_t slot = 0; slot < txn_lines.size(); ++slot) {
    std::vector<std::string> toks = Tokens(txn_lines[txn_order[slot]]);
    out += "txn T";
    out += std::to_string(slot);
    out += ":";
    for (size_t i = 2; i < toks.size(); ++i) {
      const std::string& tok = toks[i];
      out += ' ';
      if (tok == ";" || tok.find("->") != std::string::npos) {
        out += tok;
      } else {
        out += tok[0];
        out += entity_name[tok.substr(1)];
      }
    }
    out += "\n";
  }
  return out;
}

ServeInputs GenerateServeCold(uint64_t seed, int pool) {
  ServeInputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  in.requests.reserve(pool);
  for (int i = 0; static_cast<int>(in.requests.size()) < pool; ++i) {
    // Three random systems for every safe-by-construction one.
    const bool safe = i % 4 == 3;
    Result<OwnedSystem> owned =
        safe ? ColdSafe(i / 4, &rng) : ColdRandom(i - i / 4, &rng);
    if (!owned.ok()) continue;
    ServeRequest r;
    r.payload = Serialize(*owned);
    r.family = safe ? "safe" : "random";
    r.system = NewSystem(&in, safe ? 1 : -1);
    in.requests.push_back(std::move(r));
  }
  return in;
}

ServeInputs GenerateServeResubmit(uint64_t seed, int count) {
  ServeInputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 23);
  Result<std::vector<Base>> bases = ResubmitBases(&rng);
  if (!bases.ok()) return in;

  // Canonical texts: the names the journal stores the bases under, and so
  // the names a delta must use for the server's delta matcher to fire.
  std::vector<int> base_system;
  std::vector<std::string> canonical;
  for (const Base& b : *bases) {
    Result<wydb::SystemKey> key = wydb::CanonicalSystemKey(*b.owned.system);
    if (!key.ok()) return ServeInputs{};
    in.base_texts.push_back(key->text);
    canonical.push_back(key->text);
    base_system.push_back(NewSystem(&in, b.constructed));
  }
  const int num_bases = static_cast<int>(canonical.size());

  // Delta pool: one delta of each small base, removals and additions
  // alternating. Large symmetric bases get none: adding a transaction to
  // them costs a search that dwarfs the rest of the workload. Bases plus
  // deltas (64 + 41) stay below the cache capacity.
  struct Delta {
    std::string text;
    int system;
    const char* family;
  };
  std::vector<Delta> deltas;
  for (int b = 0; b < num_bases; ++b) {
    if (!(*bases)[b].delta) continue;
    std::vector<std::string> lines = SplitLines(canonical[b]);
    const int num_txns = static_cast<int>(
        std::count_if(lines.begin(), lines.end(), [](const std::string& l) {
          return l.rfind("txn ", 0) == 0;
        }));
    const bool remove = num_txns >= 3 && b % 2 == 0;
    const int pick = static_cast<int>(rng.NextBelow(num_txns));
    std::string text = remove ? DeltaText(canonical[b], pick, -1)
                              : DeltaText(canonical[b], -1, pick);
    // A removal from a certified family stays certified; anything else
    // goes to Theorem 4.
    const int constructed =
        remove && in.constructed[base_system[b]] == 1 ? 1 : -1;
    deltas.push_back(Delta{std::move(text), NewSystem(&in, constructed),
                           remove ? "delta-remove" : "delta-add"});
  }

  // Rounds of 80 requests in shuffled order: every base once, as a fresh
  // isomorphic copy, and the next 16 deltas of a shuffled cycle through
  // the pool. Every seed thus sends the same mix.
  constexpr int kDeltasPerRound = 16;
  std::vector<int> delta_order(deltas.size());
  for (size_t i = 0; i < delta_order.size(); ++i) {
    delta_order[i] = static_cast<int>(i);
  }
  rng.Shuffle(&delta_order);
  size_t next_delta = 0;
  in.requests.reserve(count);
  while (static_cast<int>(in.requests.size()) < count) {
    std::vector<int> round;  // >= 0: base index; < 0: -1 - delta index.
    for (int b = 0; b < num_bases; ++b) round.push_back(b);
    for (int k = 0; k < kDeltasPerRound && !deltas.empty(); ++k) {
      round.push_back(-1 - delta_order[next_delta++ % deltas.size()]);
    }
    rng.Shuffle(&round);
    for (int item : round) {
      if (static_cast<int>(in.requests.size()) == count) break;
      ServeRequest r;
      if (item < 0) {
        const Delta& d = deltas[-1 - item];
        r.payload = d.text;
        r.family = d.family;
        r.system = d.system;
      } else {
        r.payload = IsomorphicCopy(canonical[item], &rng);
        r.family = (*bases)[item].family;
        r.system = base_system[item];
        r.expect_cache = true;
      }
      in.requests.push_back(std::move(r));
    }
  }
  return in;
}

Result<std::vector<int>> ServeOracle(const ServeInputs& inputs) {
  std::vector<int> verdict(inputs.num_systems, -2);
  for (const ServeRequest& r : inputs.requests) {
    if (verdict[r.system] != -2) continue;
    WYDB_ASSIGN_OR_RETURN(OwnedSystem owned, wydb::ParseSystem(r.payload));
    Result<wydb::MultiReport> thm4 =
        wydb::CheckSystemSafeAndDeadlockFree(*owned.system);
    if (thm4.ok()) {
      verdict[r.system] = thm4->safe_and_deadlock_free ? 1 : 0;
    } else if (inputs.constructed[r.system] >= 0) {
      verdict[r.system] = inputs.constructed[r.system];
    } else {
      return thm4.status();
    }
  }
  return verdict;
}

Result<std::vector<Instance>> GenerateAnalyzeInstances(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 37);
  std::vector<Instance> out;
  auto add = [&](const char* name, Result<OwnedSystem> owned) -> Status {
    if (!owned.ok()) return owned.status();
    WYDB_ASSIGN_OR_RETURN(OwnedSystem copy, Disguise(*owned, &rng));
    out.push_back(Instance{name, std::move(copy)});
    return Status::OK();
  };
  WYDB_RETURN_IF_ERROR(add("chain6", wydb::GenerateSharedChainSystem(6)));
  WYDB_RETURN_IF_ERROR(add("grid5", wydb::GenerateDisjointGridSystem(5, 2)));
  wydb::ReadMostlyFarmOptions farm;
  farm.workers = 5;
  farm.read_entities = 3;
  farm.sites = 2;
  farm.shared_fraction = 0.5;
  WYDB_RETURN_IF_ERROR(add("farm5", wydb::GenerateReadMostlyFarm(farm)));
  for (int i = 0; i < 2; ++i) {
    wydb::SafeSystemOptions o;
    o.num_transactions = 6;
    o.num_sites = 2;
    o.entities_per_site = 4;
    o.entities_per_txn = 3;
    o.seed = rng.Next();
    WYDB_RETURN_IF_ERROR(add(i == 0 ? "safe6a" : "safe6b",
                             wydb::GenerateSafeSystem(o)));
  }
  return out;
}

Result<Instance> GenerateRuntimeFarm(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 41);
  wydb::ReadMostlyFarmOptions o;
  o.workers = 7;
  o.read_entities = 8;
  o.sites = 4;
  o.shared_fraction = 0.5;
  WYDB_ASSIGN_OR_RETURN(OwnedSystem farm, wydb::GenerateReadMostlyFarm(o));
  WYDB_ASSIGN_OR_RETURN(OwnedSystem copy, Disguise(farm, &rng));
  return Instance{"farm7", std::move(copy)};
}

uint64_t Fingerprint(const ServeInputs& inputs) {
  uint64_t h = Fnv1a("");
  for (const ServeRequest& r : inputs.requests) {
    h = Fnv1a(r.payload, h);
    h = Fnv1a(r.family, h);
  }
  for (const std::string& t : inputs.base_texts) h = Fnv1a(t, h);
  return h;
}

}  // namespace e2e
