// Seeded inputs of the four workloads, and the oracles that judge the
// program's answers on them. Generation is what the benchmark times as
// set-up; oracle verdicts are computed separately, before timing starts,
// and are not part of set-up time.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "gen/system_gen.h"

namespace e2e {

/// One certify request of a serve workload.
struct ServeRequest {
  std::string payload;  ///< .wydb text sent after `certify`.
  const char* family = "";
  /// Index of the distinct system behind the request (pool entry, base or
  /// delta); requests with one `system` share one oracle verdict.
  int system = 0;
  /// Isomorphic resubmission of a journaled base: must be served from
  /// the cache.
  bool expect_cache = false;
};

struct ServeInputs {
  std::vector<ServeRequest> requests;  ///< Sent in order, cycling.
  /// serve-resubmit only: canonical texts of the base systems the server's
  /// journal holds before the run starts.
  std::vector<std::string> base_texts;
  int num_systems = 0;
  /// Per distinct system: verdict the family has by construction, or -1
  /// when Theorem 4 must decide it.
  std::vector<int> constructed;
};

/// serve-cold: `pool` distinct seeded systems (random 4-6 transaction
/// systems and safe-by-construction 4-5 transaction systems), sent once
/// each per pass.
ServeInputs GenerateServeCold(uint64_t seed, int pool);

/// serve-resubmit: 64 base systems (journaled before the run) and
/// `count` requests: isomorphic resubmissions of the bases plus ~20%
/// one-transaction deltas, in the bases' canonical names, drawn from a
/// pool small enough that bases plus deltas fit in the 128-entry cache.
ServeInputs GenerateServeResubmit(uint64_t seed, int count);

/// Oracle verdicts (1 = safe and deadlock-free) per distinct system of
/// `inputs`: Theorem 4, or the family's verdict by construction when
/// Theorem 4's cycle bound is exceeded.
wydb::Result<std::vector<int>> ServeOracle(const ServeInputs& inputs);

/// A named system for the offline-analysis and runtime workloads.
struct Instance {
  std::string name;
  wydb::OwnedSystem owned;
};

/// analyze-large: shared chain k=6, disjoint grid k=5, a read-mostly farm
/// of 5 workers and two seeded safe 6-transaction systems, each renamed
/// and permuted by the seed.
wydb::Result<std::vector<Instance>> GenerateAnalyzeInstances(uint64_t seed);

/// runtime-farm: read-mostly farm, 7 workers, 8 read entities over 4
/// sites, half of the reads shared; renamed and permuted by the seed.
/// (The exact checker that certifies it at set-up needs 0.18M states at 7
/// workers, 0.77M at 8 and does not finish in a minute at 10.)
wydb::Result<Instance> GenerateRuntimeFarm(uint64_t seed);

/// Renames sites, entities and transactions of a .wydb text and permutes
/// its site, entity and transaction order: an isomorphic copy.
std::string IsomorphicCopy(const std::string& text, wydb::Rng* rng);

/// Order-sensitive fingerprint of a request list.
uint64_t Fingerprint(const ServeInputs& inputs);

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
