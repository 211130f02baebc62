// Independent checkers: a scalar double-precision TransE scorer, a
// filtered ranker over the benchmark's own known-triple set, and the
// checks of served answers. None of them calls the library's scoring or
// ranking code; they read embedding rows and nothing else.
#ifndef KGBENCH_REFERENCE_H_
#define KGBENCH_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "embedding/model.h"
#include "kg/types.h"

namespace kgb {

/// Scores closer than this (relative to 1 + |score|) count as near-ties:
/// the library accumulates float lane sums, the reference doubles.
inline constexpr double kTieTolerance = 1e-4;

inline double Tol(double s) { return kTieTolerance * (1.0 + std::abs(s)); }

/// Read-only rows of one model version: entity rows from `model`,
/// relation rows from `relations` when non-null (serving versions differ
/// only in their relation rows).
struct ModelView {
  const nsc::KgeModel* model = nullptr;
  const std::vector<float>* relations = nullptr;  ///< rows × dim, or null.

  const float* Entity(int32_t e) const {
    return model->entity_table().Row(e);
  }
  const float* Relation(int32_t r) const {
    return relations ? relations->data() + size_t(r) * model->dim()
                     : model->relation_table().Row(r);
  }
  int32_t num_entities() const { return model->num_entities(); }
  int dim() const { return model->dim(); }
};

/// f(h, r, t) = -sum_i |h_i + r_i - t_i| in double precision.
double RefScore(const ModelView& m, int32_t h, int32_t r, int32_t t);

/// Packed (h, r, t) keys of every known triple (train ∪ valid ∪ test),
/// built by the benchmark from its own TSV files.
using KnownSet = std::unordered_set<uint64_t>;
inline uint64_t KnownKey(int32_t h, int32_t r, int32_t t) {
  return (uint64_t(uint32_t(h)) << 42) | (uint64_t(uint32_t(r)) << 21) |
         uint64_t(uint32_t(t));
}

/// Bounds on a rank under near-ties: [1 + #clearly higher,
/// 1 + #clearly higher + #near-tied].
struct RankBounds {
  int64_t lo = 1;
  int64_t hi = 1;
};

/// Rank of the true side of `x` among all candidates for that side;
/// `known` != null gives the filtered setting (known corruptions skipped).
RankBounds RefRank(const ModelView& m, const nsc::Triple& x, bool head_side,
                   const KnownSet* known);

/// Filtered MRR bounds over `triples` (both sides of each), computed with
/// `threads` threads.
std::pair<double, double> RefMrrBounds(const ModelView& m,
                                       const std::vector<nsc::Triple>& triples,
                                       const KnownSet& known, int threads);

/// True when `mrr` lies inside the bounds (with rounding slack).
bool MrrWithin(double mrr, const std::pair<double, double>& bounds);

/// Checks a served SCORE answer.
bool CheckScore(const ModelView& m, const nsc::Triple& x, double got);

/// Checks a served raw RANK answer (no filtering, all entities).
bool CheckRank(const ModelView& m, const nsc::Triple& x, bool head_side,
               int64_t got);

/// Checks a served TOPK answer for fixed (r, t) (heads) or (h, r)
/// (tails): min(k, |E|) distinct in-range ids in (score desc, id asc)
/// order, scores matching the reference, and no entity outside the list
/// scoring above the k-th by more than the tolerance.
bool CheckTopK(const ModelView& m, const nsc::Triple& fixed, bool heads,
               size_t k, const std::vector<std::pair<int32_t, double>>& got,
               std::string* why);

/// Serving totals reached by independent paths: the load generator's
/// counts against the server's and the engine's.
struct ServeTotals {
  int64_t sent = 0;             ///< TCP requests the client sent.
  int64_t received = 0;         ///< TCP responses the client read.
  int64_t server_requests = 0;  ///< ServeServer::stats().requests.
  int64_t topk_sent = 0;        ///< TOPK requests sent (TCP and engine).
  int64_t topk_executed = 0;    ///< batch_stats().topk_requests.
};

/// Empty when the totals agree, else which ones disagree.
std::string ServeTotalsMismatch(const ServeTotals& t);

/// Checks one cache entry: exactly `n1` ids, all in [0, num_entities).
bool CheckCacheEntry(const std::vector<nsc::EntityId>* entry, int n1,
                     int32_t num_entities);

}  // namespace kgb

#endif  // KGBENCH_REFERENCE_H_
