#include "reference.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

namespace kgb {

double RefScore(const ModelView& m, int32_t h, int32_t r, int32_t t) {
  const float* hv = m.Entity(h);
  const float* rv = m.Relation(r);
  const float* tv = m.Entity(t);
  double s = 0.0;
  for (int i = 0; i < m.dim(); ++i) {
    s += std::fabs(double(hv[i]) + double(rv[i]) - double(tv[i]));
  }
  return -s;
}

RankBounds RefRank(const ModelView& m, const nsc::Triple& x, bool head_side,
                   const KnownSet* known) {
  const double truth = RefScore(m, x.h, x.r, x.t);
  const double tol = Tol(truth);
  RankBounds b;
  for (int32_t e = 0; e < m.num_entities(); ++e) {
    const int32_t h = head_side ? e : x.h;
    const int32_t t = head_side ? x.t : e;
    if ((head_side ? x.h : x.t) == e) continue;
    if (known != nullptr && known->count(KnownKey(h, x.r, t)) > 0) continue;
    const double s = RefScore(m, h, x.r, t);
    if (s > truth + tol) {
      ++b.lo;
      ++b.hi;
    } else if (s >= truth - tol) {
      ++b.hi;
    }
  }
  return b;
}

std::pair<double, double> RefMrrBounds(const ModelView& m,
                                       const std::vector<nsc::Triple>& triples,
                                       const KnownSet& known, int threads) {
  std::vector<double> lo(triples.size() * 2), hi(triples.size() * 2);
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (size_t i = w; i < triples.size(); i += threads) {
        for (int side = 0; side < 2; ++side) {
          const RankBounds b = RefRank(m, triples[i], side == 0, &known);
          // A larger rank bound gives the smaller reciprocal.
          lo[2 * i + side] = 1.0 / double(b.hi);
          hi[2 * i + side] = 1.0 / double(b.lo);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  double slo = 0.0, shi = 0.0;
  for (size_t i = 0; i < lo.size(); ++i) {
    slo += lo[i];
    shi += hi[i];
  }
  const double n = static_cast<double>(lo.size());
  return {slo / n, shi / n};
}

bool MrrWithin(double mrr, const std::pair<double, double>& bounds) {
  return mrr >= bounds.first - 1e-9 && mrr <= bounds.second + 1e-9;
}

bool CheckScore(const ModelView& m, const nsc::Triple& x, double got) {
  const double ref = RefScore(m, x.h, x.r, x.t);
  return std::abs(got - ref) <= Tol(ref);
}

bool CheckRank(const ModelView& m, const nsc::Triple& x, bool head_side,
               int64_t got) {
  const RankBounds b = RefRank(m, x, head_side, nullptr);
  return got >= b.lo && got <= b.hi;
}

bool CheckTopK(const ModelView& m, const nsc::Triple& fixed, bool heads,
               size_t k, const std::vector<std::pair<int32_t, double>>& got,
               std::string* why) {
  const size_t want = std::min(k, static_cast<size_t>(m.num_entities()));
  if (got.size() != want) {
    *why = "wrong entry count";
    return false;
  }
  std::set<int32_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [id, score] = got[i];
    if (id < 0 || id >= m.num_entities() || !ids.insert(id).second) {
      *why = "id out of range or repeated";
      return false;
    }
    if (i > 0) {
      const auto& prev = got[i - 1];
      if (prev.second < score || (prev.second == score && prev.first > id)) {
        *why = "entries not in (score desc, id asc) order";
        return false;
      }
    }
    const double ref = heads ? RefScore(m, id, fixed.r, fixed.t)
                             : RefScore(m, fixed.h, fixed.r, id);
    if (std::abs(ref - score) > Tol(ref)) {
      *why = "entry score does not match the reference";
      return false;
    }
  }
  if (got.empty()) return true;
  const double kth = got.back().second;
  for (int32_t e = 0; e < m.num_entities(); ++e) {
    if (ids.count(e)) continue;
    const double s = heads ? RefScore(m, e, fixed.r, fixed.t)
                           : RefScore(m, fixed.h, fixed.r, e);
    if (s > kth + Tol(kth)) {
      *why = "an entity outside the list outscores the k-th";
      return false;
    }
  }
  return true;
}

std::string ServeTotalsMismatch(const ServeTotals& t) {
  std::string why;
  if (t.sent != t.received) {
    why += "sent " + std::to_string(t.sent) + " != received " +
           std::to_string(t.received) + "; ";
  }
  if (t.sent != t.server_requests) {
    why += "sent " + std::to_string(t.sent) + " != server requests " +
           std::to_string(t.server_requests) + "; ";
  }
  if (t.topk_sent != t.topk_executed) {
    why += "TOPK sent " + std::to_string(t.topk_sent) + " != executed " +
           std::to_string(t.topk_executed) + "; ";
  }
  return why;
}

bool CheckCacheEntry(const std::vector<nsc::EntityId>* entry, int n1,
                     int32_t num_entities) {
  if (entry == nullptr || static_cast<int>(entry->size()) != n1) return false;
  for (nsc::EntityId e : *entry) {
    if (e < 0 || e >= num_entities) return false;
  }
  return true;
}

}  // namespace kgb
