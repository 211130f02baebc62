#include "generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>
#include <vector>

namespace kgb {
namespace {

// SplitMix64: the generator's own RNG, independent of the library's.
class GenRng {
 public:
  explicit GenRng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Int(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

template <typename T>
void Shuffle(std::vector<T>* v, GenRng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Int(i)]);
  }
}

// Inverse-CDF sampling over fixed weights.
class Discrete {
 public:
  explicit Discrete(const std::vector<double>& w) : cdf_(w.size()) {
    double acc = 0.0;
    for (size_t i = 0; i < w.size(); ++i) cdf_[i] = (acc += w[i]);
    for (double& c : cdf_) c /= acc;
  }
  size_t Draw(GenRng* rng) const {
    const double u = rng->Uniform();
    return std::min(cdf_.size() - 1,
                    static_cast<size_t>(std::lower_bound(cdf_.begin(),
                                                         cdf_.end(), u) -
                                        cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

struct Edge {
  int32_t h, r, t;
};

}  // namespace

GraphSpec TrainGraphSpec() {
  GraphSpec s;
  s.entities = 40943;
  s.relations = 11;
  s.train = 86835;
  s.valid = 3034;
  s.test = 3134;
  s.head_skew = 0.8;
  s.per_cell = 10;
  s.hub_share = 0.5;
  return s;
}

GraphSpec ServeGraphSpec() {
  GraphSpec s;
  s.entities = 1 << 18;
  s.relations = 11;
  s.train = 400000;
  s.valid = 1000;
  s.test = 20000;
  s.head_skew = 0.8;
  s.per_cell = 8;
  s.hub_share = 0.5;
  s.cover_all = true;
  return s;
}

bool GenerateGraph(const GraphSpec& spec, uint64_t seed,
                   const std::string& dir) {
  GenRng rng(seed * 0x2545F4914F6CDD1DULL + 0x1234567ULL);
  const int g = static_cast<int>(
      std::ceil(std::cbrt(double(spec.entities) / spec.per_cell) - 1e-9));
  const int64_t cells = int64_t(g) * g * g;

  // Entity i occupies cell cell_of[i] at slot slot_of[i]; members[c]
  // lists a cell's entities by slot.
  std::vector<int64_t> order(spec.entities);
  for (int32_t i = 0; i < spec.entities; ++i) order[i] = i;
  Shuffle(&order, &rng);
  std::vector<int64_t> cell_of(spec.entities);
  std::vector<int> slot_of(spec.entities);
  std::vector<std::vector<int32_t>> members(cells);
  for (int32_t i = 0; i < spec.entities; ++i) {
    cell_of[i] = order[i] % cells;
    slot_of[i] = static_cast<int>(order[i] / cells);
  }
  std::vector<int32_t> by_order(spec.entities);
  for (int32_t i = 0; i < spec.entities; ++i) by_order[order[i]] = i;
  for (int64_t p = 0; p < spec.entities; ++p) {
    members[p % cells].push_back(by_order[p]);
  }
  // slot_dist[n]: Zipf over the slots of a cell with n members.
  std::vector<Discrete> slot_dist;
  for (int n = 0; n <= spec.per_cell + 1; ++n) {
    std::vector<double> w(std::max(n, 1));
    for (size_t j = 0; j < w.size(); ++j) w[j] = 1.0 / double(j + 1);
    slot_dist.emplace_back(w);
  }

  // Relation offsets and jitter come from a fixed stream, so every seed
  // has the same relation structure and seeds differ only in placement,
  // hubs and sampled triples. Relation 0 is the unit step (1,0,0), which
  // keeps every cell reachable as a head or a tail (cover_all).
  GenRng rel_rng(0x5EEDC0DEULL);
  std::vector<int> off(3 * spec.relations);
  std::vector<double> jitter(spec.relations), rel_w(spec.relations);
  for (int r = 0; r < spec.relations; ++r) {
    int* o = &off[3 * r];
    if (r == 0) {
      o[0] = 1, o[1] = 0, o[2] = 0;
    } else {
      do {
        for (int a = 0; a < 3; ++a) o[a] = static_cast<int>(rel_rng.Int(7)) - 3;
      } while (std::abs(o[0]) + std::abs(o[1]) + std::abs(o[2]) == 0 ||
               std::abs(o[0]) + std::abs(o[1]) + std::abs(o[2]) > 4);
    }
    jitter[r] = 0.7 * rel_rng.Uniform();
    rel_w[r] = std::pow(double(r + 1), -1.3);
  }
  std::vector<int32_t> head_perm(spec.entities);
  std::vector<double> head_w(spec.entities);
  for (int32_t i = 0; i < spec.entities; ++i) {
    head_perm[i] = i;
    head_w[i] = std::pow(double(i + 1), -spec.head_skew);
  }
  Shuffle(&head_perm, &rng);
  const Discrete head_dist(head_w), rel_dist(rel_w);
  // Each relation's hub tails: a seeded pick of entities, Zipf-popular.
  constexpr int kHubs = 100;
  std::vector<int32_t> hubs(size_t(spec.relations) * kHubs);
  for (int32_t& h : hubs) h = static_cast<int32_t>(rng.Int(spec.entities));
  std::vector<double> hub_w(kHubs);
  for (int j = 0; j < kHubs; ++j) hub_w[j] = 1.0 / double(j + 1);
  const Discrete hub_dist(hub_w);

  // A member of cell `c`, Zipf-skewed by slot.
  auto pick = [&](int64_t c) {
    const std::vector<int32_t>& m = members[c];
    if (m.empty()) return int32_t{-1};
    return m[slot_dist[m.size()].Draw(&rng)];
  };
  // The cell at cell(h) + offset(r) (+ jitter), or -1 off the lattice.
  auto target_cell = [&](int64_t c, int r, int sign, bool jit, int axis,
                         int step) {
    int xyz[3] = {int(c / (int64_t(g) * g)), int(c / g % g), int(c % g)};
    for (int a = 0; a < 3; ++a) xyz[a] += sign * off[3 * r + a];
    if (jit) xyz[axis] += step;
    for (int a = 0; a < 3; ++a) {
      if (xyz[a] < 0 || xyz[a] >= g) return int64_t{-1};
    }
    return (int64_t(xyz[0]) * g + xyz[1]) * g + xyz[2];
  };

  std::unordered_set<uint64_t> seen;
  auto key = [](const Edge& e) {
    return (uint64_t(uint32_t(e.h)) << 40) ^ (uint64_t(uint32_t(e.r)) << 32) ^
           uint64_t(uint32_t(e.t));
  };
  std::vector<Edge> train, pool;

  if (spec.cover_all) {
    // One unit-step triple per uncovered entity, as head when the step
    // stays on the lattice, else as tail.
    std::vector<char> covered(spec.entities, 0);
    for (int32_t i = 0; i < spec.entities; ++i) {
      if (covered[i]) continue;
      Edge e{-1, 0, -1};
      for (int attempt = 0; attempt < 16 && e.h < 0; ++attempt) {
        const int64_t fwd = target_cell(cell_of[i], 0, 1, false, 0, 0);
        if (fwd >= 0) {
          e = Edge{i, 0, pick(fwd)};
        } else {
          // i is on the far face: link it from the cell behind it.
          e = Edge{pick(target_cell(cell_of[i], 0, -1, false, 0, 0)), 0, i};
        }
        if (e.h < 0 || e.t < 0 || !seen.insert(key(e)).second) e.h = -1;
      }
      if (e.h < 0) continue;
      covered[e.h] = covered[e.t] = 1;
      train.push_back(e);
    }
  }
  const int64_t total = spec.train + spec.valid + spec.test;
  while (static_cast<int64_t>(train.size() + pool.size()) < total) {
    const int r = static_cast<int>(rel_dist.Draw(&rng));
    const int32_t h = head_perm[head_dist.Draw(&rng)];
    if (rng.Uniform() < spec.hub_share) {
      const Edge e{h, r, hubs[size_t(r) * kHubs + hub_dist.Draw(&rng)]};
      if (e.h != e.t && seen.insert(key(e)).second) pool.push_back(e);
      continue;
    }
    const bool jit = rng.Uniform() < jitter[r];
    const int axis = static_cast<int>(rng.Int(3));
    const int step = rng.Int(2) ? 1 : -1;
    const int64_t c = target_cell(cell_of[h], r, 1, jit, axis, step);
    if (c < 0) continue;
    const Edge e{h, r, pick(c)};
    if (e.t < 0 || !seen.insert(key(e)).second) continue;
    pool.push_back(e);
  }
  Shuffle(&pool, &rng);

  auto name_e = [&](int32_t i, char* buf, size_t n) {
    const int64_t c = cell_of[i];
    std::snprintf(buf, n, "%d.%d.%d.%d", int(c / (int64_t(g) * g)),
                  int(c / g % g), int(c % g), slot_of[i]);
  };
  auto write = [&](const std::string& file, const Edge* e, size_t n) {
    std::FILE* f = std::fopen((dir + "/" + file).c_str(), "w");
    if (f == nullptr) return false;
    char hb[32], tb[32];
    for (size_t i = 0; i < n; ++i) {
      const int* o = &off[3 * e[i].r];
      name_e(e[i].h, hb, sizeof(hb));
      name_e(e[i].t, tb, sizeof(tb));
      std::fprintf(f, "%s\tr%d:%d,%d,%d\t%s\n", hb, e[i].r, o[0], o[1], o[2],
                   tb);
    }
    return std::fclose(f) == 0;
  };
  const size_t nt = static_cast<size_t>(spec.test);
  const size_t nv = static_cast<size_t>(spec.valid);
  train.insert(train.end(), pool.begin() + nt + nv, pool.end());
  Shuffle(&train, &rng);
  return write("test.txt", pool.data(), nt) &&
         write("valid.txt", pool.data() + nt, nv) &&
         write("train.txt", train.data(), train.size());
}

bool ParseEntityCell(const std::string& name, int cell[3]) {
  return std::sscanf(name.c_str(), "%d.%d.%d", &cell[0], &cell[1],
                     &cell[2]) == 3;
}

bool ParseRelationOffset(const std::string& name, int offset[3]) {
  int r = 0;
  return std::sscanf(name.c_str(), "r%d:%d,%d,%d", &r, &offset[0], &offset[1],
                     &offset[2]) == 4;
}

}  // namespace kgb
