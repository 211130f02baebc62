// The benchmark's own seeded graph generator. It lives here, not in the
// library, so that no change to the program can change its own workload.
//
// The graph is TransE-shaped by construction: entities sit on the cells
// of a 3-D lattice (`per_cell` to a cell), every relation is a fixed
// lattice offset, and a triple (h, r, t) takes t from the cell at
// cell(h) + offset(r), jittered by one step along one axis with a
// relation-specific probability (which makes 1-N and N-1 relations).
// Heads are drawn with a power-law degree skew over a seeded permutation,
// tails with a Zipf skew inside their cell, relations with a Zipf skew
// like the hypernym-dominated WN18RR. Entity names spell their cell and
// slot ("x.y.z.slot") and relation names their offset ("r3:1,-2,0"), so
// a latent model can be rebuilt from the names alone.
#ifndef KGBENCH_GENERATOR_H_
#define KGBENCH_GENERATOR_H_

#include <cstdint>
#include <string>

namespace kgb {

struct GraphSpec {
  int32_t entities = 0;
  int32_t relations = 0;
  int64_t train = 0;
  int64_t valid = 0;
  int64_t test = 0;
  /// Entities per lattice cell.
  int per_cell = 1;
  /// Share of triples whose tail is one of the relation's 100 hub
  /// entities (Zipf-popular) instead of a lattice neighbour: the
  /// popular-target skew of real KGs (WN18RR's hypernym hubs).
  double hub_share = 0.0;
  /// Power-law exponent of head popularity, P(i) ∝ (i + 1)^-head_skew.
  double head_skew = 0.0;
  /// Put every entity into at least one training triple (so the loaded
  /// vocabulary has exactly `entities` ids).
  bool cover_all = false;
};

/// The WN18RR-shaped training graph (40,943 entities, 11 relations,
/// 86,835 / 3,034 / 3,134 triples).
GraphSpec TrainGraphSpec();
/// The serving graph: 2^18 entities on a full 64^3 lattice.
GraphSpec ServeGraphSpec();

/// Generates the graph for `seed` and writes train.txt / valid.txt /
/// test.txt into `dir` (which must exist). Returns false on I/O failure.
bool GenerateGraph(const GraphSpec& spec, uint64_t seed,
                   const std::string& dir);

/// Parses an entity name back to its lattice cell.
bool ParseEntityCell(const std::string& name, int cell[3]);
/// Parses a relation name back to its lattice offset.
bool ParseRelationOffset(const std::string& name, int offset[3]);

}  // namespace kgb

#endif  // KGBENCH_GENERATOR_H_
