// Serving load: the request mix, the wire format on the client side, and
// the three load generators — closed loop and open loop over TCP (one
// client thread driving several connections), and an open-loop pass
// straight through QueryEngine::Submit (no socket) for attribution.
#ifndef KGBENCH_LOAD_H_
#define KGBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kg/types.h"
#include "serve/query_engine.h"

namespace kgb {

inline constexpr int kServeK = 10;

/// A seeded request sequence keyed on held-out triples: SCORE, RANK HEAD,
/// RANK TAIL, TOPK HEADS and TOPK TAILS (K = kServeK) in equal shares,
/// keys drawn uniformly from `keys`.
std::vector<nsc::Query> MakeRequestMix(const std::vector<nsc::Triple>& keys,
                                       size_t count, uint64_t seed);

/// Share of requests whose (h, r, t) key already occurred earlier.
double RepeatedKeyShare(const std::vector<nsc::Query>& mix);

std::string FormatRequest(const nsc::Query& q);

/// A parsed response line.
struct Response {
  bool ok = false;
  std::string tag;  ///< SCORE / RANK / TOPK / ERR / ...
  int64_t step = -1;
  double score = 0.0;
  int64_t rank = 0;
  std::vector<std::pair<int32_t, double>> topk;
};

bool ParseResponse(const std::string& line, Response* out);

/// What one load phase saw.
struct LoadResult {
  int64_t sent = 0;
  int64_t received = 0;
  int64_t errors = 0;       ///< ERR or unparsable responses.
  int64_t topk_sent = 0;
  std::vector<double> latency_us;  ///< One per response.
  std::vector<double> late_us;     ///< Open loop: send time - due time.
  std::vector<int64_t> done_ns;    ///< Completion time of each response.
  /// Responses kept for checking: (index into the mix, response).
  std::vector<std::pair<size_t, Response>> kept;
};

/// Which responses to keep for checking: every `every`-th request index,
/// at most `cap` of each kind.
struct KeepPolicy {
  size_t every = 97;
  size_t cap_per_kind = 24;
};

/// Closed loop: `conns` connections, each keeping `depth` requests in
/// flight (a new one is sent as each answer lands); sends continue until
/// `seconds` elapse, then outstanding ones drain. Requests are taken from
/// `mix` starting at `*next` (wrapping).
bool RunClosedLoop(int port, const std::vector<nsc::Query>& mix, size_t* next,
                   int conns, int depth, double seconds,
                   const KeepPolicy& keep, LoadResult* out);

/// Completions per second in each consecutive `window_s` window of
/// [start_ns, stop_ns).
std::vector<double> WindowRates(const LoadResult& r, int64_t start_ns,
                                int64_t stop_ns, double window_s);

/// Open loop: Poisson arrivals at `rate` per second for `seconds`,
/// round-robin over `conns` pipelined connections. Latency runs from
/// each request's scheduled send time to its response.
bool RunOpenLoop(int port, const std::vector<nsc::Query>& mix, size_t* next,
                 int conns, double rate, double seconds, uint64_t seed,
                 const KeepPolicy& keep, LoadResult* out);

/// The same open-loop schedule submitted straight to the engine.
void RunEngineOpenLoop(nsc::QueryEngine* engine,
                       const std::vector<nsc::Query>& mix, size_t* next,
                       double rate, double seconds, uint64_t seed,
                       LoadResult* out);

}  // namespace kgb

#endif  // KGBENCH_LOAD_H_
