// Tracing from outside the library: spans around calls into the
// library's public extension points, kept in memory per thread and
// written out when the run ends.
//
// Two decorators carry the fine-grained spans:
//   - TracingSampler wraps a NegativeSampler and times Sample,
//     SampleBatch and Feedback;
//   - TracingScorer wraps a ScoringFunction and times the batched,
//     sweep and top-K calls.
// Both forward every virtual (traits and simd_accelerated() included),
// so the library takes exactly the code path it takes without them.
//
// A span's self time is its duration minus the part covered by spans
// nested inside it on the same thread (a scorer sweep issued from inside
// a sampler call is the sampler's child). Fine spans are aggregated per
// (thread, kind) — count, work items, total and child nanoseconds —
// because a training run issues millions of them; coarse spans (load,
// epoch, evaluation, publish) are kept as individual records.
#ifndef KGBENCH_TRACE_H_
#define KGBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embedding/scoring_function.h"
#include "sampler/negative_sampler.h"

namespace kgb {

enum SpanKind : int {
  kSample = 0,      ///< NegativeSampler::Sample / SampleBatch.
  kFeedback,        ///< NegativeSampler::Feedback.
  kScoreBatch,      ///< ScoringFunction::ScoreBatch.
  kBackwardBatch,   ///< ScoringFunction::BackwardBatch.
  kCandidateSweep,  ///< ScoreAllCandidates over a refresh-sized pool.
  kEntitySweep,     ///< ScoreAllCandidates over an entity-table slab.
  kTopK,            ///< TopKCandidates / TopKCandidatesBatch.
  kNumKinds
};

const char* SpanKindName(SpanKind kind);

/// Sums over threads of one kind's fine spans.
struct KindTotals {
  int64_t calls = 0;
  int64_t work = 0;      ///< Items: triples, candidates or queries.
  int64_t bytes = 0;     ///< Computed bytes read (sweeps only).
  int64_t ns = 0;        ///< Span time (timed calls only).
  int64_t child_ns = 0;  ///< Time of spans nested inside.
  int64_t timed_calls = 0;
};

struct Totals {
  KindTotals kind[kNumKinds];
  Totals operator-(const Totals& o) const;
};

/// A coarse span, recorded individually.
struct CoarseSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
};

/// The process-wide span store.
class Tracer {
 public:
  static Tracer& Global();

  /// Timing on: decorators read the clock around every call. Off: they
  /// only count calls and work (a counter increment per call).
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  bool timing() const { return timing_.load(std::memory_order_relaxed); }

  /// Sum over every thread's aggregates. Call only while no thread is
  /// inside a traced call (between epochs, after joins).
  Totals Snapshot() const;

  void AddCoarse(const std::string& name, int64_t start_ns, int64_t end_ns);

  /// Writes every thread's aggregates and every coarse span as JSON.
  bool WriteJson(const std::string& path) const;

  struct ThreadRec;
  ThreadRec* Rec();

 private:
  Tracer() = default;
  std::atomic<bool> timing_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRec>> recs_;
  std::vector<CoarseSpan> coarse_;
};

/// RAII fine span on the calling thread. Counts always; reads the clock
/// only when the tracer's timing is on.
class Span {
 public:
  Span(SpanKind kind, int64_t work, int64_t bytes = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadRec* rec_;
  SpanKind kind_;
  int64_t start_ = 0;
  bool timed_ = false;
};

/// Times a NegativeSampler. `delay_ns` > 0 spins that long inside every
/// sampled triple: the self-test's injected slowdown, never set otherwise.
class TracingSampler : public nsc::NegativeSampler {
 public:
  TracingSampler(nsc::NegativeSampler* inner, int64_t delay_ns = 0)
      : inner_(inner), delay_ns_(delay_ns) {}

  std::string name() const override { return inner_->name(); }
  nsc::NegativeSample Sample(const nsc::Triple& pos, nsc::Rng* rng) override;
  void SampleBatch(const nsc::Triple* pos, size_t n, nsc::Rng* rng,
                   nsc::NegativeSample* out) override;
  bool stateless_sampling() const override {
    return inner_->stateless_sampling();
  }
  bool thread_safe_sampling() const override {
    return inner_->thread_safe_sampling();
  }
  void Feedback(const nsc::Triple& pos, const nsc::NegativeSample& neg,
                double neg_score) override;
  void BeginEpoch(int epoch) override { inner_->BeginEpoch(epoch); }

 private:
  nsc::NegativeSampler* inner_;
  int64_t delay_ns_;
};

/// Times a ScoringFunction. ScoreAllCandidates calls over at most
/// `candidate_pool` rows are NSCaching refresh sweeps (kCandidateSweep);
/// larger ones are entity-table sweeps (kEntitySweep).
class TracingScorer : public nsc::ScoringFunction {
 public:
  TracingScorer(std::unique_ptr<nsc::ScoringFunction> inner,
                size_t candidate_pool)
      : inner_(std::move(inner)), candidate_pool_(candidate_pool) {}

  std::string name() const override { return inner_->name(); }
  nsc::ModelFamily family() const override { return inner_->family(); }
  int entity_width(int dim) const override {
    return inner_->entity_width(dim);
  }
  int relation_width(int dim) const override {
    return inner_->relation_width(dim);
  }
  double Score(const float* h, const float* r, const float* t,
               int dim) const override {
    return inner_->Score(h, r, t, dim);
  }
  void Backward(const float* h, const float* r, const float* t, int dim,
                float coeff, float* gh, float* gr, float* gt) const override {
    inner_->Backward(h, r, t, dim, coeff, gh, gr, gt);
  }
  void ScoreBatch(const float* const* h, const float* const* r,
                  const float* const* t, int dim, size_t n,
                  double* out) const override;
  void BackwardBatch(const float* const* h, const float* const* r,
                     const float* const* t, int dim, size_t n,
                     const float* coeff, float* const* gh, float* const* gr,
                     float* const* gt) const override;
  void ScoreAllCandidates(nsc::CorruptionSide side, const float* fixed_entity,
                          const float* fixed_relation, const float* base,
                          std::size_t stride, std::size_t count, int dim,
                          double* out) const override;
  void TopKCandidates(nsc::CorruptionSide side, const float* fixed_entity,
                      const float* fixed_relation, const float* base,
                      std::size_t stride, std::size_t count, int dim,
                      nsc::TopKCollector* collector) const override;
  void TopKCandidatesBatch(nsc::CorruptionSide side,
                           const float* const* fixed_entity,
                           const float* const* fixed_relation, std::size_t nq,
                           const float* base, std::size_t stride,
                           std::size_t count, int dim,
                           nsc::TopKCollector* const* collectors) const override;
  bool simd_accelerated() const override { return inner_->simd_accelerated(); }
  void ProjectEntityRow(float* row, int dim) const override {
    inner_->ProjectEntityRow(row, dim);
  }
  void ProjectRelationRow(float* row, int dim) const override {
    inner_->ProjectRelationRow(row, dim);
  }

 private:
  std::unique_ptr<nsc::ScoringFunction> inner_;
  size_t candidate_pool_;
};

}  // namespace kgb

#endif  // KGBENCH_TRACE_H_
