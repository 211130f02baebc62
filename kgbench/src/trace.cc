#include "trace.h"

#include <cstdio>

#include "common.h"

namespace kgb {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case kSample: return "sampler.sample";
    case kFeedback: return "sampler.feedback";
    case kScoreBatch: return "embedding.score_batch";
    case kBackwardBatch: return "embedding.backward_batch";
    case kCandidateSweep: return "embedding.candidate_sweep";
    case kEntitySweep: return "embedding.entity_sweep";
    case kTopK: return "embedding.topk";
    case kNumKinds: break;
  }
  return "?";
}

// Written only by its own thread; read by Snapshot()/WriteJson() while
// that thread is parked (the caller's contract).
struct Tracer::ThreadRec {
  static constexpr int kMaxDepth = 8;
  int index = 0;
  KindTotals kind[kNumKinds];
  int depth = 0;
  int64_t child_acc[kMaxDepth] = {0};
};

Totals Totals::operator-(const Totals& o) const {
  Totals d;
  for (int k = 0; k < kNumKinds; ++k) {
    d.kind[k].calls = kind[k].calls - o.kind[k].calls;
    d.kind[k].work = kind[k].work - o.kind[k].work;
    d.kind[k].bytes = kind[k].bytes - o.kind[k].bytes;
    d.kind[k].ns = kind[k].ns - o.kind[k].ns;
    d.kind[k].child_ns = kind[k].child_ns - o.kind[k].child_ns;
    d.kind[k].timed_calls = kind[k].timed_calls - o.kind[k].timed_calls;
  }
  return d;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadRec* Tracer::Rec() {
  static thread_local ThreadRec* rec = nullptr;
  if (rec == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back(std::make_unique<ThreadRec>());
    rec = recs_.back().get();
    rec->index = static_cast<int>(recs_.size()) - 1;
  }
  return rec;
}

Totals Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  for (const auto& r : recs_) {
    for (int k = 0; k < kNumKinds; ++k) {
      t.kind[k].calls += r->kind[k].calls;
      t.kind[k].work += r->kind[k].work;
      t.kind[k].bytes += r->kind[k].bytes;
      t.kind[k].ns += r->kind[k].ns;
      t.kind[k].child_ns += r->kind[k].child_ns;
      t.kind[k].timed_calls += r->kind[k].timed_calls;
    }
  }
  return t;
}

void Tracer::AddCoarse(const std::string& name, int64_t start_ns,
                       int64_t end_ns) {
  const int thread = Rec()->index;
  std::lock_guard<std::mutex> lock(mu_);
  coarse_.push_back({name, start_ns, end_ns, thread});
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"threads\": [");
  for (size_t i = 0; i < recs_.size(); ++i) {
    std::fprintf(f, "%s\n  {\"thread\": %d, \"spans\": {", i ? "," : "",
                 recs_[i]->index);
    bool first = true;
    for (int k = 0; k < kNumKinds; ++k) {
      const KindTotals& kt = recs_[i]->kind[k];
      if (kt.calls == 0) continue;
      std::fprintf(f,
                   "%s\"%s\": {\"calls\": %lld, \"work\": %lld, \"ns\": %lld, "
                   "\"child_ns\": %lld, \"timed_calls\": %lld}",
                   first ? "" : ", ", SpanKindName(static_cast<SpanKind>(k)),
                   static_cast<long long>(kt.calls),
                   static_cast<long long>(kt.work),
                   static_cast<long long>(kt.ns),
                   static_cast<long long>(kt.child_ns),
                   static_cast<long long>(kt.timed_calls));
      first = false;
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n], \"coarse\": [");
  for (size_t i = 0; i < coarse_.size(); ++i) {
    std::fprintf(f, "%s\n  {\"name\": %s, \"thread\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}",
                 i ? "," : "", JsonEscape(coarse_[i].name).c_str(),
                 coarse_[i].thread,
                 static_cast<long long>(coarse_[i].start_ns),
                 static_cast<long long>(coarse_[i].end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(SpanKind kind, int64_t work, int64_t bytes)
    : rec_(Tracer::Global().Rec()), kind_(kind) {
  KindTotals& kt = rec_->kind[kind];
  ++kt.calls;
  kt.work += work;
  kt.bytes += bytes;
  if (Tracer::Global().timing() &&
      rec_->depth < Tracer::ThreadRec::kMaxDepth) {
    timed_ = true;
    rec_->child_acc[rec_->depth++] = 0;
    start_ = NowNs();
  }
}

Span::~Span() {
  if (!timed_) return;
  const int64_t d = NowNs() - start_;
  KindTotals& kt = rec_->kind[kind_];
  --rec_->depth;
  kt.ns += d;
  kt.child_ns += rec_->child_acc[rec_->depth];
  ++kt.timed_calls;
  if (rec_->depth > 0) rec_->child_acc[rec_->depth - 1] += d;
}

nsc::NegativeSample TracingSampler::Sample(const nsc::Triple& pos,
                                           nsc::Rng* rng) {
  Span span(kSample, 1);
  if (delay_ns_ > 0) SpinNs(delay_ns_);
  return inner_->Sample(pos, rng);
}

void TracingSampler::SampleBatch(const nsc::Triple* pos, size_t n,
                                 nsc::Rng* rng, nsc::NegativeSample* out) {
  Span span(kSample, static_cast<int64_t>(n));
  if (delay_ns_ > 0) SpinNs(delay_ns_ * static_cast<int64_t>(n));
  inner_->SampleBatch(pos, n, rng, out);
}

void TracingSampler::Feedback(const nsc::Triple& pos,
                              const nsc::NegativeSample& neg,
                              double neg_score) {
  Span span(kFeedback, 1);
  inner_->Feedback(pos, neg, neg_score);
}

void TracingScorer::ScoreBatch(const float* const* h, const float* const* r,
                               const float* const* t, int dim, size_t n,
                               double* out) const {
  Span span(kScoreBatch, static_cast<int64_t>(n));
  inner_->ScoreBatch(h, r, t, dim, n, out);
}

void TracingScorer::BackwardBatch(const float* const* h, const float* const* r,
                                  const float* const* t, int dim, size_t n,
                                  const float* coeff, float* const* gh,
                                  float* const* gr, float* const* gt) const {
  Span span(kBackwardBatch, static_cast<int64_t>(n));
  inner_->BackwardBatch(h, r, t, dim, n, coeff, gh, gr, gt);
}

void TracingScorer::ScoreAllCandidates(nsc::CorruptionSide side,
                                       const float* fixed_entity,
                                       const float* fixed_relation,
                                       const float* base, std::size_t stride,
                                       std::size_t count, int dim,
                                       double* out) const {
  const SpanKind kind =
      count <= candidate_pool_ ? kCandidateSweep : kEntitySweep;
  Span span(kind, static_cast<int64_t>(count),
            static_cast<int64_t>(count) * entity_width(dim) * 4);
  inner_->ScoreAllCandidates(side, fixed_entity, fixed_relation, base, stride,
                             count, dim, out);
}

void TracingScorer::TopKCandidates(nsc::CorruptionSide side,
                                   const float* fixed_entity,
                                   const float* fixed_relation,
                                   const float* base, std::size_t stride,
                                   std::size_t count, int dim,
                                   nsc::TopKCollector* collector) const {
  Span span(kTopK, 1, static_cast<int64_t>(count) * entity_width(dim) * 4);
  inner_->TopKCandidates(side, fixed_entity, fixed_relation, base, stride,
                         count, dim, collector);
}

void TracingScorer::TopKCandidatesBatch(
    nsc::CorruptionSide side, const float* const* fixed_entity,
    const float* const* fixed_relation, std::size_t nq, const float* base,
    std::size_t stride, std::size_t count, int dim,
    nsc::TopKCollector* const* collectors) const {
  Span span(kTopK, static_cast<int64_t>(nq),
            static_cast<int64_t>(count) * entity_width(dim) * 4);
  inner_->TopKCandidatesBatch(side, fixed_entity, fixed_relation, nq, base,
                              stride, count, dim, collectors);
}

}  // namespace kgb
