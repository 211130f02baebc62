// Checker self-test: each checker must accept a genuine result and
// reject the same result corrupted.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/nscaching_sampler.h"
#include "embedding/model.h"
#include "embedding/scorers/transe.h"
#include "kg/kg_index.h"
#include "load.h"
#include "reference.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "train/link_prediction.h"
#include "workloads.h"

namespace kgb {

namespace {

struct Case {
  int failures = 0;
  void Expect(bool accepted_genuine, bool rejected_corrupt, const char* what) {
    const bool ok = accepted_genuine && rejected_corrupt;
    std::printf("selftest %-28s genuine=%s corrupted=%s -> %s\n", what,
                accepted_genuine ? "accepted" : "REJECTED",
                rejected_corrupt ? "rejected" : "ACCEPTED", ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
};

}  // namespace

int RunCheckerSelfTest() {
  constexpr int32_t kEntities = 400, kRelations = 3;
  constexpr int kDim = 16;
  nsc::KgeModel model(kEntities, kRelations, kDim,
                      std::make_unique<nsc::TransE>());
  nsc::Rng rng(42);
  model.InitXavier(&rng);
  const ModelView view{&model, nullptr};

  nsc::TripleStore triples(kEntities, kRelations);
  KnownSet known;
  for (int i = 0; i < 1200; ++i) {
    const nsc::Triple x{static_cast<int32_t>(rng.UniformInt(uint64_t(kEntities))),
                        static_cast<int32_t>(rng.UniformInt(uint64_t(kRelations))),
                        static_cast<int32_t>(rng.UniformInt(uint64_t(kEntities)))};
    if (known.insert(KnownKey(x.h, x.r, x.t)).second) triples.Add(x);
  }
  const nsc::KgIndex index(triples);
  Case c;

  // TOPK: swap two entries with distinct scores.
  {
    const nsc::Triple q = triples[0];
    std::vector<nsc::TopKEntry> top;
    model.TopKHeads(q.r, q.t, 10, &top);
    std::vector<std::pair<int32_t, double>> got;
    for (const nsc::TopKEntry& e : top) got.emplace_back(e.index, e.score);
    std::string why;
    const bool genuine = CheckTopK(view, q, true, 10, got, &why);
    size_t i = 0;
    while (i + 1 < got.size() && got[i].second == got[i + 1].second) ++i;
    std::swap(got[i], got[i + 1]);
    c.Expect(genuine, !CheckTopK(view, q, true, 10, got, &why),
             "topk swapped entry");
  }
  // TOPK: drop the true best entry (list no longer holds the top-k).
  {
    const nsc::Triple q = triples[1];
    std::vector<nsc::TopKEntry> top;
    model.TopKTails(q.h, q.r, 11, &top);
    std::vector<std::pair<int32_t, double>> got;
    for (const nsc::TopKEntry& e : top) got.emplace_back(e.index, e.score);
    std::string why;
    std::vector<std::pair<int32_t, double>> first(got.begin(), got.end() - 1);
    std::vector<std::pair<int32_t, double>> shifted(got.begin() + 1, got.end());
    c.Expect(CheckTopK(view, q, false, 10, first, &why),
             !CheckTopK(view, q, false, 10, shifted, &why),
             "topk missing best entity");
  }
  // RANK: off by one, on a query without near-ties.
  {
    bool done = false;
    for (size_t i = 0; i < triples.size() && !done; ++i) {
      const RankBounds b = RefRank(view, triples[i], true, nullptr);
      if (b.lo != b.hi || b.lo < 2) continue;
      std::vector<double> all(kEntities);
      model.ScoreAllHeads(triples[i].r, triples[i].t, all.data());
      int64_t rank = 1;
      for (double s : all) rank += s > all[triples[i].h];
      c.Expect(CheckRank(view, triples[i], true, rank),
               !CheckRank(view, triples[i], true, rank + 1), "rank off by one");
      done = true;
    }
    if (!done) c.Expect(false, false, "rank off by one (no query)");
  }
  // SCORE: perturbed.
  {
    const nsc::Triple q = triples[2];
    const double s = model.Score(q);
    c.Expect(CheckScore(view, q, s), !CheckScore(view, q, s + 0.01),
             "score perturbed");
  }
  // MRR: the evaluator's value, then perturbed.
  {
    nsc::TripleStore sub(kEntities, kRelations);
    std::vector<nsc::Triple> v;
    for (size_t i = 0; i < 40; ++i) {
      sub.Add(triples[i]);
      v.push_back(triples[i]);
    }
    nsc::LinkPredictionOptions lp;
    lp.num_threads = 2;
    const double mrr =
        nsc::EvaluateLinkPrediction(model, sub, index, lp).mrr();
    const auto b = RefMrrBounds(view, v, known, 2);
    c.Expect(MrrWithin(mrr, b), !MrrWithin(mrr * 1.02 + 1e-3, b),
             "mrr perturbed");
  }
  // Serving totals: a short closed loop over TCP, then the same load
  // with one response dropped.
  {
    nsc::SnapshotPublisher publisher;
    publisher.Publish(model, 1);
    nsc::ServeServer server(&publisher, nsc::ServeServerOptions());
    bool genuine = false, rejected = false;
    if (server.Start().ok()) {
      const std::vector<nsc::Query> mix =
          MakeRequestMix(triples.triples(), 512, 3);
      size_t next = 0;
      LoadResult load;
      const bool ran =
          RunClosedLoop(server.port(), mix, &next, 2, 2, 0.2, KeepPolicy(), &load);
      ServeTotals t;
      t.sent = load.sent;
      t.received = load.received;
      t.server_requests = static_cast<int64_t>(server.stats().requests);
      t.topk_sent = load.topk_sent;
      t.topk_executed =
          static_cast<int64_t>(server.engine()->batch_stats().topk_requests);
      server.Shutdown();
      genuine = ran && load.sent > 0 && ServeTotalsMismatch(t).empty();
      load.latency_us.pop_back();  // The dropped response.
      t.received = static_cast<int64_t>(load.latency_us.size());
      rejected = !ServeTotalsMismatch(t).empty();
    }
    c.Expect(genuine, rejected, "dropped response");
  }
  // Cache entry: an out-of-range id.
  {
    nsc::NSCachingConfig cfg;
    cfg.n1 = 8;
    cfg.n2 = 8;
    nsc::NSCachingSampler sampler(&model, &index, cfg);
    nsc::Rng srng(7);
    for (size_t i = 0; i < 50; ++i) sampler.Sample(triples[i], &srng);
    const auto* entry = sampler.head_cache().Find(
        nsc::PackRt(triples[0].r, triples[0].t));
    std::vector<nsc::EntityId> bad = entry ? *entry : std::vector<nsc::EntityId>();
    if (!bad.empty()) bad[3] = kEntities;
    c.Expect(CheckCacheEntry(entry, 8, kEntities),
             !CheckCacheEntry(&bad, 8, kEntities), "cache id out of range");
  }
  std::printf("selftest: %d failing case(s)\n", c.failures);
  return c.failures;
}

}  // namespace kgb
