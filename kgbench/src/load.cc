#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <thread>

#include "common.h"

namespace kgb {
namespace {

class MixRng {
 public:
  explicit MixRng(uint64_t seed) : s_(seed ^ 0xA0761D6478BD642FULL) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

int KindBucket(nsc::QueryKind k) {
  switch (k) {
    case nsc::QueryKind::kScore: return 0;
    case nsc::QueryKind::kRankHead:
    case nsc::QueryKind::kRankTail: return 1;
    default: return 2;
  }
}

bool IsTopK(nsc::QueryKind k) {
  return k == nsc::QueryKind::kTopKHeads || k == nsc::QueryKind::kTopKTails;
}

// One client connection: the socket, its unparsed input, and the FIFO of
// requests awaiting a response (index into the mix, due time).
struct Conn {
  int fd = -1;
  std::string in;
  std::deque<std::pair<size_t, int64_t>> waiting;
};

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Shared response bookkeeping of the TCP generators.
class Collector {
 public:
  Collector(const std::vector<nsc::Query>& mix, const KeepPolicy& keep,
            LoadResult* out)
      : mix_(mix), keep_(keep), out_(out) {
    // The cap holds per LoadResult, across the calls that fill it.
    for (const auto& kept : out->kept) {
      ++kept_[KindBucket(mix[kept.first % mix.size()].kind)];
    }
  }

  void OnResponse(size_t idx, int64_t due_ns, int64_t now_ns,
                  const std::string& line) {
    ++out_->received;
    out_->done_ns.push_back(now_ns);
    out_->latency_us.push_back(static_cast<double>(now_ns - due_ns) * 1e-3);
    Response r;
    if (!ParseResponse(line, &r) || !r.ok) {
      ++out_->errors;
      std::fprintf(stderr, "serving error for request %zu: %s\n", idx,
                   line.c_str());
      return;
    }
    const int b = KindBucket(mix_[idx % mix_.size()].kind);
    if (idx % keep_.every == 0 && kept_[b] < keep_.cap_per_kind) {
      ++kept_[b];
      out_->kept.emplace_back(idx, std::move(r));
    }
  }

 private:
  const std::vector<nsc::Query>& mix_;
  const KeepPolicy& keep_;
  LoadResult* out_;
  size_t kept_[3] = {0, 0, 0};
};

// Reads what is available on `c`, handing complete lines to the
// collector. Returns false on EOF or error.
bool Drain(Conn* c, Collector* col) {
  char buf[65536];
  const ssize_t n = recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
  if (n == 0) return false;
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  c->in.append(buf, static_cast<size_t>(n));
  const int64_t now = NowNs();
  size_t start = 0;
  for (size_t nl; (nl = c->in.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (c->waiting.empty()) return false;  // Response nobody asked for.
    const auto [idx, due] = c->waiting.front();
    c->waiting.pop_front();
    col->OnResponse(idx, due, now, c->in.substr(start, nl - start));
  }
  c->in.erase(0, start);
  return true;
}

bool OpenConns(int port, int n, std::vector<Conn>* conns) {
  conns->resize(n);
  for (Conn& c : *conns) {
    c.fd = Connect(port);
    if (c.fd < 0) return false;
  }
  return true;
}

void CloseConns(std::vector<Conn>* conns) {
  for (Conn& c : *conns) {
    if (c.fd >= 0) close(c.fd);
    c.fd = -1;
  }
}

int64_t Outstanding(const std::vector<Conn>& conns) {
  int64_t n = 0;
  for (const Conn& c : conns) n += static_cast<int64_t>(c.waiting.size());
  return n;
}

// Polls every connection for input for at most `timeout_ns`.
bool PollOnce(std::vector<Conn>* conns, int64_t timeout_ns, Collector* col) {
  std::vector<pollfd> pfds(conns->size());
  for (size_t i = 0; i < conns->size(); ++i) {
    pfds[i] = pollfd{(*conns)[i].fd, POLLIN, 0};
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000LL),
              static_cast<long>(timeout_ns % 1000000000LL)};
  const int rc = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (rc < 0) return errno == EINTR;
  for (size_t i = 0; i < conns->size(); ++i) {
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!Drain(&(*conns)[i], col)) return false;
    }
  }
  return true;
}

// Waits (bounded) until every sent request is answered.
bool DrainAll(std::vector<Conn>* conns, Collector* col) {
  const int64_t give_up = NowNs() + 30LL * 1000000000LL;
  while (Outstanding(*conns) > 0) {
    if (NowNs() > give_up) return false;
    if (!PollOnce(conns, 100000000LL, col)) return false;
  }
  return true;
}

}  // namespace

std::vector<nsc::Query> MakeRequestMix(const std::vector<nsc::Triple>& keys,
                                       size_t count, uint64_t seed) {
  // The five query kinds in equal shares, keys uniform over `keys`: the
  // mix the library's serving stress test draws (its K varies; here K is
  // fixed at kServeK).
  constexpr nsc::QueryKind kKinds[] = {
      nsc::QueryKind::kScore, nsc::QueryKind::kRankHead,
      nsc::QueryKind::kRankTail, nsc::QueryKind::kTopKHeads,
      nsc::QueryKind::kTopKTails};
  MixRng rng(seed);
  std::vector<nsc::Query> mix(count);
  for (nsc::Query& q : mix) {
    const nsc::Triple& x = keys[rng.Next() % keys.size()];
    q.kind = kKinds[rng.Next() % 5];
    q.h = x.h;
    q.r = x.r;
    q.t = x.t;
    if (q.kind == nsc::QueryKind::kTopKHeads ||
        q.kind == nsc::QueryKind::kTopKTails) {
      q.k = kServeK;
    }
  }
  return mix;
}

double RepeatedKeyShare(const std::vector<nsc::Query>& mix) {
  std::set<std::tuple<int32_t, int32_t, int32_t>> seen;
  size_t repeated = 0;
  for (const nsc::Query& q : mix) {
    if (!seen.insert({q.h, q.r, q.t}).second) ++repeated;
  }
  return mix.empty() ? 0.0 : double(repeated) / double(mix.size());
}

std::string FormatRequest(const nsc::Query& q) {
  char buf[128];
  switch (q.kind) {
    case nsc::QueryKind::kScore:
      std::snprintf(buf, sizeof(buf), "SCORE %d %d %d\n", q.h, q.r, q.t);
      break;
    case nsc::QueryKind::kRankHead:
      std::snprintf(buf, sizeof(buf), "RANK HEAD %d %d %d\n", q.h, q.r, q.t);
      break;
    case nsc::QueryKind::kRankTail:
      std::snprintf(buf, sizeof(buf), "RANK TAIL %d %d %d\n", q.h, q.r, q.t);
      break;
    case nsc::QueryKind::kTopKHeads:
      std::snprintf(buf, sizeof(buf), "TOPK HEADS %d %d %zu\n", q.r, q.t, q.k);
      break;
    case nsc::QueryKind::kTopKTails:
      std::snprintf(buf, sizeof(buf), "TOPK TAILS %d %d %zu\n", q.h, q.r, q.k);
      break;
  }
  return buf;
}

bool ParseResponse(const std::string& line, Response* out) {
  *out = Response();
  const size_t sp = line.find(' ');
  out->tag = line.substr(0, sp);
  if (sp == std::string::npos || out->tag == "ERR") return true;
  const char* p = line.c_str() + sp + 1;
  char* end = nullptr;
  out->step = std::strtoll(p, &end, 10);
  if (end == p) return false;
  p = end;
  if (out->tag == "SCORE") {
    out->score = std::strtod(p, &end);
    out->ok = end != p;
  } else if (out->tag == "RANK") {
    out->rank = std::strtoll(p, &end, 10);
    out->ok = end != p;
  } else if (out->tag == "TOPK") {
    const long n = std::strtol(p, &end, 10);
    if (end == p || n < 0) return false;
    p = end;
    for (long i = 0; i < n; ++i) {
      const long id = std::strtol(p, &end, 10);
      if (end == p || *end != ':') return false;
      p = end + 1;
      const double s = std::strtod(p, &end);
      if (end == p) return false;
      p = end;
      out->topk.emplace_back(static_cast<int32_t>(id), s);
    }
    out->ok = true;
  }
  return out->ok;
}

bool RunClosedLoop(int port, const std::vector<nsc::Query>& mix, size_t* next,
                   int conns_n, int depth, double seconds,
                   const KeepPolicy& keep, LoadResult* out) {
  std::vector<Conn> conns;
  Collector col(mix, keep, out);
  bool ok = OpenConns(port, conns_n, &conns);
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  auto send_next = [&](Conn* c) {
    const size_t idx = (*next)++;
    const nsc::Query& q = mix[idx % mix.size()];
    c->waiting.emplace_back(idx, NowNs());
    ++out->sent;
    if (IsTopK(q.kind)) ++out->topk_sent;
    return SendAll(c->fd, FormatRequest(q));
  };
  const size_t d = static_cast<size_t>(depth);
  for (Conn& c : conns) {
    while (ok && c.waiting.size() < d) ok = send_next(&c);
  }
  while (ok && NowNs() < stop) {
    ok = PollOnce(&conns, 10000000LL, &col);
    for (Conn& c : conns) {
      while (ok && c.waiting.size() < d && NowNs() < stop) ok = send_next(&c);
    }
  }
  ok = ok && DrainAll(&conns, &col);
  CloseConns(&conns);
  return ok;
}

std::vector<double> WindowRates(const LoadResult& r, int64_t start_ns,
                                int64_t stop_ns, double window_s) {
  const int64_t w = static_cast<int64_t>(window_s * 1e9);
  const int64_t n = std::max<int64_t>(1, (stop_ns - start_ns) / w);
  std::vector<double> counts(static_cast<size_t>(n), 0.0);
  for (int64_t t : r.done_ns) {
    const int64_t i = (t - start_ns) / w;
    if (i >= 0 && i < n) counts[static_cast<size_t>(i)] += 1.0;
  }
  for (double& c : counts) c /= window_s;
  return counts;
}

bool RunOpenLoop(int port, const std::vector<nsc::Query>& mix, size_t* next,
                 int conns_n, double rate, double seconds, uint64_t seed,
                 const KeepPolicy& keep, LoadResult* out) {
  std::vector<Conn> conns;
  Collector col(mix, keep, out);
  bool ok = OpenConns(port, conns_n, &conns);
  MixRng rng(seed * 31 + 7);
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  int64_t due = start;
  size_t rr = 0;
  while (ok) {
    const int64_t now = NowNs();
    while (ok && due <= now) {
      const size_t idx = (*next)++;
      const nsc::Query& q = mix[idx % mix.size()];
      Conn& c = conns[rr++ % conns.size()];
      c.waiting.emplace_back(idx, due);
      ++out->sent;
      if (IsTopK(q.kind)) ++out->topk_sent;
      out->late_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
      ok = SendAll(c.fd, FormatRequest(q));
      due += static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) / rate * 1e9);
    }
    if (due >= stop) break;
    ok = ok && PollOnce(&conns, std::max<int64_t>(0, due - NowNs()), &col);
  }
  ok = ok && DrainAll(&conns, &col);
  CloseConns(&conns);
  return ok;
}

void RunEngineOpenLoop(nsc::QueryEngine* engine,
                       const std::vector<nsc::Query>& mix, size_t* next,
                       double rate, double seconds, uint64_t seed,
                       LoadResult* out) {
  MixRng rng(seed * 31 + 7);
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> dues;
  for (int64_t due = start; due < stop;
       due += static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) / rate * 1e9)) {
    dues.push_back(due);
  }
  std::vector<int64_t> done_at(dues.size(), 0);
  std::vector<char> failed(dues.size(), 0);
  std::atomic<size_t> completed{0};
  std::mutex mu;
  for (size_t i = 0; i < dues.size(); ++i) {
    while (NowNs() < dues[i]) {
      const int64_t wait = dues[i] - NowNs();
      if (wait > 50000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 50000));
      }
    }
    out->late_us.push_back(static_cast<double>(NowNs() - dues[i]) * 1e-3);
    const nsc::Query& q = mix[(*next)++ % mix.size()];
    ++out->sent;
    if (IsTopK(q.kind)) ++out->topk_sent;
    engine->Submit(q, [i, &done_at, &failed, &completed,
                       &mu](nsc::QueryResult r) {
      std::lock_guard<std::mutex> lock(mu);
      done_at[i] = NowNs();
      failed[i] = r.status.ok() ? 0 : 1;
      completed.fetch_add(1, std::memory_order_release);
    });
  }
  while (completed.load(std::memory_order_acquire) < dues.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < dues.size(); ++i) {
    ++out->received;
    out->errors += failed[i];
    out->latency_us.push_back(static_cast<double>(done_at[i] - dues[i]) * 1e-3);
  }
}

}  // namespace kgb
