// wire_mixed — ZNET traffic. 128^2 Mode-A slice requests on 4 loopback
// connections to an in-process net::Server in front of a default
// SegmentService. Three requests in four repeat one of 16 hot slices
// (mask-cache hits after set-up); one in four is a never-seen slice that
// runs the full cold pipeline. Two phases:
//   * open loop: Poisson arrivals at kOpenRatePerS (10/s) in total, a
//     quarter on each connection, latency timed from each request's due
//     time;
//   * closed loop: 4 connections x 4 outstanding requests (saturation).
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/fibsem/synth.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/serve/service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace zenesis;
using namespace std::chrono_literals;

constexpr std::int64_t kEdge = 128;
constexpr int kHot = 16;
constexpr int kColdBases = 64;
constexpr int kConns = 4;
constexpr int kOutstanding = 4;
constexpr int kSetupReps = 5;
/// Open-loop offered rate (requests/s over all connections), fixed so
/// every commit is offered the same load: under a tenth of the saturated
/// closed-loop rate on a 4-core x86-64 host (~110 req/s). In small
/// batches a cold request holds the dispatcher for ~60 ms, so at half the
/// saturated rate the dispatcher is nearly always busy and queueing
/// multiplies every few percent of host speed into latency; at this rate
/// it is busy about a sixth of the time and latency tracks service time.
constexpr double kOpenRatePerS = 10.0;
/// Share of the time budget spent in the open-loop phase.
constexpr double kOpenShare = 0.6;
/// Closed-loop requests prepared per connection per second of budget (an
/// upper bound on the saturated rate, so the loop never runs dry).
constexpr double kClosedPerConnPerS = 100.0;
/// Traced passes run in chunks (schedule seconds / requests per
/// connection) small enough that no thread records more spans between
/// drains than the 4096-slot trace ring holds.
constexpr double kChunkSeconds = 2.0;
constexpr std::size_t kClosedChunk = 48;
/// Wire responses byte-compared against a direct SegmentService::submit.
constexpr int kCompareSamples = 8;
constexpr double kIouFloor = 0.4;

struct SliceInput {
  image::AnyImage raw;
  image::Mask ground_truth;
  std::string prompt;
};

SliceInput make_slice(std::uint64_t seed, std::uint64_t stream) {
  fibsem::SynthConfig cfg;
  cfg.type = stream % 2 == 0 ? fibsem::SampleType::kCrystalline
                             : fibsem::SampleType::kAmorphous;
  cfg.width = kEdge;
  cfg.height = kEdge;
  cfg.seed = mix_seed(seed, stream);
  fibsem::SyntheticSlice synth = fibsem::generate_slice(cfg, 0);
  return {std::move(synth.raw), std::move(synth.ground_truth),
          fibsem::default_prompt(cfg.type)};
}

/// Slice `in` under dihedral symmetry k in [0, 8): bit 0 transposes,
/// bit 1 mirrors x, bit 2 mirrors y. Inputs are square.
template <typename T>
image::Image<T> dihedral(const image::Image<T>& in, int k) {
  const std::int64_t n = in.width();
  image::Image<T> out(n, n);
  for (std::int64_t y = 0; y < n; ++y) {
    for (std::int64_t x = 0; x < n; ++x) {
      std::int64_t sx = (k & 1) ? y : x;
      std::int64_t sy = (k & 1) ? x : y;
      if (k & 2) sx = n - 1 - sx;
      if (k & 4) sy = n - 1 - sy;
      out.at(x, y) = in.at(sx, sy);
    }
  }
  return out;
}

/// Never-seen variant j of the cold bases: base j mod B under dihedral
/// symmetry (j / B) mod 8, every pixel dithered by a seeded ±1 LSB, so
/// its content hash (and every cache key) is new while the ground truth
/// still holds.
SliceInput cold_variant(const std::vector<SliceInput>& bases, std::size_t j,
                        std::uint64_t seed) {
  const SliceInput& base = bases[j % bases.size()];
  const int k = static_cast<int>((j / bases.size()) % 8);
  image::ImageU16 img = dihedral(std::get<image::ImageU16>(base.raw), k);
  std::mt19937_64 rng(seed);
  for (auto& px : img.pixels()) {
    const int d = static_cast<int>(rng() % 3) - 1;
    px = static_cast<std::uint16_t>(std::clamp(static_cast<int>(px) + d, 0, 65535));
  }
  return {std::move(img), dihedral(base.ground_truth, k), base.prompt};
}

/// Whether cold variant j is crystalline: its base j mod B was made from
/// stream 400 + (j mod B), and make_slice picks crystalline for even
/// streams.
bool crystalline_cold(std::size_t j) { return (j % kColdBases) % 2 == 0; }

struct Planned {
  double due_s = 0.0;  ///< open loop: offset from phase start
  bool hot = true;
  std::size_t input = 0;  ///< index into hot or cold inputs
};

/// Per-connection request sequences. In every block of four consecutive
/// requests on a connection exactly one (at a seeded position) is cold;
/// cold request j uses cold_variant j.
struct Plan {
  std::vector<std::vector<Planned>> open, closed;
};

Plan make_plan(std::uint64_t seed, double open_s, double closed_s) {
  Plan plan;
  std::size_t cold = 0;
  std::mt19937_64 rng(mix_seed(seed, 11));
  std::uniform_int_distribution<int> hot_pick(0, kHot - 1);
  std::uniform_int_distribution<int> cold_pos(0, 3);
  const auto mix = [&](std::vector<Planned>& seq) {
    int cold_slot = cold_pos(rng);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (i % 4 == 0) cold_slot = cold_pos(rng);
      if (static_cast<int>(i % 4) == cold_slot) {
        seq[i].hot = false;
        seq[i].input = cold++;
      } else {
        seq[i].input = static_cast<std::size_t>(hot_pick(rng));
      }
    }
  };
  std::exponential_distribution<double> gap(kOpenRatePerS / kConns);
  plan.open.resize(kConns);
  plan.closed.resize(kConns);
  for (int c = 0; c < kConns; ++c) {
    auto& seq = plan.open[static_cast<std::size_t>(c)];
    for (double t = gap(rng); t < open_s; t += gap(rng)) seq.push_back({t, true, 0});
    mix(seq);
  }
  for (int c = 0; c < kConns; ++c) {
    auto& seq = plan.closed[static_cast<std::size_t>(c)];
    seq.resize(static_cast<std::size_t>(std::ceil(closed_s * kClosedPerConnPerS)));
    mix(seq);
  }
  return plan;
}

/// What happened to one request.
struct Outcome {
  bool sent = false;
  bool hot = true;
  std::size_t input = 0;
  int terminal_frames = 0;
  bool ok = false;
  Clock::time_point due{}, sent_at{}, done_at{};
  double total_ms = 0.0;  ///< service-side admission → completion
  double iou = 0.0;
  bool keep = false;      ///< byte-compare sample: keep the message
  net::ServerMessage message;
};

double iou(const image::Mask& a, const image::Mask& b) {
  std::int64_t inter = 0, uni = 0;
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  if (pa.size() != pb.size()) return 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    inter += (pa[i] != 0 && pb[i] != 0) ? 1 : 0;
    uni += (pa[i] != 0 || pb[i] != 0) ? 1 : 0;
  }
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// Service + server + connected, greeted clients.
struct Stack {
  const serve::ServiceConfig config;  ///< defaults
  serve::SegmentService service{config};
  net::Server server{service};
  std::vector<net::Client> clients;

  ~Stack() {
    clients.clear();
    server.stop();
    service.shutdown();
  }
};

class LoadGenerator {
 public:
  LoadGenerator(const std::vector<SliceInput>& hot, const std::vector<SliceInput>& cold_bases,
         std::uint64_t seed, const Plan& plan,
         std::vector<std::pair<std::size_t, std::size_t>> keep)
      : hot_(hot), cold_bases_(cold_bases), seed_(seed), plan_(plan), keep_(std::move(keep)) {}

  /// Requests [lo[c], hi[c]) of one phase on every connection in
  /// parallel (one thread per connection), writing out[c][i]. Open loop:
  /// send each at its due time, taken relative to `base_s`. Closed loop:
  /// keep kOutstanding in flight until `closed_s` has elapsed or hi[c]
  /// is reached. Returns once every sent request has its terminal frame;
  /// the result is first send → last terminal frame in seconds.
  double run(Stack& stack, bool open, double base_s, double closed_s,
             const std::vector<std::size_t>& lo, const std::vector<std::size_t>& hi,
             std::vector<std::vector<Outcome>>& out) {
    const Clock::time_point t0 = Clock::now() + 20ms;
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const auto& seq = open ? plan_.open[ci] : plan_.closed[ci];
      threads.emplace_back([&, ci] {
        drive(stack.clients[ci], seq, out[ci], lo[ci], hi[ci], t0, open, base_s, closed_s);
      });
    }
    for (auto& t : threads) t.join();
    Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
    for (std::size_t c = 0; c < out.size(); ++c) {
      for (std::size_t i = lo[c]; i < hi[c]; ++i) {
        if (!out[c][i].sent) continue;
        first = std::min(first, out[c][i].sent_at);
        last = std::max(last, out[c][i].done_at);
      }
    }
    return first < last ? seconds_between(first, last) : 0.0;
  }

  /// Image and ground truth of a request. Cold variants are built when
  /// needed rather than held for the whole run, so they do not inflate
  /// peak_rss_mb.
  SliceInput input(const Outcome& o) const {
    return o.hot ? hot_[o.input]
                 : cold_variant(cold_bases_, o.input, mix_seed(seed_, 50000 + o.input));
  }

  /// Flags the byte-compare samples in an open-loop outcome table.
  void mark_samples(std::vector<std::vector<Outcome>>& open) const {
    for (const auto& [c, i] : keep_) {
      if (i < open[c].size()) open[c][i].keep = true;
    }
  }

  /// A connection broke, timed out or saw a frame for an unknown id.
  bool broken() const { return broken_.load(); }

 private:
  void handle(net::ServerMessage&& msg, std::vector<Outcome>& out,
              const std::map<std::uint64_t, std::size_t>& ids, std::size_t& pending) {
    if (msg.type != net::FrameType::kResponse && msg.type != net::FrameType::kRejected &&
        msg.type != net::FrameType::kError) {
      return;  // not a terminal frame
    }
    const auto it = ids.find(msg.request_id);
    if (it == ids.end()) {
      broken_ = true;
      return;
    }
    Outcome& o = out[it->second];
    o.terminal_frames += 1;
    if (o.terminal_frames > 1) return;
    pending -= 1;
    o.done_at = Clock::now();
    o.ok = msg.type == net::FrameType::kResponse;
    o.total_ms = msg.total_us / 1000.0;
    if (o.ok) o.iou = iou(msg.mask, input(o).ground_truth);
    if (o.keep) o.message = std::move(msg);
  }

  void drive(net::Client& client, const std::vector<Planned>& seq, std::vector<Outcome>& out,
             std::size_t next, std::size_t end, Clock::time_point t0, bool open, double base_s,
             double closed_s) {
    const auto at = [&](double s) {
      return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    const Clock::time_point stop_sending = at(closed_s);
    const Clock::time_point give_up =
        at(open ? (end > next ? seq[end - 1].due_s - base_s : 0.0) : std::min(closed_s, 600.0)) +
        60s;
    std::map<std::uint64_t, std::size_t> ids;
    std::size_t pending = 0;
    std::this_thread::sleep_until(t0);
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now > give_up || client.peer_closed() || client.decode_failed()) {
        broken_ = true;
        return;
      }
      const bool more = next < end && (open || now < stop_sending);
      if (!more && pending == 0) return;
      Clock::time_point wake = now + 100ms;
      if (more && (open || pending < kOutstanding)) {
        const Clock::time_point due = open ? at(seq[next].due_s - base_s) : now;
        if (due <= now) {
          Outcome& o = out[next];
          o.hot = seq[next].hot;
          o.input = seq[next].input;
          o.due = due;
          o.sent_at = now;
          const SliceInput in = input(o);
          const std::uint64_t rid = client.submit_slice(in.raw, in.prompt);
          if (rid == 0) {
            broken_ = true;
            return;
          }
          o.sent = true;
          ids[rid] = next;
          next += 1;
          pending += 1;
          continue;
        }
        wake = due;
      }
      if (pending == 0) {
        std::this_thread::sleep_until(wake);
        continue;
      }
      const auto left = wake - now;
      if (left < 1ms) {
        // Sub-millisecond wait for a due time: poll the socket directly so
        // neither the send nor a response is held up by recv's ms timeout.
        pollfd pfd{client.fd(), POLLIN, 0};
        const timespec ts{0, static_cast<long>(
                                 std::chrono::duration_cast<std::chrono::nanoseconds>(left).count())};
        if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
      }
      const auto wait = std::max<std::chrono::milliseconds>(
          1ms, std::chrono::duration_cast<std::chrono::milliseconds>(left));
      if (auto msg = client.recv(wait)) handle(std::move(*msg), out, ids, pending);
    }
  }

  const std::vector<SliceInput>& hot_;
  const std::vector<SliceInput>& cold_bases_;
  const std::uint64_t seed_;
  const Plan& plan_;
  const std::vector<std::pair<std::size_t, std::size_t>> keep_;  ///< (conn, open index)
  std::atomic<bool> broken_{false};
};

std::unique_ptr<Stack> set_up(const std::vector<SliceInput>& hot) {
  auto stack = std::make_unique<Stack>();
  for (int c = 0; c < kConns; ++c) {
    auto [client, server_fd] = net::Client::loopback_pair();
    stack->server.adopt(server_fd);
    if (!client.hello(static_cast<std::uint32_t>(c) + 1)) {
      throw std::runtime_error("wire_mixed: hello failed");
    }
    stack->clients.push_back(std::move(client));
  }
  // Warm the hot set: each hot slice once, over the connections.
  std::vector<std::pair<std::size_t, std::uint64_t>> rids;
  for (int i = 0; i < kHot; ++i) {
    const auto c = static_cast<std::size_t>(i % kConns);
    const auto& in = hot[static_cast<std::size_t>(i)];
    rids.emplace_back(c, stack->clients[c].submit_slice(in.raw, in.prompt));
  }
  for (const auto& [c, rid] : rids) {
    const auto msg = stack->clients[c].wait_for(rid, 60000ms);
    if (!msg || msg->type != net::FrameType::kResponse) {
      throw std::runtime_error("wire_mixed: warm-up request failed");
    }
  }
  return stack;
}

/// Everything one pass (open + closed phase) measured.
struct Pass {
  std::vector<std::vector<Outcome>> open, closed;
  double open_s = 0.0, closed_s = 0.0;  ///< summed chunk spans
  std::uint64_t mask_hits = 0, hot_sent = 0;
  cache::FeatureCacheStats feat0, feat1;
  cache::LruCacheStats mask0, mask1;
  net::NetStats net0, net1;
  serve::ServiceStats svc0, svc1;
};

std::size_t sent_count(const std::vector<std::vector<Outcome>>& phase) {
  std::size_t n = 0;
  for (const auto& conn : phase) {
    for (const auto& o : conn) n += o.sent ? 1 : 0;
  }
  return n;
}

/// Runs the open-loop schedule and then the closed loop (time-bounded by
/// `closed_s`, at most closed_limit[c] requests per connection). With
/// `log` (traced), both phases run in chunks of kChunkSeconds of
/// schedule / kClosedChunk requests per connection, and spans are drained
/// while the stack is idle between chunks, so no thread's trace ring
/// fills and no span is lost to a drain racing a recorder.
Pass run_pass(Stack& stack, LoadGenerator& load, const Plan& plan, double closed_s,
              const std::vector<std::size_t>& closed_limit, SpanLog* log) {
  Pass pass;
  const auto& pipeline = stack.service.pipeline();
  pass.feat0 = pipeline.cache_stats();
  pass.mask0 = pipeline.mask_cache_stats();
  pass.net0 = stack.server.stats();
  pass.svc0 = stack.service.stats();

  pass.open.resize(kConns);
  double horizon = 0.0;
  for (std::size_t c = 0; c < kConns; ++c) {
    pass.open[c].resize(plan.open[c].size());
    if (!plan.open[c].empty()) horizon = std::max(horizon, plan.open[c].back().due_s);
  }
  load.mark_samples(pass.open);
  const double chunk_s = log != nullptr ? kChunkSeconds : horizon + 1.0;
  std::vector<std::size_t> lo(kConns, 0), hi(kConns, 0);
  for (double base = 0.0; base <= horizon; base += chunk_s) {
    for (std::size_t c = 0; c < kConns; ++c) {
      lo[c] = hi[c];
      while (hi[c] < plan.open[c].size() && plan.open[c][hi[c]].due_s < base + chunk_s) ++hi[c];
    }
    pass.open_s += load.run(stack, true, base, 0.0, lo, hi, pass.open);
    if (log != nullptr) log->drain();
  }

  pass.closed.resize(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    pass.closed[c].resize(std::min(plan.closed[c].size(), closed_limit[c]));
  }
  const std::size_t chunk_n = log != nullptr ? kClosedChunk : std::size_t{1} << 30;
  std::fill(hi.begin(), hi.end(), 0);
  for (;;) {
    bool any = false;
    for (std::size_t c = 0; c < kConns; ++c) {
      lo[c] = hi[c];
      hi[c] = std::min(pass.closed[c].size(), lo[c] + chunk_n);
      any = any || hi[c] > lo[c];
    }
    if (!any) break;
    pass.closed_s += load.run(stack, false, 0.0, closed_s, lo, hi, pass.closed);
    if (log != nullptr) log->drain();
    if (log == nullptr) break;  // untraced: one time-bounded chunk
  }

  pass.feat1 = pipeline.cache_stats();
  pass.mask1 = pipeline.mask_cache_stats();
  pass.net1 = stack.server.stats();
  pass.svc1 = stack.service.stats();
  pass.mask_hits = pass.mask1.hits - pass.mask0.hits;
  for (const auto* phase : {&pass.open, &pass.closed}) {
    for (const auto& conn : *phase) {
      for (const auto& o : conn) pass.hot_sent += (o.sent && o.hot) ? 1 : 0;
    }
  }
  return pass;
}

std::vector<std::size_t> sent_per_conn(const std::vector<std::vector<Outcome>>& phase) {
  std::vector<std::size_t> n;
  for (const auto& conn : phase) {
    std::size_t k = 0;
    for (const auto& o : conn) k += o.sent ? 1 : 0;
    n.push_back(k);
  }
  return n;
}

/// Completion rates of the closed loop while it was saturated: the span
/// from first to last send is cut into `window_s` windows and each
/// window's rate is (completions - 1) / (last - first completion in it).
std::vector<double> windowed_rates(const std::vector<std::vector<Outcome>>& phase,
                                   double window_s) {
  Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
  for (const auto& conn : phase) {
    for (const auto& o : conn) {
      if (!o.sent) continue;
      first = std::min(first, o.sent_at);
      last = std::max(last, o.sent_at);
    }
  }
  if (!(first < last)) return {};
  const auto windows = static_cast<std::size_t>(seconds_between(first, last) / window_s);
  std::vector<std::vector<double>> done(windows);
  for (const auto& conn : phase) {
    for (const auto& o : conn) {
      if (!o.sent || !o.ok || o.done_at < first) continue;
      const double t = seconds_between(first, o.done_at);
      const auto w = static_cast<std::size_t>(t / window_s);
      if (w < windows) done[w].push_back(t);
    }
  }
  std::vector<double> rates;
  for (auto& w : done) {
    if (w.size() < 2) continue;
    const auto [lo, hi] = std::minmax_element(w.begin(), w.end());
    if (*hi > *lo) rates.push_back(static_cast<double>(w.size() - 1) / (*hi - *lo));
  }
  return rates;
}

/// Latencies of the sent, successful requests of a phase.
template <typename F>
std::vector<double> collect(const std::vector<std::vector<Outcome>>& phase, F&& value,
                            int hot = -1) {
  std::vector<double> out;
  for (const auto& conn : phase) {
    for (const auto& o : conn) {
      if (!o.sent || !o.ok) continue;
      if (hot >= 0 && o.hot != (hot == 1)) continue;
      out.push_back(value(o));
    }
  }
  return out;
}

std::vector<double> concat(std::vector<double> a, const std::vector<double>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

void run_wire_mixed(const Options& opt, Result& result) {
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const double open_s = budget * kOpenShare;
  const double closed_s = budget - open_s;

  std::vector<SliceInput> hot, cold_bases;
  for (int i = 0; i < kHot; ++i) {
    hot.push_back(make_slice(opt.seed, 300 + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < kColdBases; ++i) {
    cold_bases.push_back(make_slice(opt.seed, 400 + static_cast<std::uint64_t>(i)));
  }
  const Plan plan = make_plan(opt.seed, open_s, closed_s);
  std::mt19937_64 rng(mix_seed(opt.seed, 13));
  std::vector<std::pair<std::size_t, std::size_t>> samples;  // (conn, open index)
  for (int s = 0; s < kCompareSamples; ++s) {
    const auto c = static_cast<std::size_t>(s % kConns);
    if (!plan.open[c].empty()) samples.emplace_back(c, rng() % plan.open[c].size());
  }

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetupReps; ++k) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = set_up(hot);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  LoadGenerator load(hot, cold_bases, opt.seed, plan, samples);
  const std::vector<std::size_t> unlimited(kConns, std::size_t{1} << 30);
  const Pass pass = run_pass(*stack, load, plan, closed_s, unlimited, nullptr);

  // Gates: one terminal frame per request, every request answered, the
  // cache-bypass count, response bytes equal to a direct submit.
  const auto check = [&](const Pass& p, const char* which) {
    std::int64_t attempted = 0, failed = 0;
    bool one_terminal = !load.broken();
    for (const auto* phase : {&p.open, &p.closed}) {
      for (const auto& conn : *phase) {
        for (const auto& o : conn) {
          if (!o.sent) continue;
          attempted += 1;
          failed += o.ok ? 0 : 1;
          one_terminal = one_terminal && o.terminal_frames == 1;
        }
      }
    }
    result.add_attempted(attempted);
    result.add_failed(failed);
    result.gate(one_terminal, std::string("wire_mixed: a request did not get exactly one "
                                          "terminal frame (") + which + ")");
    // Every request makes one mask-cache lookup; only hot draws can hit.
    // A hot draw misses only when the default sharded LRU evicted its
    // entry, which the gate bounds rather than forbids.
    const std::uint64_t lookups = p.mask_hits + (p.mask1.misses - p.mask0.misses);
    result.gate(lookups == static_cast<std::uint64_t>(attempted) && p.mask_hits <= p.hot_sent &&
                    10 * p.mask_hits >= 9 * p.hot_sent,
                std::string("wire_mixed: mask-cache hits do not match the hot draws (") +
                    which + ")");
    return attempted;
  };
  const std::int64_t requests = check(pass, "untraced");
  result.note("wire_mixed.requests", std::to_string(requests));
  result.note("wire_mixed.hot_requests", std::to_string(pass.hot_sent));
  result.note("wire_mixed.mask_cache_hits", std::to_string(pass.mask_hits));
  {
    const serve::ServiceConfig config;
    serve::SegmentService reference(config);
    int compared = 0;
    for (const auto& [c, i] : samples) {
      const Outcome& o = pass.open[c][i];
      if (!o.sent || !o.ok) continue;
      const SliceInput in = load.input(o);
      const serve::Response r = reference.submit(serve::Request::slice(in.raw, in.prompt)).get();
      const bool same = r.ok() && r.slice && r.slice->mask.width() == o.message.mask.width() &&
                        r.slice->mask.height() == o.message.mask.height() &&
                        std::equal(r.slice->mask.pixels().begin(), r.slice->mask.pixels().end(),
                                   o.message.mask.pixels().begin()) &&
                        r.slice->primary_box == o.message.box &&
                        r.slice->confidence == o.message.confidence;
      result.gate(same, "wire_mixed: wire response differs from a direct submit");
      compared += 1;
    }
    result.note("wire_mixed.byte_compared", std::to_string(compared));
    reference.shutdown();
  }

  const auto from_due = [](const Outcome& o) { return ms_between(o.due, o.done_at); };
  const std::vector<double> wire_ms = collect(pass.open, from_due);
  // Latency of the open-loop request mix, weighted as the mix is drawn:
  // 6 hot : 1 crystalline cold : 1 amorphous cold (colds alternate
  // morphology on each connection). Each class's median is taken on its
  // own, because the classes' latencies differ several-fold and the median
  // of a mixture lands in the gap between them, where it swings with the
  // share of each class a seed happens to draw.
  std::vector<double> cold_crystalline, cold_amorphous;
  for (const auto& conn : pass.open) {
    for (const auto& o : conn) {
      if (!o.sent || !o.ok || o.hot) continue;
      (crystalline_cold(o.input) ? cold_crystalline : cold_amorphous).push_back(from_due(o));
    }
  }
  const std::vector<double> hot_ms = collect(pass.open, from_due, 1);
  const double mix_ms =
      (6.0 * median(hot_ms) + median(cold_crystalline) + median(cold_amorphous)) / 8.0;
  // mean_iou over distinct inputs: each hot slice once, every cold one.
  std::vector<double> ious;
  {
    std::vector<bool> hot_seen(kHot, false);
    for (const auto& conn : pass.open) {
      for (const auto& o : conn) {
        if (!o.sent || !o.ok || (o.hot && hot_seen[o.input])) continue;
        if (o.hot) hot_seen[o.input] = true;
        ious.push_back(o.iou);
      }
    }
  }
  // Capacity: the median of per-second completion rates while the loop
  // was saturated, so a transient stall moves one window, not the figure.
  const std::vector<double> windows = windowed_rates(pass.closed, 1.0);
  const double capacity = median(windows);

  result.gate(mean(ious) >= kIouFloor, "wire_mixed: mean_iou below floor");
  result.gate(!hot_ms.empty() && !cold_crystalline.empty() && !cold_amorphous.empty(),
              "wire_mixed: an open-loop request class got no response");

  if (!opt.trace) {
    result.set("setup_s", median(setup_s), kSetupReps);
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("mean_iou", mean(ious), static_cast<std::int64_t>(ious.size()));
    result.set("latency_ms_p50", mix_ms, static_cast<std::int64_t>(wire_ms.size()));
    result.set("throughput_per_s", capacity, static_cast<std::int64_t>(windows.size()));
    return;
  }

  const auto n_wire = static_cast<std::int64_t>(wire_ms.size());
  result.set("wire_ms_p50", median(wire_ms), n_wire);
  result.set("wire_ms_p99", percentile(wire_ms, 99), n_wire);
  result.set("wire_capacity_per_s", capacity, static_cast<std::int64_t>(windows.size()));

  // Traced replay: the same open-loop schedule and the same closed-loop
  // request counts per connection, on a freshly set-up stack.
  stack.reset();
  stack = set_up(hot);
  SpanLog log;
  obs::set_enabled(true);
  log.reset();
  const Pass traced = run_pass(*stack, load, plan, 1e9, sent_per_conn(pass.closed), &log);
  obs::set_enabled(false);
  check(traced, "traced");
  result.gate(log.dropped() == 0, "wire_mixed: trace ring overwrote spans");

  const auto traced_n = static_cast<std::int64_t>(sent_count(traced.open) + sent_count(traced.closed));
  const double per_req = traced_n > 0 ? 1.0 / static_cast<double>(traced_n) : 0.0;
  const auto sent_ms = [](const Outcome& o) { return ms_between(o.sent_at, o.done_at); };
  const auto outside_ms = [](const Outcome& o) {
    return ms_between(o.sent_at, o.done_at) - o.total_ms;
  };
  const auto total_ms = [](const Outcome& o) { return o.total_ms; };
  const std::vector<double> totals = concat(collect(traced.open, total_ms),
                                            collect(traced.closed, total_ms));
  const std::vector<double> outside = concat(collect(traced.open, outside_ms),
                                             collect(traced.closed, outside_ms));
  const std::vector<double> hit_ms = concat(collect(traced.open, sent_ms, 1),
                                            collect(traced.closed, sent_ms, 1));
  const std::vector<double> miss_ms = concat(collect(traced.open, sent_ms, 0),
                                             collect(traced.closed, sent_ms, 0));
  const std::vector<double> late_ms = collect(traced.open, [](const Outcome& o) {
    return ms_between(o.due, o.sent_at);
  });
  const std::vector<double> queue_ms = log.dur_ms("serve.queue");
  const std::vector<double> net_ms = log.dur_ms("net.request");
  const std::vector<double> serve_decode = log.net_ms("serve.decode");
  std::vector<double> batch_sizes;
  for (const auto& s : log.of("serve.batch")) batch_sizes.push_back(static_cast<double>(s.arg));
  const auto count = [&](const char* name) {
    return static_cast<std::int64_t>(log.count(name));
  };
  CacheTraffic traffic;
  traffic.add(traced.feat0, traced.feat1, traced.mask0, traced.mask1);
  const double serve_decode_net = log.total_net_ms("serve.decode");
  const double unattributed =
      serve_decode_net > 0.0 ? 100.0 * log.total_self_ms("serve.decode") / serve_decode_net : 0.0;
  result.gate(unattributed <= kUnattributedTolerancePct,
              "wire_mixed: core.unattributed_pct above tolerance");
  const auto svc_rejected = [](const serve::ServiceStats& s) {
    return s.rejected_queue_full + s.rejected_shutting_down + s.expired + s.cancelled;
  };
  const double planned_open = [&] {
    std::size_t n = 0;
    for (const auto& conn : plan.open) n += conn.size();
    return static_cast<double>(n);
  }();
  const std::vector<double> open_ok = collect(traced.open, from_due);

  set_model_metrics(result, log, kEdge, traffic);
  set_cache_metrics(result, traffic, traced.hot_sent);
  result.set("cache.hit_request_ms_p50", median(hit_ms), static_cast<std::int64_t>(hit_ms.size()));
  result.set("cache.miss_request_ms_p50", median(miss_ms),
             static_cast<std::int64_t>(miss_ms.size()));
  result.set("core.unattributed_pct", unattributed);
  result.set("serve.queue_ms_p50", median(queue_ms), static_cast<std::int64_t>(queue_ms.size()));
  result.set("serve.queue_ms_p99", percentile(queue_ms, 99),
             static_cast<std::int64_t>(queue_ms.size()));
  result.set("serve.batch_size_mean", mean(batch_sizes), count("serve.batch"));
  result.set("serve.encode_ms", mean(log.dur_ms("serve.encode")), count("serve.encode"));
  result.set("serve.decode_ms_p50", median(serve_decode), count("serve.decode"));
  result.set("serve.total_ms_p50", median(totals), static_cast<std::int64_t>(totals.size()));
  result.set("serve.total_ms_p99", percentile(totals, 99),
             static_cast<std::int64_t>(totals.size()));
  result.set("serve.rejected",
             static_cast<double>(svc_rejected(traced.svc1) - svc_rejected(traced.svc0)));
  result.set("net.wire_ms_p50", median(net_ms), static_cast<std::int64_t>(net_ms.size()));
  result.set("net.wire_ms_p99", percentile(net_ms, 99), static_cast<std::int64_t>(net_ms.size()));
  result.set("net.outside_service_ms_p50", median(outside),
             static_cast<std::int64_t>(outside.size()));
  result.set("net.outside_service_ms_p99", percentile(outside, 99),
             static_cast<std::int64_t>(outside.size()));
  result.set("net.bytes_in_per_req",
             static_cast<double>(traced.net1.bytes_in - traced.net0.bytes_in) * per_req);
  result.set("net.bytes_out_per_req",
             static_cast<double>(traced.net1.bytes_out - traced.net0.bytes_out) * per_req);
  result.set("net.shed", static_cast<double>(
                             (traced.net1.shed_tenant_quota + traced.net1.shed_overloaded) -
                             (traced.net0.shed_tenant_quota + traced.net0.shed_overloaded)));
  result.set("net.protocol_errors",
             static_cast<double>(traced.net1.protocol_errors - traced.net0.protocol_errors));
  result.set("load.offered_per_s", open_s > 0.0 ? planned_open / open_s : 0.0);
  result.set("load.achieved_per_s",
             traced.open_s > 0.0 ? static_cast<double>(open_ok.size()) / traced.open_s : 0.0,
             static_cast<std::int64_t>(open_ok.size()));
  result.set("load.late_ms_p99", percentile(late_ms, 99),
             static_cast<std::int64_t>(late_ms.size()));
  // Same open-loop schedule traced and untraced: compare mean latency.
  const double untraced_open = mean(wire_ms);
  result.set("obs.trace_overhead_pct",
             untraced_open > 0.0 ? 100.0 * (mean(open_ok) / untraced_open - 1.0) : 0.0);
  result.set("obs.spans_dropped", static_cast<double>(log.dropped()));
}

}  // namespace perfbench
