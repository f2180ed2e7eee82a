// perfbench — request generators, closed-loop load generator and traced
// in-process replay for the repository benchmark (see README.md here).
//
//   perfbench gen   --workload W --seed N --count K
//       Print the first K request lines of workload W ("<key>\t<line>").
//   perfbench warm  --workload W
//       Print the set-up requests that warm workload W's plans.
//   perfbench load  --workload W --seed N --endpoint unix:PATH --clients C
//                   (--seconds S | --count K) [--first I] --out FILE
//       Closed loop: C connections, each sends its share of the request
//       sequence (line i goes to client i mod C, from index I on) and
//       waits for every reply. Records each round trip. A finite
//       sequence (cold-compose) that runs out ends the phase early.
//   perfbench trace --workload W --seed N --count K --out FILE
//       Replay the first K requests in this process, each twice on its
//       own fresh plan cache: once through serve::handle_line
//       (untraced), once through the same public calls the action
//       runners make, one span each.
//
// Requests leave threads, lanes, compiled and memory unset, so the
// daemon runs them with the defaults users get.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/workload.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/tiling.hpp"
#include "serve/actions.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace bitlevel;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ generators

/// One generated request: a short stable key naming the action and the
/// plan-determining parameters (the digest key), and the wire line.
struct Request {
  std::string key;
  std::string line;
};

struct Shape {
  std::string kernel;
  int arity = 1;
  std::int64_t u = 1, v = 1, w = 1, p = 4;
  bool expansion_one = false;
};

std::string shape_key(const std::string& action, const Shape& s) {
  std::string key = action + ":" + s.kernel + ":u=" + std::to_string(s.u);
  if (s.arity >= 2) key += ",v=" + std::to_string(s.v);
  if (s.arity >= 3) key += ",w=" + std::to_string(s.w);
  key += ":p=" + std::to_string(s.p) + (s.expansion_one ? ":I" : ":II");
  return key;
}

/// Open a request object with the members every design action shares.
void begin_request(JsonWriter& w, std::uint64_t id, const std::string& action, const Shape& s) {
  w.begin_object();
  w.key("id").value(static_cast<std::int64_t>(id));
  w.key("action").value(action);
  w.key("kernel").value(s.kernel);
  w.key("u").value(s.u);
  if (s.arity >= 2) w.key("v").value(s.v);
  if (s.arity >= 3) w.key("w").value(s.w);
  w.key("p").value(s.p);
  if (s.expansion_one) w.key("expansion").value("I");
}

/// Operand seed of one request: positive, below 2^31.
std::int64_t operand_seed(std::uint64_t h) {
  return static_cast<std::int64_t>(h % 2147483647u) + 1;
}

// warm-serve: three small plans warmed in set-up; in every block of four
// requests exactly one (at a seeded position) is a 1-8 item batch.
const Shape kWarmPlans[] = {
    {"matmul", 1, 3, 1, 1, 5, false},
    {"matmul", 1, 4, 1, 1, 8, false},
    {"conv", 2, 8, 3, 1, 6, false},
};

Request warm_request(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t h = hash_mix(hash_mix(seed, 0x7761726dULL), index);
  const std::uint64_t block = hash_mix(hash_mix(seed, 0x626c6f63ULL), index / 4);
  const bool batch = index % 4 == block % 4;
  const Shape& s = kWarmPlans[hash_mix(h, 1) % 3];
  const std::string action = batch ? "batch" : "simulate";
  JsonWriter w;
  begin_request(w, index, action, s);
  w.key("seed").value(operand_seed(hash_mix(h, 2)));
  if (batch) w.key("batch").value(static_cast<std::int64_t>(hash_mix(h, 3) % 8 + 1));
  w.end_object();
  return {shape_key(action, s), w.str()};
}

// bulk-throughput: one client cycling batch, tiled, tiled — the batch is
// a third of the requests so the latency median never sits on the seam
// between the two request kinds.
constexpr std::int64_t kBulkBatchItems = 1024;  // two 512-lane compiled groups
constexpr std::int64_t kBulkTiledExtent = 128;
constexpr std::int64_t kBulkTile = 8;
const Shape kBulkBatchPlan{"matmul", 1, 8, 1, 1, 8, false};
const Shape kBulkTiledPlan{"matmul", 1, kBulkTiledExtent, 1, 1, 8, false};

Request bulk_request(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t h = hash_mix(hash_mix(seed, 0x62756c6bULL), index);
  const bool batch = index % 3 == 0;
  const Shape& s = batch ? kBulkBatchPlan : kBulkTiledPlan;
  const std::string action = batch ? "batch" : "tiled";
  JsonWriter w;
  begin_request(w, index, action, s);
  w.key("seed").value(operand_seed(h));
  std::string key = shape_key(action, s);
  if (batch) {
    w.key("batch").value(kBulkBatchItems);
  } else {
    w.key("tile_m").value(kBulkTile);
    w.key("tile_n").value(kBulkTile);
    key += ":tile=" + std::to_string(kBulkTile) + "x" + std::to_string(kBulkTile);
  }
  w.end_object();
  return {key, w.str()};
}

// cold-compose: every key of a grid over kernel, extents 2-7, p 3-8 and
// expansion I/II, once each, in a seeded stratified order. The 3-D kernels go
// through simulate (design answers them with an empty list), the others
// through design. Keys that answer infeasible are left out.
struct GridKernel {
  const char* name;
  int arity;
  bool design;
};
const GridKernel kGridKernels[] = {
    {"matmul", 1, false},
    {"matmul_rect", 3, false},
    {"transform", 1, false},
    {"conv", 2, true},
    {"matvec", 2, true},
    {"scalar", 1, true},
};

/// The grid corners with no feasible design: design lists none for conv
/// (u >= 3, v >= 4) and matvec (u, v >= 4) once p >= 4, or for matvec at
/// p = 7; simulate answers transform (u >= 4, p >= 4) infeasible.
bool grid_excluded(const Shape& s) {
  if (s.kernel == "matvec") return s.p == 7 || (s.u >= 4 && s.v >= 4 && s.p >= 4);
  if (s.kernel == "conv") return s.u >= 3 && s.v >= 4 && s.p >= 4;
  if (s.kernel == "transform") return s.u >= 4 && s.p >= 4;
  return false;
}

constexpr int kGridMaxExtent = 7;

std::vector<Shape> cold_grid() {
  std::vector<Shape> grid;
  for (const GridKernel& k : kGridKernels) {
    // Extents a kernel does not consume stay 1.
    const int max_v = k.arity >= 2 ? kGridMaxExtent : 1;
    const int max_w = k.arity >= 3 ? kGridMaxExtent : 1;
    for (int u = 2; u <= kGridMaxExtent; ++u) {
      for (int v = std::min(2, max_v); v <= max_v; ++v) {
        for (int w = std::min(2, max_w); w <= max_w; ++w) {
          for (int p = 3; p <= 8; ++p) {
            for (const bool one : {false, true}) {
              const Shape s{k.name, k.arity, u, v, w, p, one};
              if (!grid_excluded(s)) grid.push_back(s);
            }
          }
        }
      }
    }
  }
  return grid;
}

std::string grid_action(const Shape& s) {
  for (const GridKernel& k : kGridKernels) {
    if (s.kernel == k.name) return k.design ? "design" : "simulate";
  }
  throw std::logic_error("unknown grid kernel " + s.kernel);
}

/// The grid in a seeded order that is stratified by (kernel, p, u+v+w):
/// each stratum is shuffled, and each position takes the next key of the
/// stratum with the most of its keys left, in proportion. Every prefix of
/// the sequence then mixes cheap and expensive composes as the whole grid
/// does, so a run's figures do not hinge on which keys its seed drew.
std::vector<Request> cold_sequence(std::uint64_t seed) {
  SplitMix64 rng(hash_mix(seed, 0x636f6c64ULL));
  std::map<std::string, std::vector<Shape>> by_stratum;
  for (const Shape& s : cold_grid()) {
    const std::string stratum =
        s.kernel + ":" + std::to_string(s.p) + ":" + std::to_string(s.u + s.v + s.w);
    by_stratum[stratum].push_back(s);
  }
  struct Stratum {
    std::vector<Shape> keys;
    std::size_t taken = 0;
    std::uint64_t priority = 0;  ///< Seeded tie-break.
  };
  std::vector<Stratum> strata;
  std::size_t total = 0;
  for (auto& [name, keys] : by_stratum) {
    for (std::size_t i = keys.size(); i > 1; --i) std::swap(keys[i - 1], keys[rng.next() % i]);
    total += keys.size();
    strata.push_back({std::move(keys), 0, rng.next()});
  }
  std::vector<Request> out;
  out.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Stratum* pick = nullptr;
    for (Stratum& st : strata) {
      if (st.taken == st.keys.size()) continue;
      if (pick == nullptr) {
        pick = &st;
        continue;
      }
      // Remaining fractions, compared exactly: left / size of each.
      const std::size_t mine = (st.keys.size() - st.taken) * pick->keys.size();
      const std::size_t theirs = (pick->keys.size() - pick->taken) * st.keys.size();
      if (mine > theirs || (mine == theirs && st.priority > pick->priority)) pick = &st;
    }
    const Shape& shape = pick->keys[pick->taken++];
    const std::string action = grid_action(shape);
    JsonWriter w;
    begin_request(w, i, action, shape);
    if (action == "simulate") w.key("seed").value(operand_seed(rng.next()));
    w.end_object();
    out.push_back({shape_key(action, shape), w.str()});
  }
  return out;
}

/// The request sequence of a workload. Infinite for warm-serve and
/// bulk-throughput (requests are a pure function of seed and index);
/// cold-compose ends when the grid is used up.
class Sequence {
 public:
  Sequence(const std::string& workload, std::uint64_t seed) : workload_(workload), seed_(seed) {
    if (workload == "cold-compose") {
      cold_ = cold_sequence(seed);
    } else if (workload != "warm-serve" && workload != "bulk-throughput") {
      throw std::invalid_argument("unknown workload '" + workload + "'");
    }
  }

  bool has(std::uint64_t index) const {
    return workload_ != "cold-compose" || index < cold_.size();
  }

  Request at(std::uint64_t index) const {
    if (workload_ == "warm-serve") return warm_request(seed_, index);
    if (workload_ == "bulk-throughput") return bulk_request(seed_, index);
    return cold_.at(index);
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::vector<Request> cold_;
};

// ------------------------------------------------------------ arguments

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t count = 0;
  std::uint64_t first = 0;
  double seconds = 0.0;
  int clients = 1;
  std::string endpoint;
  std::string out;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench gen|warm|load|trace --workload W --seed N "
               "[--count K] [--first I] [--seconds S] [--clients C] [--endpoint E] "
               "[--out FILE]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag);
  }
  if (used != text.size()) usage("bad value for " + flag);
  return v;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--count") {
      a.count = parse_u64(flag, value);
    } else if (flag == "--first") {
      a.first = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--clients") {
      a.clients = static_cast<int>(parse_u64(flag, value));
      if (a.clients < 1 || a.clients > 64) usage("--clients must be in [1, 64]");
    } else if (flag == "--endpoint") {
      a.endpoint = value;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}

// ------------------------------------------------------------ load

struct Record {
  std::uint64_t index = 0;
  std::int64_t send_ns = 0;  ///< Since the phase start.
  std::int64_t rtt_ns = 0;
  std::string key;
  std::string request;
  std::string response;
};

int run_load(const Args& a) {
  if (a.endpoint.empty() || a.out.empty()) usage("load needs --endpoint and --out");
  if ((a.seconds > 0) == (a.count > 0)) usage("load needs exactly one of --seconds, --count");
  const Sequence sequence(a.workload, a.seed);
  const int clients = a.clients;

  std::vector<serve::Client> connections(static_cast<std::size_t>(clients));
  for (serve::Client& c : connections) c.connect(a.endpoint);

  std::vector<std::vector<Record>> records(static_cast<std::size_t>(clients));
  std::vector<std::string> failures(static_cast<std::size_t>(clients));
  std::atomic<bool> exhausted{false};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(a.seconds * 1e9));
  const std::uint64_t end = a.count > 0 ? a.first + a.count : UINT64_MAX;

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::uint64_t i = a.first + static_cast<std::uint64_t>(c); i < end;
             i += static_cast<std::uint64_t>(clients)) {
          if (a.seconds > 0 && Clock::now() >= deadline) return;
          if (!sequence.has(i)) {
            exhausted.store(true);
            return;
          }
          Request request = sequence.at(i);
          const Clock::time_point sent = Clock::now();
          std::string response = connections[static_cast<std::size_t>(c)].roundtrip(request.line);
          const Clock::time_point got = Clock::now();
          records[static_cast<std::size_t>(c)].push_back(
              {i, ns_since(start, sent), ns_since(sent, got), std::move(request.key),
               std::move(request.line), std::move(response)});
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (serve::Client& c : connections) c.close();

  std::int64_t elapsed_ns = 0;
  std::vector<Record> all;
  for (std::vector<Record>& rs : records) {
    for (Record& r : rs) {
      elapsed_ns = std::max(elapsed_ns, r.send_ns + r.rtt_ns);
      all.push_back(std::move(r));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Record& x, const Record& y) { return x.index < y.index; });

  std::ofstream out(a.out);
  JsonWriter header;
  header.begin_object();
  header.key("elapsed_ns").value(elapsed_ns);
  header.key("clients").value(clients);
  header.key("exhausted").value(exhausted.load());
  header.key("records").value(static_cast<std::int64_t>(all.size()));
  header.end_object();
  out << header.str() << '\n';
  for (const Record& r : all) {
    out << r.index << '\t' << r.send_ns << '\t' << r.rtt_ns << '\t' << r.key << '\t'
        << r.request << '\t' << r.response << '\n';
  }
  out.close();
  int status = out ? 0 : 1;
  for (const std::string& f : failures) {
    if (!f.empty()) {
      std::fprintf(stderr, "perfbench load: client failed: %s\n", f.c_str());
      status = 1;
    }
  }
  return status;
}

// ------------------------------------------------------------ trace

/// In-memory span recorder: one span per public call, parented by the
/// enclosing span, tagged with the request index. Written out at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = -1;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, std::int64_t request) {
    spans_.push_back({name, ns_since(origin_, Clock::now()), 0,
                      stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = ns_since(origin_, Clock::now());
    stack_.pop_back();
  }

  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Open a span for the lifetime of a scope.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, std::int64_t request)
      : tracer_(tracer), id_(tracer.open(name, request)) {}
  ~Scoped() { tracer_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// What the traced replay learned about one request, beyond its spans.
struct TraceFacts {
  std::string action;
  bool ok = false;
  bool compose_miss = false;
  pipeline::StageTimings timings;
  std::int64_t items = 0;
  std::int64_t events = 0;  ///< items (or tiles) x computations per pass.
  std::int64_t compiled_items = 0;
  int lane_width = 0;
  int threads_used = 0;
  std::int64_t peak_live_slots = 0;
};

/// Compare a run's read-out with the word-level reference.
bool matches(const std::map<math::IntVec, std::uint64_t>& z,
             const std::map<math::IntVec, std::uint64_t>& ref) {
  if (z.empty()) return false;
  for (const auto& [j, v] : z) {
    const auto it = ref.find(j);
    if (it == ref.end() || it->second != v) return false;
  }
  return true;
}

/// get_or_compose with its miss detected from the cache counters (the
/// replay is single-threaded, so the delta is this call's).
pipeline::PlanPtr traced_compose(Tracer& t, std::int64_t id, pipeline::PlanCache& cache,
                                 const pipeline::DesignRequest& request, TraceFacts& facts) {
  const std::uint64_t misses = cache.stats().misses;
  Scoped span(t, "get_or_compose", id);
  pipeline::PlanPtr plan = cache.get_or_compose(request);
  if (cache.stats().misses != misses) {
    facts.compose_miss = true;
    facts.timings = plan->timings;
  }
  return plan;
}

void trace_emit(Tracer& t, std::int64_t id, const std::string& emitter,
                const std::function<int(JsonWriter&)>& emit,
                const serve::ParsedRequest& parsed) {
  Scoped span(t, emitter, id);
  JsonWriter w;
  w.begin_object();
  const int status = emit(w);
  w.end_object();
  [[maybe_unused]] const std::string envelope =
      serve::ok_envelope(parsed.id, parsed.action, status, w.str());
}

// The tiled action's procedural operands and O(k) reference element,
// as serve::run_tiled_action builds them (internal to that file).
core::OperandFn tiled_operand(std::uint64_t seed, std::uint64_t salt, std::uint64_t bound,
                              int first, int second) {
  return [=](const math::IntVec& j) {
    return hash_mix(hash_mix(hash_mix(seed, salt), static_cast<std::uint64_t>(j[first])),
                    static_cast<std::uint64_t>(j[second])) %
           (bound + 1);
  };
}

TraceFacts traced_request(Tracer& t, std::int64_t id, pipeline::PlanCache& cache,
                          const std::string& line) {
  TraceFacts facts;
  Scoped root(t, "request", id);
  serve::ParsedRequest parsed;
  {
    Scoped span(t, "parse_request", id);
    parsed = serve::parse_request(line);
  }
  if (!parsed.valid) return facts;
  facts.action = parsed.action;
  const serve::ActionParams& params = parsed.params;
  pipeline::DesignRequest request = params.request;

  if (parsed.action == "design") {
    request.mapping = pipeline::MappingStrategy::kExplore;
    const serve::DesignOutcome outcome{traced_compose(t, id, cache, request, facts)};
    facts.ok = !outcome.plan->explore.designs.empty();
    trace_emit(t, id, "emit_design_json",
               [&](JsonWriter& w) { return serve::emit_design_json(w, outcome); }, parsed);
    return facts;
  }
  request.mapping = pipeline::MappingStrategy::kAuto;

  if (parsed.action == "simulate") {
    serve::SimulateOutcome outcome;
    outcome.plan = traced_compose(t, id, cache, request, facts);
    if (!outcome.plan->has_mapping()) return facts;
    outcome.feasible = true;
    core::Workload workload;
    {
      Scoped span(t, "make_safe_workload", id);
      workload = core::make_safe_workload(outcome.plan->model, request.p, request.expansion,
                                          params.seed);
    }
    const core::OperandFn xf = workload.x_fn();
    const core::OperandFn yf = workload.y_fn();
    {
      Scoped span(t, "run_plan", id);
      pipeline::RunOptions options;
      options.threads = request.threads;
      options.memory = request.memory;
      outcome.run = pipeline::run_plan(*outcome.plan, xf, yf, options);
    }
    {
      Scoped span(t, "evaluate_word_reference", id);
      outcome.correct =
          matches(outcome.run.z, core::evaluate_word_reference(outcome.plan->model, xf, yf));
    }
    facts.ok = outcome.correct;
    facts.items = 1;
    facts.events = outcome.run.stats.computations;
    facts.threads_used = outcome.run.stats.threads_used;
    facts.peak_live_slots = outcome.run.stats.peak_live_slots;
    trace_emit(t, id, "emit_simulate_json",
               [&](JsonWriter& w) { return serve::emit_simulate_json(w, params, outcome); },
               parsed);
    return facts;
  }

  if (parsed.action == "batch") {
    serve::BatchOutcome outcome;
    outcome.plan = traced_compose(t, id, cache, request, facts);
    if (!outcome.plan->has_mapping()) return facts;
    outcome.feasible = true;
    std::vector<core::Workload> workloads;
    workloads.reserve(static_cast<std::size_t>(params.batch));
    for (math::Int i = 0; i < params.batch; ++i) {
      Scoped span(t, "make_safe_workload", id);
      workloads.push_back(core::make_safe_workload(outcome.plan->model, request.p,
                                                   request.expansion,
                                                   params.seed + static_cast<std::uint64_t>(i)));
    }
    std::vector<pipeline::BatchItem> items;
    items.reserve(workloads.size());
    for (const core::Workload& load : workloads) items.push_back({load.x_fn(), load.y_fn()});
    pipeline::BatchOptions options;
    options.threads = request.threads;
    options.memory = request.memory;
    options.sliced = params.sliced;
    options.compiled = params.compiled;
    options.lane_width = params.lanes;
    {
      Scoped span(t, "run_batch", id);
      outcome.batch = pipeline::run_batch(cache, request, items, options);
    }
    bool ok = true;
    for (std::size_t i = 0; i < items.size(); ++i) {
      Scoped span(t, "evaluate_word_reference", id);
      const auto ref = core::evaluate_word_reference(outcome.plan->model, items[i].x, items[i].y);
      ok = matches(outcome.batch.results[i].z, ref) && ok;
    }
    outcome.correct = ok;
    const sim::SimulationStats& stats = outcome.batch.results.front().stats;
    facts.ok = ok;
    facts.items = static_cast<std::int64_t>(items.size());
    facts.events = facts.items * stats.computations;
    facts.compiled_items = outcome.batch.compiled_items;
    facts.lane_width = outcome.batch.compiled_lane_width;
    facts.threads_used = stats.threads_used;
    facts.peak_live_slots = stats.peak_live_slots;
    trace_emit(t, id, "emit_batch_json",
               [&](JsonWriter& w) { return serve::emit_batch_json(w, params, outcome); },
               parsed);
    return facts;
  }

  if (parsed.action == "tiled") {
    serve::TiledOutcome outcome;
    {
      Scoped span(t, "compose_tiled", id);
      const std::uint64_t misses = cache.stats().misses;
      outcome.plan = pipeline::compose_tiled(cache, request, params.tile);
      if (cache.stats().misses != misses) {
        facts.compose_miss = true;
        facts.timings = outcome.plan.shapes.front().plan->timings;
      }
    }
    const pipeline::TiledPlan& plan = outcome.plan;
    const std::uint64_t bound = core::max_safe_operand(request.p, plan.k, request.expansion);
    const core::OperandFn x = tiled_operand(params.seed, 1, bound, 0, 2);
    const core::OperandFn y = tiled_operand(params.seed, 2, bound, 2, 1);
    pipeline::TiledRunOptions options;
    options.threads = request.threads;
    options.memory = request.memory;
    options.sliced = params.sliced;
    options.compiled = params.compiled;
    options.lane_width = params.lanes;
    {
      Scoped span(t, "run_tiled", id);
      outcome.run = pipeline::run_tiled(cache, plan, x, y, options);
    }
    {
      Scoped span(t, "evaluate_word_reference", id);
      bool ok = !outcome.run.z.empty();
      for (const auto& [ij, v] : outcome.run.z) {
        std::uint64_t acc = 0;
        for (math::Int l = 1; l <= plan.k; ++l) {
          acc += x(math::IntVec{ij[0], ij[1], l}) * y(math::IntVec{ij[0], ij[1], l});
        }
        ok = ok && v == acc;
        ++outcome.checked_outputs;
      }
      outcome.correct = ok;
      outcome.full_check = true;
    }
    facts.ok = outcome.correct;
    facts.items = outcome.run.tiles_executed;
    facts.events = outcome.run.tiles_executed * outcome.run.stats.computations;
    facts.compiled_items = outcome.run.compiled_items;
    facts.threads_used = outcome.run.stats.threads_used;
    facts.peak_live_slots = outcome.run.stats.peak_live_slots;
    trace_emit(t, id, "emit_tiled_json",
               [&](JsonWriter& w) { return serve::emit_tiled_json(w, params, outcome); },
               parsed);
    return facts;
  }
  return facts;
}

/// Set-up requests of a warm workload: the plans its requests hit.
std::vector<std::string> warm_lines(const std::string& workload) {
  std::vector<std::string> lines;
  if (workload == "warm-serve") {
    // A simulate and a batch per plan, so both paths are warm.
    for (const Shape& s : kWarmPlans) {
      for (const char* action : {"simulate", "batch"}) {
        JsonWriter w;
        begin_request(w, 0, action, s);
        w.end_object();
        lines.push_back(w.str());
      }
    }
  } else if (workload == "bulk-throughput") {
    // The batch plan, and the tiled request's one tile-shape plan: a
    // two-tile instance of the same tile shape composes it (two, so the
    // tiles ride the compiled path rather than the scalar machine).
    JsonWriter batch;
    begin_request(batch, 0, "batch", kBulkBatchPlan);
    batch.key("batch").value(std::int64_t{2});
    batch.end_object();
    lines.push_back(batch.str());
    const Shape two_tiles{"matmul_rect", 3, 2 * kBulkTile, kBulkTile, kBulkTiledExtent, 8, false};
    JsonWriter tiled;
    begin_request(tiled, 0, "tiled", two_tiles);
    tiled.key("tile_m").value(kBulkTile);
    tiled.key("tile_n").value(kBulkTile);
    tiled.end_object();
    lines.push_back(tiled.str());
  }
  return lines;
}

void write_timings(JsonWriter& w, const pipeline::StageTimings& t) {
  w.begin_object();
  w.key("resolve_ms").value(t.resolve_ms);
  w.key("expand_ms").value(t.expand_ms);
  w.key("map_ms").value(t.map_ms);
  w.key("machine_ms").value(t.machine_ms);
  w.key("compile_ms").value(t.compile_ms);
  w.key("total_ms").value(t.total_ms());
  w.end_object();
}

int run_trace(const Args& a) {
  if (a.out.empty() || a.count == 0) usage("trace needs --count and --out");
  const Sequence sequence(a.workload, a.seed);
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < a.count && sequence.has(i); ++i) {
    lines.push_back(sequence.at(i).line);
  }
  const std::vector<std::string> warm = warm_lines(a.workload);

  // Two fresh caches, warmed alike: requests run untraced through
  // serve::handle_line (the daemon's own per-request function) on one,
  // and traced through the runners' public calls on the other. The two
  // runs of a request are adjacent, in alternating order, so drift and
  // warm-up fall on both sides evenly.
  pipeline::PlanCache untraced_cache;
  pipeline::PlanCache traced_cache;
  const serve::ServeContext untraced_context{untraced_cache, {}, {}};
  const serve::ServeContext traced_context{traced_cache, {}, {}};
  for (const std::string& l : warm) {
    serve::handle_line(untraced_context, l);
    serve::handle_line(traced_context, l);
  }
  std::vector<pipeline::StageTimings> setup_composes;
  for (const pipeline::PlanCacheEntryStats& entry : traced_cache.entry_stats()) {
    setup_composes.push_back(traced_cache.peek(entry.key)->timings);
  }

  Tracer tracer(Clock::now());
  std::vector<TraceFacts> facts;
  std::vector<int> roots;
  std::vector<std::int64_t> untraced_ns;
  bool untraced_ok = true;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto untraced = [&] {
      bool ok = false;
      const Clock::time_point t0 = Clock::now();
      serve::handle_line(untraced_context, lines[i], &ok);
      untraced_ns.push_back(ns_since(t0, Clock::now()));
      untraced_ok = untraced_ok && ok;
    };
    if (i % 2 == 0) untraced();
    roots.push_back(static_cast<int>(tracer.spans().size()));
    facts.push_back(traced_request(tracer, static_cast<std::int64_t>(i), traced_cache, lines[i]));
    if (i % 2 == 1) untraced();
  }

  JsonWriter w;
  w.begin_object();
  w.key("untraced_ok").value(untraced_ok);
  w.key("requests").begin_array();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const TraceFacts& f = facts[i];
    const Tracer::Span& root = tracer.span(roots[i]);
    w.begin_object();
    w.key("index").value(static_cast<std::int64_t>(i));
    w.key("action").value(f.action);
    w.key("ok").value(f.ok);
    w.key("untraced_ns").value(untraced_ns[i]);
    w.key("traced_ns").value(root.end_ns - root.start_ns);
    w.key("items").value(f.items);
    w.key("events").value(f.events);
    w.key("compiled_items").value(f.compiled_items);
    w.key("lane_width").value(f.lane_width);
    w.key("threads_used").value(f.threads_used);
    w.key("peak_live_slots").value(f.peak_live_slots);
    w.key("compose_miss").value(f.compose_miss);
    if (f.compose_miss) {
      w.key("timings");
      write_timings(w, f.timings);
    }
    w.end_object();
  }
  w.end_array();
  w.key("setup_composes").begin_array();
  for (const pipeline::StageTimings& t : setup_composes) write_timings(w, t);
  w.end_array();
  w.key("spans").begin_array();
  for (const Tracer::Span& s : tracer.spans()) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_ns").value(s.start_ns);
    w.key("end_ns").value(s.end_ns);
    w.key("parent").value(s.parent);
    w.key("request").value(s.request);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(a.out);
  out << w.str() << '\n';
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.mode == "gen") {
      const Sequence sequence(a.workload, a.seed);
      for (std::uint64_t i = 0; i < a.count && sequence.has(i); ++i) {
        const Request r = sequence.at(i);
        std::printf("%s\t%s\n", r.key.c_str(), r.line.c_str());
      }
      return 0;
    }
    if (a.mode == "warm") {
      for (const std::string& l : warm_lines(a.workload)) std::printf("%s\n", l.c_str());
      return 0;
    }
    if (a.mode == "load") return run_load(a);
    if (a.mode == "trace") return run_trace(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", a.mode.c_str(), e.what());
    return 1;
  }
  usage("unknown mode '" + a.mode + "'");
}
