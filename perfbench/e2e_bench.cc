// End-to-end serving benchmark. Builds the serving stack in-process from
// the library's public API — Router over a StaticFleet of one
// BackendService whose sessions submit to a BatchScheduler (max_batch 4)
// over an untrained gpt2-medium Pipeline — and drives it over loopback
// HTTP with a seeded workload. See perfbench/README.md for the
// workloads, the metrics and which layer should move which metric.
//
//   e2e_bench --workload chat_stream|cold_prompt|bulk_batch --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then again with the layer decorators (layers.h), and
// prints the per-layer metrics plus the tracing overhead. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "http_client.h"
#include "layers.h"
#include "models/gpt2_model.h"
#include "serve/backend_service.h"
#include "serve/batch_scheduler.h"
#include "serve/replica_supervisor.h"
#include "serve/router.h"
#include "tensor/thread_pool.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/obs.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median. The first one is timed
/// from process start.
constexpr int kSetupRepeats = 5;
/// Fraction of each run's parts, in the layer-accounting check, that
/// may be unaccounted for before the run is marked incorrect.
constexpr double kAccountingTolerance = 0.10;

const double kProcessStart = NowS();

struct Args {
  Workload workload = Workload::kChatStream;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0 &&
                     args->seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// ---------------------------------------------------------------------
// Statistics

/// Linear interpolation between order statistics; 0 when empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------
// The stack

struct Stack {
  std::unique_ptr<rt::Pipeline> pipeline;
  std::unique_ptr<TimedModel> timed_model;  // traced run only
  std::unique_ptr<rt::serve::BatchScheduler> scheduler;
  std::unique_ptr<rt::BackendService> backend;
  std::unique_ptr<rt::StaticFleet> fleet;
  std::unique_ptr<rt::Router> router;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (router != nullptr) router->Stop();
    if (backend != nullptr) backend->Stop();
    if (scheduler != nullptr) scheduler->Stop();
  }
};

/// Builds the stack with shipped defaults except max_batch. With a
/// span log, the scheduler's model/decoder and the session callbacks
/// are wrapped in the layer decorators.
std::unique_ptr<Stack> BuildStack(SpanLog* log) {
  auto stack = std::make_unique<Stack>();
  rt::PipelineOptions options;
  options.model = rt::ModelKind::kGpt2Medium;
  auto pipeline = rt::Pipeline::Create(options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 pipeline.status().ToString().c_str());
    return nullptr;
  }
  stack->pipeline = std::move(*pipeline);
  rt::Pipeline* p = stack->pipeline.get();
  // The BPE tokenizer memoizes word segmentations in an unsynchronized
  // cache, and the serving sessions encode prompts concurrently. Encoding
  // every ingredient the workloads use here, single-threaded, leaves the
  // sessions only cache lookups.
  std::string all_names;
  for (const std::string& name : IngredientsByPopularity()) {
    rt::Recipe recipe;
    recipe.ingredients.push_back({"", "", name, ""});
    all_names += recipe.PromptPrefix() + " ";
  }
  p->tokenizer().Encode(all_names);

  rt::LanguageModel* model = p->model();
  if (log != nullptr) {
    stack->timed_model = std::make_unique<TimedModel>(model, log);
    model = stack->timed_model.get();
  }
  rt::serve::BatchSchedulerOptions sched;
  sched.max_batch = kMaxBatch;
  stack->scheduler =
      std::make_unique<rt::serve::BatchScheduler>(model, sched);

  rt::BackendOptions backend_options;
  backend_options.max_batch = kMaxBatch;
  rt::InstallBatchMetrics(stack->scheduler.get(), &backend_options);
  rt::BackendService::SessionFactory factory =
      rt::MakeBatchedPipelineSessionFactory(p, stack->scheduler.get());
  if (log != nullptr) factory = TimedSessions(std::move(factory), log);
  stack->backend =
      std::make_unique<rt::BackendService>(factory, backend_options);
  if (rt::Status s = stack->backend->Start(0); !s.ok()) {
    std::fprintf(stderr, "backend: %s\n", s.ToString().c_str());
    return nullptr;
  }
  stack->fleet = std::make_unique<rt::StaticFleet>(
      std::vector<int>{stack->backend->port()});
  stack->router =
      std::make_unique<rt::Router>(stack->fleet.get(), rt::RouterOptions{});
  if (rt::Status s = stack->router->Start(0); !s.ok()) {
    std::fprintf(stderr, "router: %s\n", s.ToString().c_str());
    return nullptr;
  }
  return stack;
}

/// Serves one short request per connection, concurrently, so arenas,
/// allocator pools and connections exist before timing starts.
bool WarmUp(const Stack& stack, Workload workload, uint64_t seed) {
  const int n = Connections(workload);
  std::vector<RequestSpec> warm = WarmupRequests(workload, seed, n);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      RequestSpec spec = warm[static_cast<size_t>(i)];
      spec.max_tokens = std::min(spec.max_tokens, 16);
      spec.beam_width = 0;
      Connection conn(stack.router->port());
      const Exchange ex = conn.Post("/v1/generate", spec.Body());
      if (ex.transport_ok && ex.status == 200) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  return ok.load() == n;
}

// ---------------------------------------------------------------------
// Load generation

/// One measured request as the client saw it.
struct Outcome {
  RequestSpec spec;
  double due_s = 0.0;
  Exchange ex;
  /// Filled by Classify().
  bool ok = false;
  bool wrong = false;
  std::string failure;
  int tokens = 0;
  std::string finish;
  std::string recipe_json;

  double latency_ms() const { return (ex.end_s - due_s) * 1e3; }
  double lateness_ms() const { return (ex.sent_s - due_s) * 1e3; }
  double ttft_ms() const {
    const double first = !ex.token_s.empty() ? ex.token_s.front()
                         : spec.stream      ? ex.end_s
                                            : ex.first_byte_s;
    return (first - due_s) * 1e3;
  }
  /// One sample per output token. Streamed: the gaps between token
  /// frames. Buffered responses carry every token at once; there each
  /// token's gap is the request's latency over its output tokens.
  std::vector<double> itl_ms() const {
    std::vector<double> out;
    if (spec.stream) {
      for (size_t i = 1; i < ex.token_s.size(); ++i) {
        out.push_back((ex.token_s[i] - ex.token_s[i - 1]) * 1e3);
      }
    } else if (tokens > 0) {
      out.assign(static_cast<size_t>(tokens), latency_ms() / tokens);
    }
    return out;
  }
};

/// Parses what came back and decides success. Reference comparison
/// happens later, in CheckOutputs.
void Classify(Outcome* o) {
  const Exchange& ex = o->ex;
  if (!ex.transport_ok) {
    o->failure = "transport: " + ex.transport_error;
    return;
  }
  if (ex.status != 200) {
    o->failure = "http " + std::to_string(ex.status);
    return;
  }
  if (!ex.error_data.empty()) {
    o->failure = "stream error frame: " + ex.error_data;
    return;
  }
  const std::string& text = o->spec.stream ? ex.done_data : ex.body;
  auto doc = rt::Json::Parse(text);
  if (!doc.ok() || !doc->Get("finish_reason").is_string()) {
    o->failure = "unparseable response";
    return;
  }
  o->finish = doc->Get("finish_reason").AsString();
  o->tokens = static_cast<int>(doc->Get("tokens_generated").AsNumber());
  o->recipe_json = doc->Get("recipe").Dump();
  for (const char* bad :
       {"deadline_exceeded", "preempted", "cancelled", "backend_lost"}) {
    if (o->finish == bad) {
      o->failure = "finish_reason " + o->finish;
      return;
    }
  }
  if (o->spec.stream && static_cast<int>(ex.token_s.size()) != o->tokens) {
    o->failure = "token frames != tokens_generated";
    return;
  }
  o->ok = true;
}

/// chat_stream: the seeded ladder schedule, one rung after another;
/// every request is timed from its due time, so a stall that delays
/// later sends counts against them.
std::vector<Outcome> RunOpenLoop(int port, uint64_t seed, double seconds,
                                 std::vector<double>* rung_walls) {
  const std::vector<double>& ladder = ChatLadder();
  const std::vector<RequestSpec> schedule = ChatSchedule(seed, seconds);
  std::vector<Outcome> out(schedule.size());
  rung_walls->assign(ladder.size(), 0.0);
  size_t begin = 0;
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    size_t end = begin;
    while (end < schedule.size() &&
           schedule[end].rung == static_cast<int>(rung)) {
      ++end;
    }
    const double t0 = NowS() + 0.005;
    std::atomic<size_t> next{begin};
    std::vector<std::thread> threads;
    for (int c = 0; c < Connections(Workload::kChatStream); ++c) {
      threads.emplace_back([&] {
        Connection conn(port);
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= end) break;
          Outcome& o = out[i];
          o.spec = schedule[i];
          o.due_s = t0 + o.spec.due_s;
          const double wait = o.due_s - NowS();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          o.ex = conn.Post("/v1/generate", o.spec.Body());
        }
      });
    }
    for (auto& t : threads) t.join();
    (*rung_walls)[rung] = NowS() - t0;
    begin = end;
  }
  return out;
}

/// cold_prompt / bulk_batch: each connection sends its next request as
/// soon as the previous one completes, until `seconds` have passed.
std::vector<Outcome> RunClosedLoop(int port, Workload workload, uint64_t seed,
                                   double seconds, double* wall) {
  const double t0 = NowS();
  const double stop = t0 + seconds;
  std::atomic<int> next{0};
  std::mutex mutex;
  std::vector<Outcome> out;
  std::vector<std::thread> threads;
  for (int c = 0; c < Connections(workload); ++c) {
    threads.emplace_back([&] {
      Connection conn(port);
      while (NowS() < stop) {
        Outcome o;
        o.spec = ClosedLoopRequest(workload, seed, next.fetch_add(1));
        o.due_s = NowS();
        o.ex = conn.Post("/v1/generate", o.spec.Body());
        std::lock_guard<std::mutex> lock(mutex);
        out.push_back(std::move(o));
      }
    });
  }
  for (auto& t : threads) t.join();
  double last = t0;
  for (const Outcome& o : out) last = std::max(last, o.ex.end_s);
  *wall = last - t0;
  std::sort(out.begin(), out.end(), [](const Outcome& a, const Outcome& b) {
    return a.spec.seed < b.spec.seed;
  });
  return out;
}

/// A workload's measured requests plus the walls throughput divides by.
struct Phase {
  std::vector<Outcome> outcomes;
  /// chat_stream: one per rung. Closed loops: one.
  std::vector<double> walls;
  double peak_rss_mb = 0.0;
};

Phase RunPhase(const Stack& stack, const Args& args) {
  Phase phase;
  if (args.workload == Workload::kChatStream) {
    phase.outcomes = RunOpenLoop(stack.router->port(), args.seed,
                                 args.seconds, &phase.walls);
  } else {
    double wall = 0.0;
    phase.outcomes = RunClosedLoop(stack.router->port(), args.workload,
                                   args.seed, args.seconds, &wall);
    phase.walls = {wall};
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  phase.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  for (Outcome& o : phase.outcomes) Classify(&o);
  return phase;
}

/// Regenerates every successful response sequentially on model clones
/// (one per hardware thread) and marks mismatches wrong. Per-row RNG
/// makes tokens independent of batch composition, so the batched
/// server must reproduce Pipeline::GenerateFromIngredients exactly.
void CheckOutputs(rt::Pipeline* pipeline, std::vector<Outcome>* outcomes) {
  const int workers = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  std::vector<std::unique_ptr<rt::LanguageModel>> clones;
  for (int i = 0; i < workers; ++i) {
    auto clone = pipeline->CloneModel();
    if (!clone.ok()) {
      for (Outcome& o : *outcomes) {
        o.wrong = o.ok;
        o.failure = "no reference model";
      }
      return;
    }
    clones.push_back(std::move(*clone));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = static_cast<size_t>(w); i < outcomes->size();
           i += static_cast<size_t>(workers)) {
        Outcome& o = (*outcomes)[i];
        if (!o.ok) continue;
        auto req = rt::ParseGenerateRequest(o.spec.Body());
        if (!req.ok()) {
          o.wrong = true;
          continue;
        }
        auto ref = pipeline->GenerateFromIngredientsWith(
            clones[static_cast<size_t>(w)].get(), req->ingredients,
            rt::ToGenerationOptions(*req));
        o.wrong = !ref.ok() ||
                  rt::RecipeToJson(ref->recipe).Dump() != o.recipe_json ||
                  ref->tokens_generated != o.tokens ||
                  rt::FinishReasonName(ref->finish) != o.finish;
        if (o.wrong) o.failure = "output differs from sequential reference";
      }
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The requests an end-to-end figure is computed over: chat_stream's
/// middle rung, or everything a closed loop sent.
std::vector<const Outcome*> Reported(const Phase& phase, Workload workload,
                                     double* wall) {
  std::vector<const Outcome*> out;
  const int mid = static_cast<int>(ChatLadder().size() / 2);
  for (const Outcome& o : phase.outcomes) {
    if (workload != Workload::kChatStream || o.spec.rung == mid) {
      out.push_back(&o);
    }
  }
  *wall = workload == Workload::kChatStream
              ? phase.walls[static_cast<size_t>(mid)]
              : phase.walls[0];
  return out;
}

/// chat_stream's requests at ladder rung `r`, in due order.
std::vector<const Outcome*> Rung(const Phase& phase, size_t r) {
  std::vector<const Outcome*> rung;
  for (const Outcome& o : phase.outcomes) {
    if (o.spec.rung == static_cast<int>(r)) rung.push_back(&o);
  }
  return rung;
}

/// Whether a chat rung met the SLO (see kSloTtftShare). A failed request
/// misses every limit.
bool RungMeetsSlo(const std::vector<const Outcome*>& rung) {
  if (rung.empty()) return false;
  int fast_first = 0;
  std::vector<double> gaps;
  for (const Outcome* o : rung) {
    if (!o->ok || o->wrong) continue;
    fast_first += o->ttft_ms() <= kSloTtftMs;
    const std::vector<double> g = o->itl_ms();
    gaps.insert(gaps.end(), g.begin(), g.end());
  }
  int fast_gaps = 0;
  for (double g : gaps) fast_gaps += g <= kSloItlMs;
  const size_t third = rung.size() / 3;
  std::vector<double> head;
  std::vector<double> tail;
  for (size_t i = 0; i < third; ++i) {
    head.push_back(rung[i]->lateness_ms());
    tail.push_back(rung[rung.size() - 1 - i]->lateness_ms());
  }
  const bool backlog_grows = Mean(tail) > Mean(head) + 10.0;
  return fast_first >= kSloTtftShare * static_cast<double>(rung.size()) &&
         fast_gaps >= kSloItlShare * static_cast<double>(gaps.size()) &&
         !backlog_grows;
}

/// One chat rung's figures, printed so the knee can be located.
void PrintRungs(const Phase& phase) {
  for (size_t r = 0; r < ChatLadder().size(); ++r) {
    const std::vector<const Outcome*> rung = Rung(phase, r);
    std::vector<double> ttft;
    std::vector<double> lateness;
    std::vector<double> gaps;
    int ttft_ok = 0;
    for (const Outcome* o : rung) {
      ttft.push_back(o->ttft_ms());
      lateness.push_back(o->lateness_ms());
      ttft_ok += o->ok && o->ttft_ms() <= kSloTtftMs;
      const std::vector<double> g = o->itl_ms();
      gaps.insert(gaps.end(), g.begin(), g.end());
    }
    std::printf(
        "rung %5.1f req/s: %4zu sent, %4d with ttft <= %.0f ms, ttft "
        "p50/p99 %6.2f/%7.2f ms, itl p99 %6.2f ms, lateness p99 %7.2f ms, "
        "slo %s\n",
        ChatLadder()[r], rung.size(), ttft_ok, kSloTtftMs,
        Percentile(ttft, 0.5), Percentile(ttft, 0.99),
        Percentile(gaps, 0.99), Percentile(lateness, 0.99),
        RungMeetsSlo(rung) ? "met" : "missed");
  }
}

double GoodputRps(const Phase& phase, Workload workload) {
  if (workload == Workload::kChatStream) {
    double best = 0.0;
    for (size_t r = 0; r < ChatLadder().size(); ++r) {
      if (RungMeetsSlo(Rung(phase, r))) best = ChatLadder()[r];
    }
    return best;
  }
  // Closed loops: successful requests per second within the workload's
  // latency limit.
  double wall = 0.0;
  int good = 0;
  for (const Outcome* o : Reported(phase, workload, &wall)) {
    good += o->ok && !o->wrong &&
            o->latency_ms() <= ClosedLoopLatencyLimitMs(workload);
  }
  return wall > 0 ? good / wall : 0.0;
}

/// Tails are reported at p90. On a shared 4-vCPU box the p99 of TTFT and
/// of token gaps moves by 40-120% between runs of the same code
/// (scheduling hiccups, and host-speed drift amplified through the single
/// scheduler thread's queue), more than any regression bound; p90 is the
/// highest percentile that stays within one. The p99s are printed for
/// information.
std::vector<Metric> EndToEndMetrics(const Phase& phase, Workload workload,
                                    double setup_s) {
  double wall = 0.0;
  const auto reported = Reported(phase, workload, &wall);
  std::vector<double> ttft;
  std::vector<double> itl;
  std::vector<double> latency;
  double tokens = 0.0;
  for (const Outcome* o : reported) {
    if (!o->ok || o->wrong) continue;
    ttft.push_back(o->ttft_ms());
    const std::vector<double> gaps = o->itl_ms();
    itl.insert(itl.end(), gaps.begin(), gaps.end());
    latency.push_back(o->latency_ms());
    tokens += o->tokens;
  }
  std::printf(
      "samples: %zu requests (ttft, latency), %zu token gaps; p99 "
      "(informational): ttft %.3f ms, itl %.3f ms, latency %.3f ms\n",
      ttft.size(), itl.size(), Percentile(ttft, 0.99), Percentile(itl, 0.99),
      Percentile(latency, 0.99));
  return {
      {"setup_s", setup_s, "s"},
      {"ttft_p50_ms", Percentile(ttft, 0.50), "ms"},
      {"ttft_p90_ms", Percentile(ttft, 0.90), "ms"},
      {"itl_p50_ms", Percentile(itl, 0.50), "ms"},
      {"itl_p90_ms", Percentile(itl, 0.90), "ms"},
      {"goodput_rps", GoodputRps(phase, workload), "req/s"},
      {"latency_p50_ms", Percentile(latency, 0.50), "ms"},
      {"latency_p90_ms", Percentile(latency, 0.90), "ms"},
      {"output_tok_s", wall > 0 ? tokens / wall : 0.0, "tok/s"},
      {"peak_rss_mb", phase.peak_rss_mb, "MiB"},
  };
}

/// Scheduler and backend counters sampled around the traced phase.
struct Counters {
  rt::serve::BatchSchedulerStats sched;
  long long router_retries = 0;
  long long router_exhausted = 0;
  long long router_streams_aborted = 0;
  double backend_5xx = 0.0;
  double backend_504 = 0.0;
};

Counters ReadCounters(const Stack& stack) {
  Counters c;
  c.sched = stack.scheduler->stats();
  c.router_retries = stack.router->route_retries();
  c.router_exhausted = stack.router->route_exhausted();
  c.router_streams_aborted = stack.router->streams_aborted();
  Connection conn(stack.backend->port());
  const Exchange ex = conn.Get("/v1/metrics");
  auto doc = rt::Json::Parse(ex.body);
  if (ex.transport_ok && ex.status == 200 && doc.ok()) {
    c.backend_5xx = doc->Get("generate_server_errors").AsNumber();
    c.backend_504 = doc->Get("generate_deadline_exceeded").AsNumber();
  }
  return c;
}

/// Per-request layer split: client latency (send to last byte) = hop
/// (serve.http + router + backend handler, both directions) + session
/// call; session = decoder calls inside it + pipeline/scheduler self
/// time. Only exact at occupancy 1 (cold_prompt), where every decoder
/// call inside a session call is that request's.
struct Accounting {
  int matched = 0;
  int unmatched = 0;
  std::vector<double> client_ms;
  std::vector<double> hop_ms;
  std::vector<double> decoder_ms;
  std::vector<double> self_ms;
  double wall_ms = 0.0;
  /// Empty while every per-request check holds.
  std::string why;
};

Accounting Account(const Phase& phase, const std::vector<Span>& spans) {
  Accounting a;
  std::map<uint64_t, const Span*> sessions;
  std::vector<const Span*> decoder;
  for (const Span& s : spans) {
    if (s.call == Call::kSession) {
      sessions[s.seed] = &s;
    } else {
      decoder.push_back(&s);
    }
  }
  std::sort(decoder.begin(), decoder.end(), [](const Span* x, const Span* y) {
    return x->start_s < y->start_s;
  });
  double first = 0.0;
  double last = 0.0;
  for (const Outcome& o : phase.outcomes) {
    if (!o.ok) continue;
    const auto it = sessions.find(o.spec.seed);
    if (it == sessions.end()) {
      ++a.unmatched;
      continue;
    }
    const Span& s = *it->second;
    ++a.matched;
    const double client = (o.ex.end_s - o.ex.sent_s) * 1e3;
    double dec = 0.0;
    auto lo = std::lower_bound(
        decoder.begin(), decoder.end(), s.start_s,
        [](const Span* x, double t) { return x->start_s < t; });
    for (; lo != decoder.end() && (*lo)->start_s < s.end_s; ++lo) {
      dec += (std::min((*lo)->end_s, s.end_s) - (*lo)->start_s) * 1e3;
    }
    a.client_ms.push_back(client);
    a.hop_ms.push_back(client - s.ms());
    a.decoder_ms.push_back(dec);
    a.self_ms.push_back(s.ms() - dec);
    if (s.start_s < o.ex.sent_s || s.end_s > o.ex.end_s) {
      a.why = "a session call lies outside its client request";
    }
    if (dec > s.ms() * (1.0 + 1e-9)) {
      a.why = "decoder time exceeds session time";
    }
    first = first == 0.0 ? o.ex.sent_s : std::min(first, o.ex.sent_s);
    last = std::max(last, o.ex.end_s);
  }
  a.wall_ms = (last - first) * 1e3;
  return a;
}

ModelShape ShapeOf(rt::Pipeline& pipeline) {
  const auto* gpt2 = dynamic_cast<const rt::Gpt2Lm*>(pipeline.model());
  ModelShape shape;
  shape.vocab = pipeline.model()->vocab_size();
  if (gpt2 != nullptr) {
    shape.dim = gpt2->config().dim;
    shape.layers = gpt2->config().num_layers;
  }
  return shape;
}

std::vector<Metric> LayerMetrics(const Stack& stack, const Phase& phase,
                                 const Phase& untraced,
                                 const std::vector<Span>& spans,
                                 const Counters& before,
                                 const Counters& after, Workload workload,
                                 Accounting* accounting) {
  std::vector<Metric> m;
  // loadgen
  double wall = 0.0;
  const auto reported = Reported(phase, workload, &wall);
  std::vector<double> lateness;
  for (const Outcome* o : reported) lateness.push_back(o->lateness_ms());
  int ok = 0;
  int failed = 0;
  int wrong = 0;
  for (const Outcome& o : phase.outcomes) {
    ok += o.ok && !o.wrong;
    failed += !o.ok || o.wrong;
    wrong += o.wrong;
  }
  m.push_back({"loadgen.lateness_p99_ms", Percentile(lateness, 0.99), "ms"});
  m.push_back({"loadgen.sent", static_cast<double>(phase.outcomes.size()),
               "count"});
  m.push_back({"loadgen.ok", static_cast<double>(ok), "count"});
  m.push_back({"loadgen.failed", static_cast<double>(failed), "count"});
  m.push_back({"loadgen.wrong_output", static_cast<double>(wrong), "count"});

  // Split spans by call.
  std::vector<double> step_ms[kMaxBatch + 1];
  double step_total_ms = 0.0;
  double step_rows = 0.0;
  double step_flops[kMaxBatch + 1] = {};
  double step_time_by_m[kMaxBatch + 1] = {};
  double prefill_ms = 0.0;
  double prefill_tokens = 0.0;
  double prefill_flops = 0.0;
  std::vector<double> publish_us;
  std::vector<double> restore_us;
  double offered = 0.0;
  double restored = 0.0;
  std::vector<double> inline_ms;
  std::vector<double> session_ms;
  double decoder_ms = 0.0;
  double steps = 0.0;
  const ModelShape shape = ShapeOf(*stack.pipeline);
  for (const Span& s : spans) {
    switch (s.call) {
      case Call::kSession:
        session_ms.push_back(s.ms());
        continue;
      case Call::kStepBatch: {
        const int rows = std::min(s.rows, kMaxBatch);
        step_ms[rows].push_back(s.ms());
        step_total_ms += s.ms();
        step_rows += s.rows;
        steps += 1;
        step_flops[rows] += StepFlops(shape, s.rows, s.context);
        step_time_by_m[rows] += s.ms();
        break;
      }
      case Call::kPrefillSeq:
        prefill_ms += s.ms();
        prefill_tokens += s.tokens;
        prefill_flops +=
            PrefillFlops(shape, static_cast<int>(s.context), s.tokens);
        break;
      case Call::kNewSequenceWithPrefix:
        restore_us.push_back(s.ms() * 1e3);
        offered += s.tokens;
        restored += s.restored;
        break;
      case Call::kPublishPrefix:
        publish_us.push_back(s.ms() * 1e3);
        break;
      case Call::kInlineGenerate:
        inline_ms.push_back(s.ms());
        break;
    }
    decoder_ms += s.ms();
  }
  double phase_wall = 0.0;
  for (double w : phase.walls) phase_wall += w;

  // hop / relay / router / backend
  *accounting = Account(phase, spans);
  std::vector<double> client_itl;
  for (const Outcome* o : reported) {
    if (o->ok && o->spec.stream) {
      const auto gaps = o->itl_ms();
      client_itl.insert(client_itl.end(), gaps.begin(), gaps.end());
    }
  }
  std::vector<double> all_steps;
  for (const auto& v : step_ms) {
    all_steps.insert(all_steps.end(), v.begin(), v.end());
  }
  m.push_back({"hop.overhead_p50_ms", Percentile(accounting->hop_ms, 0.50),
               "ms"});
  m.push_back({"hop.overhead_p99_ms", Percentile(accounting->hop_ms, 0.99),
               "ms"});
  m.push_back({"relay.itl_excess_p50_ms",
               client_itl.empty() ? 0.0
                                  : Percentile(client_itl, 0.50) -
                                        Percentile(all_steps, 0.50),
               "ms"});
  m.push_back({"router.retries",
               static_cast<double>(after.router_retries -
                                   before.router_retries),
               "count"});
  m.push_back({"router.exhausted",
               static_cast<double>(after.router_exhausted -
                                   before.router_exhausted),
               "count"});
  m.push_back({"router.streams_aborted",
               static_cast<double>(after.router_streams_aborted -
                                   before.router_streams_aborted),
               "count"});
  m.push_back({"backend.errors_5xx", after.backend_5xx - before.backend_5xx,
               "count"});
  m.push_back({"backend.deadline_504", after.backend_504 - before.backend_504,
               "count"});

  // core.pipeline session calls
  m.push_back({"session.calls", static_cast<double>(session_ms.size()),
               "count"});
  m.push_back({"session.time_p50_ms", Percentile(session_ms, 0.50), "ms"});
  m.push_back({"session.time_p99_ms", Percentile(session_ms, 0.99), "ms"});

  // serve.batch_scheduler
  const auto& sb = before.sched;
  const auto& sa = after.sched;
  const double d_steps = static_cast<double>(sa.steps - sb.steps);
  m.push_back({"sched.rows_per_step",
               d_steps > 0 ? (sa.row_steps - sb.row_steps) / d_steps : 0.0,
               "rows"});
  m.push_back({"sched.steps", d_steps, "count"});
  m.push_back({"sched.peak_occupancy", static_cast<double>(sa.peak_occupancy),
               "rows"});
  m.push_back({"sched.preemptions",
               static_cast<double>(sa.preemptions - sb.preemptions), "count"});
  m.push_back({"sched.shed_unmeetable",
               static_cast<double>(sa.shed_unmeetable - sb.shed_unmeetable),
               "count"});
  m.push_back({"sched.decoder_busy_frac",
               phase_wall > 0 ? decoder_ms / (phase_wall * 1e3) : 0.0,
               "frac"});
  m.push_back({"sched.inline_generate_ms", Mean(inline_ms), "ms"});

  // models (BatchDecoder)
  for (int rows = 1; rows <= kMaxBatch; ++rows) {
    m.push_back({"decode.step_ms.m" + std::to_string(rows),
                 Percentile(step_ms[rows], 0.50), "ms"});
  }
  m.push_back({"decode.us_per_row_token",
               step_rows > 0 ? step_total_ms * 1e3 / step_rows : 0.0, "us"});
  m.push_back({"prefill.tokens", prefill_tokens, "count"});
  m.push_back({"prefill.us_per_token",
               prefill_tokens > 0 ? prefill_ms * 1e3 / prefill_tokens : 0.0,
               "us"});
  m.push_back({"decode.arena_heap_allocs",
               static_cast<double>(sa.arena_heap_allocs), "count"});

  // tensor.prefix_cache
  const double hits =
      static_cast<double>(sa.prefix_cache_hits - sb.prefix_cache_hits);
  const double misses =
      static_cast<double>(sa.prefix_cache_misses - sb.prefix_cache_misses);
  m.push_back({"prefix.hit_rate",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac"});
  m.push_back({"prefix.restored_token_frac",
               offered > 0 ? restored / offered : 0.0, "frac"});
  m.push_back({"prefix.evictions",
               static_cast<double>(sa.prefix_cache_evictions -
                                   sb.prefix_cache_evictions),
               "count"});
  m.push_back({"prefix.publish_us", Mean(publish_us), "us"});
  m.push_back({"prefix.restore_us", Mean(restore_us), "us"});

  // tensor.kernels, computed from shapes (not counted by the kernels)
  const auto gflops = [](double flops, double ms) {
    return ms > 0 ? flops / (ms * 1e-3) / 1e9 : 0.0;
  };
  m.push_back({"kernels.step_gflops.m1",
               gflops(step_flops[1], step_time_by_m[1]), "GFLOP/s"});
  m.push_back({"kernels.step_gflops.m4",
               gflops(step_flops[kMaxBatch], step_time_by_m[kMaxBatch]),
               "GFLOP/s"});
  m.push_back({"kernels.prefill_gflops", gflops(prefill_flops, prefill_ms),
               "GFLOP/s"});
  m.push_back({"kernels.step_weight_gb_s",
               step_total_ms > 0
                   ? StepWeightBytes(shape) * steps / (step_total_ms * 1e-3) /
                         1e9
                   : 0.0,
               "GB/s"});

  // Layer accounting (enforced on cold_prompt).
  const double client_sum = Sum(accounting->client_ms);
  m.push_back({"account.hop_ms_mean", Mean(accounting->hop_ms), "ms"});
  m.push_back({"account.decoder_ms_mean", Mean(accounting->decoder_ms), "ms"});
  m.push_back({"account.self_ms_mean", Mean(accounting->self_ms), "ms"});
  m.push_back({"account.unaccounted_frac",
               accounting->wall_ms > 0
                   ? std::fabs(accounting->wall_ms - client_sum) /
                         accounting->wall_ms
                   : 0.0,
               "frac"});

  // Tracing overhead: traced vs untraced latency p50 on the same seed.
  double w0 = 0.0;
  double w1 = 0.0;
  std::vector<double> lat0;
  std::vector<double> lat1;
  for (const Outcome* o : Reported(untraced, workload, &w0)) {
    if (o->ok) lat0.push_back(o->latency_ms());
  }
  for (const Outcome* o : Reported(phase, workload, &w1)) {
    if (o->ok) lat1.push_back(o->latency_ms());
  }
  const double p0 = Percentile(lat0, 0.50);
  m.push_back({"trace.overhead_pct",
               p0 > 0 ? (Percentile(lat1, 0.50) / p0 - 1.0) * 100.0 : 0.0,
               "%"});
  return m;
}

// ---------------------------------------------------------------------
// Output

std::string BoxJson(double setup_s) {
  rt::Json box{rt::Json::Object{}};
  const rt::obs::BuildInfo build = rt::obs::GetBuildInfo();
  box.Set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  box.Set("compute_pool_threads", rt::ThreadPool::GlobalThreads());
  box.Set("build_type", build.build_type);
  box.Set("git_sha", build.git_sha);
  __builtin_cpu_init();
  box.Set("avx512f", __builtin_cpu_supports("avx512f") != 0);
  box.Set("avx512vnni", __builtin_cpu_supports("avx512vnni") != 0);
  box.Set("max_batch", kMaxBatch);
  box.Set("setup_s", setup_s);
  return box.Dump();
}

std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Writes `text` to `path`; a failure is reported on stderr and does not
/// fail the run, whose result is on stdout.
void WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload chat_stream|cold_prompt|"
                 "bulk_batch --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  rt::SetLogLevel(rt::LogLevel::kWarning);

  // Set-up, timed kSetupRepeats times; the last stack is kept.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = i == 0 ? kProcessStart : NowS();
    stack.reset();
    stack = BuildStack(nullptr);
    if (stack == nullptr || !WarmUp(*stack, args.workload, args.seed)) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_times.push_back(NowS() - t0);
  }
  const double setup_s = Percentile(setup_times, 0.5);
  const std::string box = BoxJson(setup_s);
  std::printf("box %s\n", box.c_str());

  Phase untraced = RunPhase(*stack, args);
  Phase traced;
  SpanLog log;
  Counters before;
  Counters after;
  std::unique_ptr<Stack> traced_stack;
  if (args.trace) {
    stack.reset();
    traced_stack = BuildStack(&log);
    if (traced_stack == nullptr ||
        !WarmUp(*traced_stack, args.workload, args.seed)) {
      std::fprintf(stderr, "traced set-up failed\n");
      return 1;
    }
    log.Clear();
    before = ReadCounters(*traced_stack);
    traced = RunPhase(*traced_stack, args);
    after = ReadCounters(*traced_stack);
  }

  // Outputs are checked outside the timed windows, with the serving
  // threads idle.
  rt::Pipeline* pipeline =
      args.trace ? traced_stack->pipeline.get() : stack->pipeline.get();
  CheckOutputs(pipeline, &untraced.outcomes);
  if (args.trace) CheckOutputs(pipeline, &traced.outcomes);

  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, int> failures;
  for (const Phase* phase : {&untraced, &traced}) {
    for (const Outcome& o : phase->outcomes) {
      ++attempted;
      if (!o.ok || o.wrong) {
        ++failed;
        ++failures[o.failure];
      }
    }
  }
  for (const auto& [why, n] : failures) {
    std::fprintf(stderr, "failed x%d: %s\n", n, why.c_str());
  }
  bool correct = failed == 0 && attempted > 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    if (args.workload == Workload::kChatStream) PrintRungs(untraced);
    metrics = EndToEndMetrics(untraced, args.workload, setup_s);
    PrintTable("end-to-end", metrics);
  } else {
    Accounting accounting;
    metrics = LayerMetrics(*traced_stack, traced, untraced, log.Snapshot(),
                           before, after, args.workload, &accounting);
    PrintTable("per-layer (traced run)", metrics);
    const double client = Sum(accounting.client_ms);
    std::printf(
        "layer accounting: %d requests matched, %d unmatched; client %.1f "
        "ms = hop %.1f + decoder %.1f + pipeline/scheduler self %.1f; "
        "closed-loop wall %.1f ms\n",
        accounting.matched, accounting.unmatched, client,
        Sum(accounting.hop_ms), Sum(accounting.decoder_ms),
        Sum(accounting.self_ms), accounting.wall_ms);
    if (args.workload == Workload::kColdPrompt) {
      std::string why = accounting.why;
      if (accounting.matched == 0 || accounting.unmatched > 0) {
        why = "client requests without a session call";
      } else if (std::fabs(accounting.wall_ms - client) >
                 kAccountingTolerance * accounting.wall_ms) {
        why = "layer parts and client wall differ by > 10%";
      }
      if (!why.empty()) {
        std::fprintf(stderr, "LAYER ACCOUNTING FAILED: %s\n", why.c_str());
        correct = false;
      }
    }
    if (!args.out_dir.empty()) {
      std::vector<ClientSpan> client;
      for (const Outcome& o : traced.outcomes) {
        client.push_back({o.spec.seed, o.ex.sent_s, o.ex.end_s});
      }
      WriteFile(args.out_dir + "/" + WorkloadName(args.workload) + "-seed" +
                    std::to_string(args.seed) + ".trace.json",
                ChromeTrace(log.Snapshot(), client));
    }
  }
  const std::string result = ResultJson(correct, attempted, failed, metrics);
  if (!args.out_dir.empty()) {
    WriteFile(args.out_dir + "/" + WorkloadName(args.workload) + "-seed" +
                  std::to_string(args.seed) + "-trace" +
                  (args.trace ? "1" : "0") + ".json",
              "{\"box\": " + box + ", \"result\": " + result + "}\n");
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
