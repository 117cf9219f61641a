#include "workload.h"

#include <algorithm>
#include <cmath>

#include "data/catalog.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// splitmix64 finalizer: decorrelates (seed, stream, index) triples so
/// every request draws from its own Rng stream.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (stream << 48) ^ index;
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Request seeds stay below 2^53 so they survive the JSON number
/// round trip exactly. Measured requests use indices below kWarmupBase.
constexpr uint64_t kSeedStride = 100000;
constexpr int kWarmupBase = 90000;

uint64_t RequestSeed(uint64_t run_seed, int index) {
  return (run_seed % 100000) * kSeedStride + static_cast<uint64_t>(index) +
         1;
}

/// `count` distinct ingredients drawn Zipf-weighted by popularity rank,
/// returned in rank order so popular combinations share a prompt prefix.
std::vector<std::string> ZipfIngredients(rt::Rng* rng, int count) {
  const auto& names = IngredientsByPopularity();
  std::vector<double> weights(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  std::vector<size_t> ranks;
  for (int i = 0; i < count; ++i) {
    const size_t pick = rng->WeightedChoice(weights);
    weights[pick] = 0.0;
    ranks.push_back(pick);
  }
  std::sort(ranks.begin(), ranks.end());
  std::vector<std::string> out;
  for (size_t rank : ranks) out.push_back(names[rank]);
  return out;
}

/// `count` distinct ingredients in uniformly random order.
std::vector<std::string> ShuffledIngredients(rt::Rng* rng, int count) {
  std::vector<std::string> names = IngredientsByPopularity();
  rng->Shuffle(&names);
  names.resize(static_cast<size_t>(count));
  return names;
}

RequestSpec ChatRequest(uint64_t run_seed, int index) {
  rt::Rng rng(Mix(run_seed, 1, static_cast<uint64_t>(index)));
  RequestSpec spec;
  spec.ingredients = ZipfIngredients(&rng, rng.UniformInt(4, 8));
  spec.seed = RequestSeed(run_seed, index);
  spec.max_tokens = 64;
  spec.stream = true;
  return spec;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kChatStream, Workload::kColdPrompt,
                     Workload::kBulkBatch}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kChatStream:
      return "chat_stream";
    case Workload::kColdPrompt:
      return "cold_prompt";
    case Workload::kBulkBatch:
      return "bulk_batch";
  }
  return "?";
}

int Connections(Workload workload) {
  return workload == Workload::kColdPrompt ? 1 : 4;
}

const std::vector<double>& ChatLadder() {
  static const std::vector<double> ladder{4.0, 8.0, 64.0};
  return ladder;
}

const std::vector<double>& ChatRungShare() {
  static const std::vector<double> share{0.1, 0.8, 0.1};
  return share;
}

double ClosedLoopLatencyLimitMs(Workload workload) {
  return workload == Workload::kBulkBatch ? 5000.0 : 1000.0;
}

std::string RequestSpec::Body() const {
  rt::Json body{rt::Json::Object{}};
  rt::Json names{rt::Json::Array{}};
  for (const std::string& name : ingredients) names.Append(name);
  body.Set("ingredients", std::move(names));
  body.Set("max_tokens", max_tokens);
  body.Set("seed", static_cast<double>(seed));
  if (stream) body.Set("stream", true);
  if (batch_priority) body.Set("priority", "batch");
  if (beam_width > 0) body.Set("beam_width", beam_width);
  return body.Dump();
}

const std::vector<std::string>& IngredientsByPopularity() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const rt::CatalogIngredient& ing : rt::Catalog::Ingredients()) {
      if (std::find(out.begin(), out.end(), ing.name) == out.end()) {
        out.push_back(ing.name);
      }
    }
    return out;
  }();
  return names;
}

RequestSpec ClosedLoopRequest(Workload workload, uint64_t seed, int index) {
  rt::Rng rng(Mix(seed, 2, static_cast<uint64_t>(index)));
  RequestSpec spec;
  spec.seed = RequestSeed(seed, index);
  if (workload == Workload::kColdPrompt) {
    spec.ingredients = ShuffledIngredients(
        &rng, rng.UniformInt(kColdMinIngredients, kColdMaxIngredients));
    spec.max_tokens = 16;
    spec.stream = true;
  } else {
    spec.ingredients = ShuffledIngredients(&rng, rng.UniformInt(2, 3));
    spec.max_tokens = 200;
    spec.batch_priority = true;
    if (index % kBeamEvery == kBeamEvery - 1) {
      spec.beam_width = 4;
      spec.max_tokens = kBeamMaxTokens;
    }
  }
  return spec;
}

std::vector<RequestSpec> ChatSchedule(uint64_t seed, double seconds) {
  std::vector<RequestSpec> out;
  const std::vector<double>& ladder = ChatLadder();
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    const double rung_seconds = seconds * ChatRungShare()[rung];
    const int count =
        static_cast<int>(std::lround(ladder[rung] * rung_seconds));
    // Exponential gaps at their exact quantiles, in seeded order: the
    // gap distribution (and so the burstiness) is the same for every
    // seed, the order and thus where bursts fall is not.
    std::vector<double> gaps;
    double total = 0.0;
    for (int i = 0; i < count; ++i) {
      gaps.push_back(-std::log(1.0 - (i + 0.5) / count));
      total += gaps.back();
    }
    rt::Rng order(Mix(seed, 3, rung));
    order.Shuffle(&gaps);
    double t = 0.0;
    for (double gap : gaps) {
      RequestSpec spec = ChatRequest(seed, static_cast<int>(out.size()));
      spec.due_s = t;
      spec.rung = static_cast<int>(rung);
      out.push_back(std::move(spec));
      t += gap / total * rung_seconds;
    }
  }
  return out;
}

std::vector<RequestSpec> WarmupRequests(Workload workload, uint64_t seed,
                                        int count) {
  std::vector<RequestSpec> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(workload == Workload::kChatStream
                      ? ChatRequest(seed, kWarmupBase + i)
                      : ClosedLoopRequest(workload, seed, kWarmupBase + i));
  }
  return out;
}

double StepFlops(const ModelShape& shape, int rows, long long context_sum) {
  const double d = shape.dim;
  return rows * (shape.layers * 24.0 * d * d + 2.0 * d * shape.vocab) +
         shape.layers * 4.0 * d * static_cast<double>(context_sum);
}

double PrefillFlops(const ModelShape& shape, int start, int count) {
  const double d = shape.dim;
  double flops = 0.0;
  for (int i = 0; i < count; ++i) {
    flops += shape.layers * (24.0 * d * d + 4.0 * (start + i + 1) * d);
  }
  return flops;
}

double StepWeightBytes(const ModelShape& shape) {
  const double d = shape.dim;
  return 4.0 * (shape.layers * 12.0 * d * d + d * shape.vocab);
}

}  // namespace perfbench
