// The benchmark's own tests: request generation is seed-deterministic,
// the workloads have the shapes their README promises, and the computed
// FLOP counts match a hand count. Exits non-zero on any failure.
//
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/recipe.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

/// Every request a run of `workload` would send, serialized.
std::string Serialize(Workload workload, uint64_t seed) {
  std::string out;
  if (workload == Workload::kChatStream) {
    for (const RequestSpec& spec : ChatSchedule(seed, 30.0)) {
      out += std::to_string(spec.due_s) + " " + spec.Body() + "\n";
    }
  } else {
    for (int i = 0; i < 500; ++i) {
      out += ClosedLoopRequest(workload, seed, i).Body() + "\n";
    }
  }
  return out;
}

void TestSameSeedSameBytes() {
  for (Workload w : {Workload::kChatStream, Workload::kColdPrompt,
                     Workload::kBulkBatch}) {
    CHECK(Serialize(w, 7) == Serialize(w, 7));
    CHECK(Serialize(w, 7) != Serialize(w, 8));
  }
  // Seeds are unique within a run (the traced run matches on them).
  std::set<uint64_t> seeds;
  const std::vector<RequestSpec> chat = ChatSchedule(3, 30.0);
  for (const RequestSpec& spec : chat) seeds.insert(spec.seed);
  for (const RequestSpec& spec : WarmupRequests(Workload::kChatStream, 3, 4)) {
    seeds.insert(spec.seed);
  }
  CHECK(seeds.size() == chat.size() + 4);
}

void TestChatLadderLoad() {
  // Each rung offers exactly its rate over its share of the run.
  const std::vector<RequestSpec> chat = ChatSchedule(5, 30.0);
  std::vector<int> per_rung(ChatLadder().size(), 0);
  for (const RequestSpec& spec : chat) {
    ++per_rung[static_cast<size_t>(spec.rung)];
    CHECK(spec.stream && spec.max_tokens == 64);
    CHECK(spec.ingredients.size() >= 4 && spec.ingredients.size() <= 8);
  }
  for (size_t r = 0; r < per_rung.size(); ++r) {
    CHECK(per_rung[r] ==
          std::lround(ChatLadder()[r] * 30.0 * ChatRungShare()[r]));
  }
}

void TestColdPromptsUniqueAndSized() {
  rt::PipelineOptions options;
  options.model = rt::ModelKind::kGpt2Medium;
  auto pipeline = rt::Pipeline::Create(options);
  CHECK(pipeline.ok());
  if (!pipeline.ok()) return;
  std::set<std::vector<std::string>> prompts;
  int min_tokens = 1 << 30;
  int max_tokens = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const RequestSpec spec = ClosedLoopRequest(Workload::kColdPrompt, 9, i);
    const int k = static_cast<int>(spec.ingredients.size());
    CHECK(k >= kColdMinIngredients && k <= kColdMaxIngredients);
    prompts.insert(spec.ingredients);
    rt::Recipe recipe;
    for (const std::string& name : spec.ingredients) {
      recipe.ingredients.push_back({"", "", name, ""});
    }
    const int tokens = static_cast<int>(
        (*pipeline)->tokenizer().Encode(recipe.PromptPrefix()).size());
    min_tokens = std::min(min_tokens, tokens);
    max_tokens = std::max(max_tokens, tokens);
  }
  std::printf("cold_prompt: %zu unique of %d, prompt tokens %d..%d\n",
              prompts.size(), n, min_tokens, max_tokens);
  CHECK(static_cast<int>(prompts.size()) == n);
  CHECK(min_tokens >= kColdMinPromptTokens);
  CHECK(max_tokens <= kColdMaxPromptTokens);
}

void TestChatPrefixSharingFollowsZipf() {
  // Expected shares from an independent sampler of the same Zipf
  // weights: how often the most popular ingredient is drawn (and so
  // leads the popularity-ordered prompt), and how often two requests
  // lead with the same ingredient (share a first-ingredient prefix).
  const auto& names = IngredientsByPopularity();
  std::vector<double> weights(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  std::mt19937_64 gen(12345);
  std::uniform_int_distribution<int> count(4, 8);
  const int trials = 40000;
  std::map<size_t, double> first_share;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> w = weights;
    size_t first = names.size();
    for (int k = count(gen); k > 0; --k) {
      std::discrete_distribution<size_t> pick(w.begin(), w.end());
      const size_t i = pick(gen);
      w[i] = 0.0;
      first = std::min(first, i);
    }
    first_share[first] += 1.0 / trials;
  }
  double expected_pair = 0.0;
  for (const auto& [rank, p] : first_share) expected_pair += p * p;

  std::map<std::string, double> observed;
  int total = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (const RequestSpec& spec : ChatSchedule(seed, 30.0)) {
      observed[spec.ingredients.front()] += 1.0;
      ++total;
    }
  }
  double observed_pair = 0.0;
  for (auto& [name, n] : observed) {
    n /= total;
    observed_pair += n * n;
  }
  const double top_expected = first_share[0];
  const double top_observed = observed[names[0]];
  std::printf(
      "chat_stream: top-ingredient lead share %.3f (Zipf %.3f), "
      "same-first-ingredient pair share %.3f (Zipf %.3f), %d requests\n",
      top_observed, top_expected, observed_pair, expected_pair, total);
  CHECK(std::fabs(top_observed - top_expected) < 0.02);
  CHECK(std::fabs(observed_pair - expected_pair) < 0.02);
  CHECK(top_observed > 0.3);  // popular prefixes really are shared
}

void TestFlopsMatchHandCount() {
  ModelShape shape;
  shape.dim = 128;
  shape.layers = 4;
  shape.vocab = 640;
  // One layer, one row: QKV 2*128*384 + attn_proj 2*128*128 + MLP
  // 2*128*512 + 2*512*128 = 98304 + 32768 + 131072 + 131072.
  const double gemms_per_row_layer = 393216.0;
  // Attention at context L: QK^T 2*L*128 + AV 2*L*128.
  const double attn_l10 = 2 * 10 * 128 + 2 * 10 * 128;  // 5120
  const double attn_l20 = 2 * 20 * 128 + 2 * 20 * 128;  // 10240
  // Tied head per row: 2*128*640.
  const double head = 163840.0;
  const double hand = 2 * 4 * gemms_per_row_layer + 4 * (attn_l10 + attn_l20) +
                      2 * head;  // 3534848
  CHECK(hand == 3534848.0);
  CHECK(StepFlops(shape, 2, 10 + 20) == hand);
  // Prefill of 3 tokens after 5 cached: contexts 6, 7, 8, no head.
  const double prefill =
      3 * 4 * gemms_per_row_layer + 4 * (4.0 * 128 * (6 + 7 + 8));
  CHECK(PrefillFlops(shape, 5, 3) == prefill);
  // Weights: 4 layers * (384+128+512+512)*128 floats + 640*128 head.
  CHECK(StepWeightBytes(shape) == 4.0 * (4 * 1536 * 128 + 640 * 128));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSameSeedSameBytes();
  perfbench::TestChatLadderLoad();
  perfbench::TestColdPromptsUniqueAndSized();
  perfbench::TestChatPrefixSharingFollowsZipf();
  perfbench::TestFlopsMatchHandCount();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("all perfbench checks passed\n");
  return 0;
}
