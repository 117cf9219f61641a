// Seeded request generation for the end-to-end serving benchmark, plus
// the shape-derived FLOP and byte counts it reports for the kernels.
// Everything here is a pure function of its arguments: the same seed
// gives the same request bytes, which the benchmark's tests check.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kChatStream, kColdPrompt, kBulkBatch };

/// "chat_stream" | "cold_prompt" | "bulk_batch"; false on anything else.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// Rows the scheduler coalesces (the one non-default serving knob).
inline constexpr int kMaxBatch = 4;

/// Client connections (one generator thread each).
int Connections(Workload workload);

/// chat_stream's offered rates (req/s), lowest first. Frozen: a later
/// change is judged by which of these it sustains, so they must not move
/// with the code under test. TTFT/ITL are reported at the middle one,
/// which also gets the largest share of the run (ChatRungShare).
const std::vector<double>& ChatLadder();
/// Fraction of the run spent at each ladder rung.
const std::vector<double>& ChatRungShare();

/// The chat SLO behind goodput_rps: at least kSloTtftShare of the
/// requests offered at a rate get their first token within kSloTtftMs of
/// being due, at least kSloItlShare of all gaps between their tokens are
/// within kSloItlMs, and the generator's lateness does not grow over the
/// rung. The TTFT share is p95, the highest percentile a rung's few
/// hundred requests support with ten or more samples beyond it; the
/// thousands of gaps support p99.
inline constexpr double kSloTtftMs = 50.0;
inline constexpr double kSloTtftShare = 0.95;
inline constexpr double kSloItlMs = 10.0;
inline constexpr double kSloItlShare = 0.99;

/// Closed-loop workloads' latency limit (send to full response) behind
/// their goodput_rps: successful requests per second within it.
double ClosedLoopLatencyLimitMs(Workload workload);

/// cold_prompt's prompt-size contract, in ingredients and in prompt
/// tokens under the pipeline's BPE tokenizer (30 ingredients encode to
/// about 80 tokens, 40 to about 140; the context holds 256).
inline constexpr int kColdMinIngredients = 30;
inline constexpr int kColdMaxIngredients = 40;
inline constexpr int kColdMinPromptTokens = 70;
inline constexpr int kColdMaxPromptTokens = 150;

/// One generated /v1/generate request.
struct RequestSpec {
  std::vector<std::string> ingredients;
  /// Unique within a run; the traced run matches server-side session
  /// calls to client requests by it.
  uint64_t seed = 0;
  int max_tokens = 0;
  bool stream = false;
  bool batch_priority = false;
  int beam_width = 0;
  /// Open loop only: when the request is due, in seconds from the start
  /// of its ladder rung.
  double due_s = 0.0;
  /// Open loop only: index into ChatLadder().
  int rung = 0;

  /// The JSON request body sent over the wire.
  std::string Body() const;
};

/// Ingredient names in popularity order (most popular first): the
/// synthetic catalog's order, which chat_stream's Zipf draw ranks by.
const std::vector<std::string>& IngredientsByPopularity();

/// Zipf exponent of chat_stream's ingredient draw.
inline constexpr double kZipfExponent = 1.0;

/// Request `index` of a closed-loop workload (cold_prompt, bulk_batch);
/// the connections take indices in order from a shared counter.
RequestSpec ClosedLoopRequest(Workload workload, uint64_t seed, int index);

/// bulk_batch sends every kBeamEvery-th request with beam_width 4 and
/// max_tokens kBeamMaxTokens. A beam request runs inline on the scheduler
/// thread and stalls every other row while it runs, so its length is kept
/// short: at 200 tokens one beam stalled the batch for ~400 ms, and how
/// long the run's beams happened to be moved the tails and throughput by
/// more than any regression bound.
inline constexpr int kBeamEvery = 64;
inline constexpr int kBeamMaxTokens = 32;

/// chat_stream's schedule, rung by rung: ChatRungShare() of `seconds` at
/// each ladder rate. A rung holds round(rate * duration) arrivals whose
/// gaps are the exponential distribution's quantiles in seeded order:
/// Poisson-like bursts, with the offered load and the gap distribution
/// identical for every seed.
std::vector<RequestSpec> ChatSchedule(uint64_t seed, double seconds);

/// A few requests of the workload's shape whose seeds never collide with
/// measured ones; the stack serves them before timing starts.
std::vector<RequestSpec> WarmupRequests(Workload workload, uint64_t seed,
                                        int count);

/// Shape of a GPT-2 family model, for computed FLOP and byte counts.
struct ModelShape {
  int dim = 0;
  int layers = 0;
  int vocab = 0;
};

/// FLOPs of one StepBatch of `rows` rows whose context lengths
/// (positions attended, the new token included) sum to `context_sum`:
/// per row and layer 24*d^2 for the QKV, output and MLP GEMMs plus
/// 4*L*d for attention (linear in L, so the sum suffices), plus 2*d*V
/// for the tied logits head. A multiply-add counts as 2.
double StepFlops(const ModelShape& shape, int rows, long long context_sum);

/// FLOPs of prefilling `count` tokens after `start` cached positions:
/// the same sweep as StepFlops without the logits head, which
/// PrefillSeq skips.
double PrefillFlops(const ModelShape& shape, int start, int count);

/// fp32 weight bytes one step streams (every layer's GEMM weights plus
/// the tied head), independent of how many rows the step carries.
double StepWeightBytes(const ModelShape& shape);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
