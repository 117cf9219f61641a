// Traced-run decorators: they wrap the serving stack's public entry
// points from outside src/ and log one span per call. The session
// GenerateFn, the BatchDecoder calls the scheduler makes, and the inline
// LanguageModel::Generate fallback (beam search) each get a span. The
// untraced run builds the stack without them.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/batch_decode.h"
#include "models/language_model.h"
#include "serve/backend_service.h"

namespace perfbench {

enum class Call {
  kSession,                // the session GenerateFn (core.pipeline)
  kStepBatch,              // BatchDecoder::StepBatch
  kPrefillSeq,             // BatchDecoder::PrefillSeq
  kNewSequenceWithPrefix,  // BatchDecoder::NewSequenceWithPrefix
  kPublishPrefix,          // BatchDecoder::PublishPrefix
  kInlineGenerate,         // LanguageModel::Generate on the scheduler
};

const char* CallName(Call call);

/// One timed call. Which fields mean something depends on `call`.
struct Span {
  Call call = Call::kSession;
  double start_s = 0.0;
  double end_s = 0.0;
  /// kStepBatch: rows in the step.
  int rows = 0;
  /// kStepBatch: sum over rows of the context length attended.
  /// kPrefillSeq: positions already cached before the call.
  long long context = 0;
  /// kPrefillSeq: tokens fed. kNewSequenceWithPrefix: prompt tokens
  /// offered and restored.
  int tokens = 0;
  int restored = 0;
  /// kSession, kInlineGenerate: the request's seed, which matches the
  /// client request.
  uint64_t seed = 0;

  double ms() const { return (end_s - start_s) * 1e3; }
};

/// Thread-safe span sink.
class SpanLog {
 public:
  void Add(const Span& span);
  std::vector<Span> Snapshot() const;
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Forwards every BatchDecoder call to `inner`, logging the ones the
/// scheduler's decode loop makes.
class TimedDecoder : public rt::BatchDecoder {
 public:
  TimedDecoder(std::unique_ptr<rt::BatchDecoder> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::unique_ptr<rt::BatchSequence> NewSequence() override;
  std::unique_ptr<rt::BatchSequence> NewSequenceWithPrefix(
      const int* tokens, int n, int* restored) override;
  void PrefillSeq(rt::BatchSequence* seq, const int* tokens,
                  int count) override;
  void PublishPrefix(rt::BatchSequence* seq, const int* tokens,
                     int n) override;
  void EnablePrefixCache(const rt::PrefixCacheOptions& options) override;
  rt::PrefixCacheStats prefix_cache_stats() const override;
  void StepBatch(int m, const int* tokens, rt::BatchSequence* const* seqs,
                 float* logits) override;
  int vocab_size() const override;
  int max_context() const override;
  int64_t arena_heap_allocs() const override;

 private:
  std::unique_ptr<rt::BatchDecoder> inner_;
  SpanLog* log_;
};

/// A LanguageModel that forwards to `inner` (which it borrows) and hands
/// the scheduler a TimedDecoder; its Generate is the scheduler's inline
/// fallback and is logged as kInlineGenerate.
class TimedModel : public rt::LanguageModel {
 public:
  TimedModel(rt::LanguageModel* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_->name(); }
  rt::Module* module() override { return inner_->module(); }
  float TrainStep(const rt::Batch& batch, rt::Rng* dropout_rng) override {
    return inner_->TrainStep(batch, dropout_rng);
  }
  float EvalLoss(const rt::Batch& batch) override {
    return inner_->EvalLoss(batch);
  }
  rt::GenerationResult Generate(
      const std::vector<int>& prompt,
      const rt::GenerationOptions& options) override;
  std::unique_ptr<rt::BatchDecoder> MakeBatchDecoder() override;
  int vocab_size() const override { return inner_->vocab_size(); }
  int max_seq_len() const override { return inner_->max_seq_len(); }

 private:
  rt::LanguageModel* inner_;
  SpanLog* log_;
};

/// Wraps every session callback `inner` builds so each call is logged
/// as kSession with the request's seed.
rt::BackendService::SessionFactory TimedSessions(
    rt::BackendService::SessionFactory inner, SpanLog* log);

/// One request as the load generator saw it: send to last byte.
struct ClientSpan {
  uint64_t seed = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// The layer spans and the client requests as a Chrome trace_event
/// document, the format GET /v1/trace serves.
std::string ChromeTrace(const std::vector<Span>& spans,
                        const std::vector<ClientSpan>& client);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
