#include "layers.h"

#include "http_client.h"
#include "util/json.h"

namespace perfbench {
namespace {

/// Logs one span covering the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Call call) : log_(log) {
    span_.call = call;
    span_.start_s = NowS();
  }
  ~ScopedSpan() {
    span_.end_s = NowS();
    log_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Span& span() { return span_; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace

const char* CallName(Call call) {
  switch (call) {
    case Call::kSession:
      return "session";
    case Call::kStepBatch:
      return "step_batch";
    case Call::kPrefillSeq:
      return "prefill_seq";
    case Call::kNewSequenceWithPrefix:
      return "new_sequence_with_prefix";
    case Call::kPublishPrefix:
      return "publish_prefix";
    case Call::kInlineGenerate:
      return "inline_generate";
  }
  return "?";
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::unique_ptr<rt::BatchSequence> TimedDecoder::NewSequence() {
  return inner_->NewSequence();
}

std::unique_ptr<rt::BatchSequence> TimedDecoder::NewSequenceWithPrefix(
    const int* tokens, int n, int* restored) {
  ScopedSpan scope(log_, Call::kNewSequenceWithPrefix);
  int got = 0;
  auto seq = inner_->NewSequenceWithPrefix(tokens, n, &got);
  if (restored != nullptr) *restored = got;
  scope.span().tokens = n;
  scope.span().restored = got;
  return seq;
}

void TimedDecoder::PrefillSeq(rt::BatchSequence* seq, const int* tokens,
                              int count) {
  const long long start = seq->len();
  ScopedSpan scope(log_, Call::kPrefillSeq);
  scope.span().context = start;
  scope.span().tokens = count;
  inner_->PrefillSeq(seq, tokens, count);
}

void TimedDecoder::PublishPrefix(rt::BatchSequence* seq, const int* tokens,
                                 int n) {
  ScopedSpan scope(log_, Call::kPublishPrefix);
  scope.span().tokens = n;
  inner_->PublishPrefix(seq, tokens, n);
}

void TimedDecoder::EnablePrefixCache(const rt::PrefixCacheOptions& options) {
  inner_->EnablePrefixCache(options);
}

rt::PrefixCacheStats TimedDecoder::prefix_cache_stats() const {
  return inner_->prefix_cache_stats();
}

void TimedDecoder::StepBatch(int m, const int* tokens,
                             rt::BatchSequence* const* seqs, float* logits) {
  long long context = 0;
  for (int i = 0; i < m; ++i) context += seqs[i]->len() + 1;
  ScopedSpan scope(log_, Call::kStepBatch);
  scope.span().rows = m;
  scope.span().context = context;
  inner_->StepBatch(m, tokens, seqs, logits);
}

int TimedDecoder::vocab_size() const { return inner_->vocab_size(); }

int TimedDecoder::max_context() const { return inner_->max_context(); }

int64_t TimedDecoder::arena_heap_allocs() const {
  return inner_->arena_heap_allocs();
}

rt::GenerationResult TimedModel::Generate(
    const std::vector<int>& prompt, const rt::GenerationOptions& options) {
  ScopedSpan scope(log_, Call::kInlineGenerate);
  scope.span().seed = options.seed;
  scope.span().tokens = static_cast<int>(prompt.size());
  return inner_->Generate(prompt, options);
}

std::unique_ptr<rt::BatchDecoder> TimedModel::MakeBatchDecoder() {
  std::unique_ptr<rt::BatchDecoder> inner = inner_->MakeBatchDecoder();
  if (inner == nullptr) return nullptr;
  return std::make_unique<TimedDecoder>(std::move(inner), log_);
}

rt::BackendService::SessionFactory TimedSessions(
    rt::BackendService::SessionFactory inner, SpanLog* log) {
  return [inner = std::move(inner), log](int index) {
    rt::BackendService::GenerateFn fn = inner(index);
    return [fn = std::move(fn), log](const rt::GenerateRequest& req)
               -> rt::StatusOr<rt::GenerateOutcome> {
      ScopedSpan scope(log, Call::kSession);
      scope.span().seed = req.seed;
      return fn(req);
    };
  };
}

std::string ChromeTrace(const std::vector<Span>& spans,
                        const std::vector<ClientSpan>& client) {
  rt::Json events{rt::Json::Array{}};
  const auto add = [&events](const char* name, double start_s, double end_s,
                             uint64_t track, rt::Json args) {
    rt::Json entry{rt::Json::Object{}};
    entry.Set("name", name);
    entry.Set("cat", "perfbench");
    entry.Set("ph", "X");
    entry.Set("ts", start_s * 1e6);
    entry.Set("dur", (end_s - start_s) * 1e6);
    entry.Set("pid", 1);
    entry.Set("tid", static_cast<double>(track));
    entry.Set("args", std::move(args));
    events.Append(std::move(entry));
  };
  // Request-scoped spans share the request's seed as their track id;
  // decoder calls serve every resident row at once and go on track 0.
  for (const ClientSpan& c : client) {
    rt::Json args{rt::Json::Object{}};
    args.Set("seed", static_cast<double>(c.seed));
    add("client_request", c.start_s, c.end_s, c.seed, std::move(args));
  }
  for (const Span& s : spans) {
    rt::Json args{rt::Json::Object{}};
    if (s.seed != 0) args.Set("seed", static_cast<double>(s.seed));
    if (s.rows != 0) args.Set("rows", s.rows);
    if (s.tokens != 0) args.Set("tokens", s.tokens);
    if (s.call == Call::kNewSequenceWithPrefix) {
      args.Set("restored", s.restored);
    }
    const bool per_request =
        s.call == Call::kSession || s.call == Call::kInlineGenerate;
    add(CallName(s.call), s.start_s, s.end_s, per_request ? s.seed : 0,
        std::move(args));
  }
  rt::Json doc{rt::Json::Object{}};
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc.Dump();
}

}  // namespace perfbench
