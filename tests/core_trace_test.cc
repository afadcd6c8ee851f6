// The observability subsystem: counters, nested scoped timers and the
// merged per-thread profile trees, enable/disable toggling, and the JSON
// exporter validated through a minimal recursive-descent parser.

#include <cctype>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/trace.h"

namespace tsaug::core {
namespace {

/// Restores the tracing toggle a test flipped.
class TraceToggleGuard {
 public:
  TraceToggleGuard() : saved_(trace::Enabled()) {}
  ~TraceToggleGuard() {
    if (saved_) {
      trace::Enable();
    } else {
      trace::Disable();
    }
  }

 private:
  bool saved_;
};

const trace::ScopeStats* FindScope(const std::vector<trace::ScopeStats>& list,
                                   const std::string& name) {
  for (const trace::ScopeStats& s : list) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// --- minimal JSON parser (round-trip check of ReportJson) -------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses the subset of JSON ReportJson emits: objects, arrays, strings
/// with \" \\ \uXXXX escapes, integers, true/false/null. No trailing text.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseLiteral(const char* literal) {
    const size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == '"' || esc == '\\' || esc == '/') {
          out->push_back(esc);
        } else if (esc == 'u') {
          if (pos_ + 4 > text_.size()) return false;
          const int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
          pos_ += 4;
          out->push_back(static_cast<char>(code));
        } else {
          return false;  // exporter never emits other escapes
        }
      } else {
        out->push_back(c);
      }
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return ParseLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return ParseLiteral("null");
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

const JsonValue* FindJsonScope(const JsonValue& scopes,
                               const std::string& name) {
  for (const JsonValue& s : scopes.array) {
    const JsonValue* n = s.Find("name");
    if (n != nullptr && n->str == name) return &s;
  }
  return nullptr;
}

// --- tests ------------------------------------------------------------------

TEST(TraceCounters, DisabledIsNoop) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Disable();
  trace::AddCount("trace_test.noop", 5);
  EXPECT_EQ(trace::CounterValue("trace_test.noop"), 0);
  EXPECT_EQ(trace::Counters().count("trace_test.noop"), 0u);
}

TEST(TraceCounters, AccumulateAcrossCallsAndThreads) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  trace::AddCount("trace_test.a", 2);
  trace::AddCount("trace_test.a", 3);
  trace::AddCount("trace_test.b");
  std::thread other([] { trace::AddCount("trace_test.a", 10); });
  other.join();
  EXPECT_EQ(trace::CounterValue("trace_test.a"), 15);
  EXPECT_EQ(trace::CounterValue("trace_test.b"), 1);
  EXPECT_EQ(trace::CounterValue("trace_test.never_touched"), 0);
  const auto merged = trace::Counters();
  ASSERT_NE(merged.find("trace_test.a"), merged.end());
  EXPECT_EQ(merged.at("trace_test.a"), 15);
}

TEST(TraceScopes, NestedScopesFormTree) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  {
    TSAUG_TRACE_SCOPE("outer");
    { TSAUG_TRACE_SCOPE("inner"); }
    { TSAUG_TRACE_SCOPE("inner"); }
  }
  { TSAUG_TRACE_SCOPE("other"); }

  const std::vector<trace::ScopeStats> scopes = trace::MergedScopes();
  ASSERT_EQ(scopes.size(), 2u);
  // Name-sorted at every level.
  EXPECT_EQ(scopes[0].name, "other");
  EXPECT_EQ(scopes[1].name, "outer");

  const trace::ScopeStats* outer = FindScope(scopes, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_GE(outer->total_ns, 0);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].name, "inner");
  EXPECT_EQ(outer->children[0].count, 2);
  // Strict nesting: the parent's wall time covers its children.
  EXPECT_GE(outer->total_ns, outer->children[0].total_ns);
  // "inner" only exists under "outer", never at the root.
  EXPECT_EQ(FindScope(scopes, "inner"), nullptr);
}

TEST(TraceScopes, WorkerThreadTreesMergeOnExport) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  { TSAUG_TRACE_SCOPE("trace_test.shared"); }
  std::thread worker([] { TSAUG_TRACE_SCOPE("trace_test.shared"); });
  worker.join();
  // Keep the merged tree alive past the lookup: FindScope returns a
  // pointer into this vector.
  const std::vector<trace::ScopeStats> scopes = trace::MergedScopes();
  const trace::ScopeStats* shared = FindScope(scopes, "trace_test.shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count, 2);
}

TEST(TraceScopes, DisableStopsRecordingAndResetClears) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  { TSAUG_TRACE_SCOPE("recorded"); }
  trace::Disable();
  { TSAUG_TRACE_SCOPE("dropped"); }
  trace::AddCount("dropped_counter");

  std::vector<trace::ScopeStats> scopes = trace::MergedScopes();
  EXPECT_NE(FindScope(scopes, "recorded"), nullptr);
  EXPECT_EQ(FindScope(scopes, "dropped"), nullptr);
  EXPECT_EQ(trace::CounterValue("dropped_counter"), 0);

  trace::Reset();
  EXPECT_TRUE(trace::MergedScopes().empty());
  EXPECT_TRUE(trace::Counters().empty());
}

TEST(TraceScopes, ToggleMidScopeStillClosesCleanly) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  {
    TSAUG_TRACE_SCOPE("outer");
    trace::Disable();  // inner scopes are dropped, outer still closes
    { TSAUG_TRACE_SCOPE("inner"); }
  }
  trace::Enable();
  { TSAUG_TRACE_SCOPE("after"); }
  const std::vector<trace::ScopeStats> scopes = trace::MergedScopes();
  const trace::ScopeStats* outer = FindScope(scopes, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_TRUE(outer->children.empty());
  // "after" is a root scope, not a child of the closed "outer".
  EXPECT_NE(FindScope(scopes, "after"), nullptr);
}

TEST(TraceExport, JsonRoundTripsThroughMinimalParser) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  {
    TSAUG_TRACE_SCOPE("alpha");
    { TSAUG_TRACE_SCOPE("beta"); }
  }
  trace::AddCount("trace_test.items", 3);

  const std::string json = trace::ReportJson();
  JsonValue doc;
  MiniJsonParser parser(json);
  ASSERT_TRUE(parser.Parse(&doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);

  const JsonValue* version = doc.Find("trace_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, 1.0);
  const JsonValue* enabled = doc.Find("enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(enabled->boolean);

  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* items = counters->Find("trace_test.items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->number, 3.0);

  const JsonValue* scopes = doc.Find("scopes");
  ASSERT_NE(scopes, nullptr);
  ASSERT_EQ(scopes->kind, JsonValue::Kind::kArray);
  const JsonValue* alpha = FindJsonScope(*scopes, "alpha");
  ASSERT_NE(alpha, nullptr) << json;
  EXPECT_EQ(alpha->Find("count")->number, 1.0);
  EXPECT_GE(alpha->Find("total_ns")->number, 0.0);
  const JsonValue* beta = FindJsonScope(*alpha->Find("children"), "beta");
  ASSERT_NE(beta, nullptr) << json;
  EXPECT_EQ(beta->Find("count")->number, 1.0);
  EXPECT_TRUE(beta->Find("children")->array.empty());
}

TEST(TraceExport, JsonEscapesQuotesInNames) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  { trace::Scope scope(std::string("odd\"name\\here")); }
  const std::string json = trace::ReportJson();
  JsonValue doc;
  MiniJsonParser parser(json);
  ASSERT_TRUE(parser.Parse(&doc)) << json;
  const JsonValue* scopes = doc.Find("scopes");
  ASSERT_NE(scopes, nullptr);
  EXPECT_NE(FindJsonScope(*scopes, "odd\"name\\here"), nullptr) << json;
}

TEST(TraceExport, CountersOnlyJsonBytesArePinned) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  trace::AddCount("serve.batches", 3);
  trace::AddCount("a\"b\\", -2);
  trace::AddCount("tab\there", 1);
  EXPECT_EQ(trace::ReportJson(),
            "{\"trace_version\":1,\"enabled\":true,\"counters\":{"
            "\"a\\\"b\\\\\":-2,\"serve.batches\":3,\"tab\\u0009here\":1},"
            "\"scopes\":[]}");
}

TEST(TraceClock, StopwatchAndNanosAreMonotone) {
  const std::int64_t t0 = trace::NowNanos();
  trace::Stopwatch watch;
  double x = 0.0;
  for (int i = 0; i < 1000; ++i) x += static_cast<double>(i) * 1e-3;
  ASSERT_GT(x, 0.0);  // keep the loop alive
  EXPECT_GE(watch.Seconds(), 0.0);
  EXPECT_GE(trace::NowNanos(), t0);
  watch.Restart();
  EXPECT_GE(watch.Seconds(), 0.0);
}

}  // namespace
}  // namespace tsaug::core
