#include "core/faultpoint.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"

namespace tsaug::core::fault {
namespace {

/// One parsed spec entry: `point[@domain_substring]:N[+|!]`.
struct Rule {
  std::string point;
  std::string domain_substring;  // empty = matches every domain
  std::int64_t n = 0;            // fire on the Nth hit (1-based)
  bool every_after = false;      // "N+": fire on every hit >= N
  bool abort_process = false;    // "N!": std::abort() at the Nth hit
};

/// All mutable injection state behind one mutex. ShouldFail only takes the
/// lock when injection is enabled, so the disabled path stays a single
/// relaxed atomic load (same contract as core/trace.cc).
struct State {
  Mutex mu;
  std::vector<Rule> rules TSAUG_GUARDED_BY(mu);
  // Hits per (rule index, domain): determinism requires independent
  // counting per domain, because the pool assigns cells to workers in a
  // scheduling-dependent order.
  std::map<std::pair<size_t, std::string>, std::int64_t> rule_hits
      TSAUG_GUARDED_BY(mu);
  // Hits per point (all domains), for test introspection.
  std::map<std::string, std::int64_t> point_hits TSAUG_GUARDED_BY(mu);
};

State& GetState() {
  static State* state = new State();  // leaked: lives for process
  return *state;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag(false);
  return flag;
}

std::string& ThreadDomain() {
  thread_local std::string domain;
  return domain;
}

/// Parses one spec entry; returns false (with a stderr warning) on
/// malformed input so a typo in TSAUG_FAULTS cannot abort the run it was
/// meant to probe.
bool ParseRule(const std::string& entry, Rule& rule) {
  const size_t colon = entry.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  std::string count = entry.substr(colon + 1);
  if (count.empty()) return false;
  if (count.back() == '+') {
    rule.every_after = true;
    count.pop_back();
    if (count.empty()) return false;
  } else if (count.back() == '!') {
    rule.abort_process = true;
    count.pop_back();
    if (count.empty()) return false;
  }
  for (char c : count) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  rule.n = std::strtoll(count.c_str(), nullptr, 10);
  if (errno != 0 || rule.n < 1) return false;
  std::string target = entry.substr(0, colon);
  const size_t at = target.find('@');
  if (at != std::string::npos) {
    rule.domain_substring = target.substr(at + 1);
    target = target.substr(0, at);
  }
  if (target.empty()) return false;
  rule.point = std::move(target);
  return true;
}

std::vector<Rule> ParseSpec(const std::string& spec) {
  std::vector<Rule> rules;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    if (!entry.empty()) {
      Rule rule;
      if (ParseRule(entry, rule)) {
        rules.push_back(std::move(rule));
      } else {
        std::fprintf(stderr,
                     "TSAUG_FAULTS: ignoring malformed rule \"%s\" "
                     "(expected point[@domain]:N[+|!])\n",
                     entry.c_str());
      }
    }
    start = end + 1;
  }
  return rules;
}

/// Installs the TSAUG_FAULTS env spec the first time injection state is
/// queried; later SetSpec calls override it.
void EnsureEnvSpecLoaded() {
  static const bool loaded = [] {
    const char* value = std::getenv("TSAUG_FAULTS");
    if (value != nullptr && *value != '\0') SetSpec(value);
    return true;
  }();
  (void)loaded;
}

}  // namespace

bool Enabled() {
  EnsureEnvSpecLoaded();
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetSpec(const std::string& spec) {
  State& state = GetState();
  MutexLock lock(state.mu);
  state.rules = ParseSpec(spec);
  state.rule_hits.clear();
  state.point_hits.clear();
  EnabledFlag().store(!state.rules.empty(), std::memory_order_relaxed);
}

void Clear() { SetSpec(""); }

bool ShouldFail(const char* point) {
  if (!Enabled()) return false;
  State& state = GetState();
  MutexLock lock(state.mu);
  const std::string& domain = ThreadDomain();
  state.point_hits[point] += 1;
  bool fire = false;
  for (size_t r = 0; r < state.rules.size(); ++r) {
    const Rule& rule = state.rules[r];
    if (rule.point != point) continue;
    if (!rule.domain_substring.empty() &&
        domain.find(rule.domain_substring) == std::string::npos) {
      continue;
    }
    const std::int64_t hit = ++state.rule_hits[{r, domain}];
    if (hit == rule.n || (rule.every_after && hit > rule.n)) {
      if (rule.abort_process) {
        // Kill/resume testing: simulate a crash/preemption at an exact,
        // deterministic point. The message makes an expected abort
        // distinguishable from a real one in test logs.
        std::fprintf(stderr,
                     "TSAUG_FAULTS: abort action at point %s (hit %lld, "
                     "domain \"%s\")\n",
                     point, static_cast<long long>(hit), domain.c_str());
        std::abort();
      }
      fire = true;
    }
  }
  return fire;
}

std::int64_t HitCount(const std::string& point) {
  if (!Enabled()) return 0;
  State& state = GetState();
  MutexLock lock(state.mu);
  const auto it = state.point_hits.find(point);
  return it != state.point_hits.end() ? it->second : 0;
}

const std::string& CurrentDomain() { return ThreadDomain(); }

ScopedDomain::ScopedDomain(std::string name)
    : previous_(std::move(ThreadDomain())) {
  ThreadDomain() = std::move(name);
}

ScopedDomain::~ScopedDomain() { ThreadDomain() = std::move(previous_); }

Status InjectedAt(const char* point) {
  std::string context = point;
  const std::string& domain = ThreadDomain();
  if (!domain.empty()) {
    context += " in ";
    context += domain;
  }
  return InjectedFaultError(std::move(context));
}

}  // namespace tsaug::core::fault
