#include "core/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "core/json.h"
#include "core/thread_annotations.h"

namespace tsaug::core::trace {
namespace {

/// One node of a thread's profile tree. Owned by the ThreadState that
/// created it; mutated only by that thread (under the state's mutex, so
/// exporters can snapshot concurrently).
struct TreeNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  TreeNode* parent = nullptr;
  std::vector<std::unique_ptr<TreeNode>> children;

  TreeNode* Child(const std::string& child_name) {
    for (const auto& c : children) {
      if (c->name == child_name) return c.get();
    }
    children.push_back(std::make_unique<TreeNode>());
    children.back()->name = child_name;
    children.back()->parent = this;
    return children.back().get();
  }
};

/// Per-thread recording state. The mutex is uncontended on the hot path
/// (only the owning thread takes it while recording); exporters take it
/// briefly to read a consistent snapshot. `root` owns the tree `current`
/// walks, so both carry the same guard.
struct ThreadState {
  Mutex mu;
  // sentinel: children are the thread's top-level scopes
  TreeNode root TSAUG_GUARDED_BY(mu);
  TreeNode* current TSAUG_GUARDED_BY(mu) = &root;
  std::map<std::string, std::int64_t> counters TSAUG_GUARDED_BY(mu);
};

/// Registry of every thread that ever recorded. States are owned here and
/// never freed, so data from exited pool workers survives to export time
/// (the same leak-for-process-lifetime pattern as core/parallel.cc).
/// Lock order where both are held: registry.mu before any state->mu.
struct Registry {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadState>> states TSAUG_GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: lives for process
  return *registry;
}

/// Named function (not a thread_local-init lambda) so the analysis sees
/// the guarded push happen with registry.mu held.
ThreadState* RegisterThreadState() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.states.push_back(std::make_unique<ThreadState>());
  return registry.states.back().get();
}

ThreadState& LocalState() {
  thread_local ThreadState* state = RegisterThreadState();
  return *state;
}

bool InitialEnabledFromEnv() {
  const char* value = std::getenv("TSAUG_TRACE");
  if (value == nullptr || *value == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag(InitialEnabledFromEnv());
  return flag;
}

/// Sums `node`'s statistics into the ScopeStats child of `out` with the
/// same name (creating it on first sight), then recurses.
void MergeNodeInto(const TreeNode& node, std::vector<ScopeStats>& out) {
  ScopeStats* target = nullptr;
  for (ScopeStats& existing : out) {
    if (existing.name == node.name) {
      target = &existing;
      break;
    }
  }
  if (target == nullptr) {
    out.push_back(ScopeStats{});
    target = &out.back();
    target->name = node.name;
  }
  target->count += node.count;
  target->total_ns += node.total_ns;
  for (const auto& child : node.children) {
    MergeNodeInto(*child, target->children);
  }
}

void SortRecursive(std::vector<ScopeStats>& scopes) {
  std::sort(scopes.begin(), scopes.end(),
            [](const ScopeStats& a, const ScopeStats& b) {
              return a.name < b.name;
            });
  for (ScopeStats& s : scopes) SortRecursive(s.children);
}

void WriteJsonScopes(const std::vector<ScopeStats>& scopes, JsonWriter& w) {
  w.BeginArray();
  for (const ScopeStats& s : scopes) {
    w.BeginObject().Key("name").String(s.name);
    w.Key("count").Int(s.count).Key("total_ns").Int(s.total_ns);
    WriteJsonScopes(s.children, w.Key("children"));
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void Enable() { EnabledFlag().store(true, std::memory_order_relaxed); }

void Disable() { EnabledFlag().store(false, std::memory_order_relaxed); }

void Reset() {
  Registry& registry = GetRegistry();
  MutexLock registry_lock(registry.mu);
  for (const auto& state : registry.states) {
    MutexLock lock(state->mu);
    state->root.children.clear();
    state->root.count = 0;
    state->root.total_ns = 0;
    state->current = &state->root;
    state->counters.clear();
  }
}

void AddCount(const char* name, std::int64_t delta) {
  if (!Enabled()) return;
  ThreadState& state = LocalState();
  MutexLock lock(state.mu);
  state.counters[name] += delta;
}

std::int64_t CounterValue(const std::string& name) {
  std::int64_t total = 0;
  Registry& registry = GetRegistry();
  MutexLock registry_lock(registry.mu);
  for (const auto& state : registry.states) {
    MutexLock lock(state->mu);
    const auto it = state->counters.find(name);
    if (it != state->counters.end()) total += it->second;
  }
  return total;
}

std::map<std::string, std::int64_t> Counters() {
  std::map<std::string, std::int64_t> merged;
  Registry& registry = GetRegistry();
  MutexLock registry_lock(registry.mu);
  for (const auto& state : registry.states) {
    MutexLock lock(state->mu);
    for (const auto& [name, value] : state->counters) merged[name] += value;
  }
  return merged;
}

Scope::Scope(const char* name) : Scope(std::string(name)) {}

Scope::Scope(const std::string& name) {
  if (!Enabled()) return;
  ThreadState& state = LocalState();
  MutexLock lock(state.mu);
  TreeNode* node = state.current->Child(name);
  state.current = node;
  node_ = node;
  start_ns_ = NowNanos();
}

Scope::~Scope() {
  if (node_ == nullptr) return;
  const std::int64_t elapsed = NowNanos() - start_ns_;
  ThreadState& state = LocalState();
  MutexLock lock(state.mu);
  TreeNode* node = static_cast<TreeNode*>(node_);
  node->count += 1;
  node->total_ns += elapsed;
  state.current = node->parent != nullptr ? node->parent : &state.root;
}

std::vector<ScopeStats> MergedScopes() {
  std::vector<ScopeStats> merged;
  Registry& registry = GetRegistry();
  MutexLock registry_lock(registry.mu);
  for (const auto& state : registry.states) {
    MutexLock lock(state->mu);
    for (const auto& child : state->root.children) {
      MergeNodeInto(*child, merged);
    }
  }
  SortRecursive(merged);
  return merged;
}

std::string ReportJson() {
  JsonWriter w;
  w.BeginObject().Key("trace_version").Int(1).Key("enabled").Bool(Enabled());
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : Counters()) w.Key(name).Int(value);
  w.EndObject();
  WriteJsonScopes(MergedScopes(), w.Key("scopes"));
  w.EndObject();
  return w.str();
}

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace tsaug::core::trace
