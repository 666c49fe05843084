#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace e2e {
namespace {

std::atomic<std::uint32_t> next_tid{0};
thread_local const std::uint32_t t_tid = next_tid.fetch_add(1);
thread_local int t_current = -1;  // innermost open span on this thread

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot != nullptr ? std::string(name, dot) : std::string();
}

}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.tid = t_tid;
  std::lock_guard lock(mu_);
  s.parent = t_current >= 0 ? t_current : root_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id, std::int64_t fill_ns, const char* fill_layer) {
  const std::int64_t t = now_ns();
  std::lock_guard lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  s.fill_ns = fill_ns;
  s.fill_layer = fill_layer;
}

void Tracer::set_root(int id) {
  std::lock_guard lock(mu_);
  root_ = id;
}

void Tracer::count(const std::string& name, std::uint64_t n) {
  std::lock_guard lock(mu_);
  counts_[name] += n;
}

std::uint64_t Tracer::counter(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = counts_.find(name);
  return it != counts_.end() ? it->second : 0;
}

LayerTimes Tracer::analyze(int root, const char* last_of) const {
  std::lock_guard lock(mu_);
  LayerTimes out;
  const Span& r = spans_[static_cast<std::size_t>(root)];
  out.wall_s = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;

  // Events of every span inside the root's interval. At equal times ends
  // sort before starts; starts open in index order (parents first) and
  // ends close in reverse index order (children first), so each thread's
  // spans pop in LIFO order.
  struct Event {
    std::int64_t t;
    int kind;  // 0 = end, 1 = start
    int key;   // -index for ends, index for starts
    int idx;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || s.start_ns < r.start_ns || s.end_ns > r.end_ns) {
      continue;
    }
    const int idx = static_cast<int>(i);
    events.push_back({s.start_ns, 1, idx, idx});
    events.push_back({s.end_ns, 0, -idx, idx});
    if (idx == root) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out.busy_s[s.name] += dur;
    if (s.fill_layer != nullptr) {
      out.busy_s[std::string(s.fill_layer) + ".fill"] +=
          static_cast<double>(s.fill_ns) * 1e-9;
    }
    if (last_of != nullptr && std::strcmp(s.name, last_of) == 0) {
      out.last_end_s = std::max(
          out.last_end_s, static_cast<double>(s.end_ns - r.start_ns) * 1e-9);
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.t, a.kind, a.key) < std::tie(b.t, b.kind, b.key);
  });

  std::map<std::uint32_t, std::vector<int>> stacks;  // by thread
  std::int64_t prev_t = r.start_ns;
  for (const Event& e : events) {
    if (e.t > prev_t) {
      const double d = static_cast<double>(e.t - prev_t) * 1e-9;
      std::vector<int> leaves;
      for (const auto& [tid, stack] : stacks) {
        if (!stack.empty() && stack.back() != root) {
          leaves.push_back(stack.back());
        }
      }
      if (leaves.empty()) {
        out.unattributed_s += d;
      } else {
        const double share = d / static_cast<double>(leaves.size());
        for (const int leaf : leaves) {
          const Span& s = spans_[static_cast<std::size_t>(leaf)];
          double own = share;
          if (s.fill_layer != nullptr && s.end_ns > s.start_ns) {
            // Fill calls are spread evenly through a replay, so the
            // span's share splits in proportion to its fill time.
            const double frac = static_cast<double>(s.fill_ns) /
                                static_cast<double>(s.end_ns - s.start_ns);
            out.self_s[s.fill_layer] += share * frac;
            own = share * (1.0 - frac);
          }
          out.self_s[layer_of(s.name)] += own;
        }
      }
      prev_t = e.t;
    }
    auto& stack = stacks[spans_[static_cast<std::size_t>(e.idx)].tid];
    if (e.kind == 1) {
      stack.push_back(e.idx);
    } else if (!stack.empty() && stack.back() == e.idx) {
      stack.pop_back();
    }
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::lock_guard lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::string layer = layer_of(s.name);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"fill_us\":%.3f,"
                  "\"fill_layer\":\"%s\"}}",
                  first ? "" : ",", s.name,
                  layer.empty() ? "root" : layer.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid, i,
                  s.parent, static_cast<double>(s.fill_ns) * 1e-3,
                  s.fill_layer != nullptr ? s.fill_layer : "");
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

Scoped::Scoped(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->begin(name);
  prev_ = t_current;
  t_current = id_;
}

Scoped::~Scoped() {
  if (tracer_ == nullptr) return;
  tracer_->end(id_, fill_ns_, fill_layer_);
  t_current = prev_;
}

}  // namespace e2e
