#include "simulator/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/base_log.h"
#include "common/random.h"
#include "common/string_util.h"

namespace spinner::sim {

using stream::EdgeEvent;

Result<LoadTrace> ParseLoadTrace(std::string_view text) {
  LoadTrace trace;
  int line_no = 0;
  for (std::string_view raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    if (const size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) continue;
    const std::vector<std::string_view> fields = SplitWhitespace(line);
    const std::string_view directive = fields[0];
    auto malformed = [&](const char* expected) {
      return Status::InvalidArgument(StrFormat(
          "trace line %d: '%.*s' — expected %s", line_no,
          static_cast<int>(raw_line.size()), raw_line.data(), expected));
    };

    if (directive == "burst") {
      int64_t at = 0;
      if (fields.size() != 2 || !ParseInt64(fields[1], &at) || at < 0) {
        return malformed("burst <micros>=0..");
      }
      if (!trace.bursts.empty() && at < trace.bursts.back().at_micros) {
        return Status::InvalidArgument(StrFormat(
            "trace line %d: burst time %lld precedes the previous burst",
            line_no, static_cast<long long>(at)));
      }
      TraceBurst burst;
      burst.at_micros = at;
      trace.bursts.push_back(std::move(burst));
      continue;
    }

    if (directive == "capacity") {
      int64_t capacity = 0;
      if (fields.size() != 2 || !ParseInt64(fields[1], &capacity) ||
          capacity < 0) {
        return malformed("capacity <machines>=0..");
      }
      if (trace.bursts.empty()) {
        trace.initial_capacity = static_cast<int>(capacity);
      } else {
        trace.bursts.back().capacity = static_cast<int>(capacity);
      }
      continue;
    }

    // Event directives require an open burst.
    if (trace.bursts.empty()) {
      return Status::InvalidArgument(StrFormat(
          "trace line %d: '%.*s' before the first burst", line_no,
          static_cast<int>(raw_line.size()), raw_line.data()));
    }
    TraceBurst& burst = trace.bursts.back();
    if (directive == "add" || directive == "remove") {
      int64_t src = 0;
      int64_t dst = 0;
      if (fields.size() != 3 || !ParseInt64(fields[1], &src) ||
          !ParseInt64(fields[2], &dst) || src < 0 || dst < 0) {
        return malformed("add|remove <src> <dst>");
      }
      burst.events.push_back(directive == "add"
                                 ? EdgeEvent::AddEdge(src, dst)
                                 : EdgeEvent::RemoveEdge(src, dst));
    } else if (directive == "vertices") {
      int64_t count = 0;
      if (fields.size() != 2 || !ParseInt64(fields[1], &count) ||
          count < 1) {
        return malformed("vertices <count>=1..");
      }
      burst.events.push_back(EdgeEvent::AddVertices(count));
    } else {
      return malformed("one of burst/capacity/add/remove/vertices");
    }
  }
  return trace;
}

std::string FormatLoadTrace(const LoadTrace& trace) {
  std::string out;
  if (trace.initial_capacity > 0) {
    out += StrFormat("capacity %d\n", trace.initial_capacity);
  }
  for (const TraceBurst& burst : trace.bursts) {
    out += StrFormat("burst %lld\n",
                     static_cast<long long>(burst.at_micros));
    if (burst.capacity >= 0) {
      out += StrFormat("capacity %d\n", burst.capacity);
    }
    for (const EdgeEvent& event : burst.events) {
      switch (event.kind) {
        case EdgeEvent::Kind::kAddEdge:
          out += StrFormat("add %lld %lld\n",
                           static_cast<long long>(event.src),
                           static_cast<long long>(event.dst));
          break;
        case EdgeEvent::Kind::kRemoveEdge:
          out += StrFormat("remove %lld %lld\n",
                           static_cast<long long>(event.src),
                           static_cast<long long>(event.dst));
          break;
        case EdgeEvent::Kind::kAddVertices:
          out += StrFormat("vertices %lld\n",
                           static_cast<long long>(event.count));
          break;
      }
    }
  }
  return out;
}

Result<LoadTrace> ReadLoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open trace file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseLoadTrace(text.str());
}

Status WriteLoadTrace(const std::string& path, const LoadTrace& trace) {
  return ReplaceFile(
      path, [&](std::ostream& out) { out << FormatLoadTrace(trace); });
}

LoadTrace SyntheticLoadTrace(const SyntheticTraceOptions& options) {
  LoadTrace trace;
  trace.initial_capacity = options.initial_capacity;
  Rng rng(SplitMix64(options.seed ^ 0x7C4A3ULL));
  int64_t range = options.num_vertices;
  // Added edges eligible for later removal (removals must target edges
  // that exist, or the delta would be a no-op the coalescer drops).
  std::vector<std::pair<VertexId, VertexId>> added;

  for (int b = 0; b < options.num_bursts; ++b) {
    TraceBurst burst;
    burst.at_micros =
        options.first_burst_micros + b * options.burst_gap_micros;
    if (b == options.capacity_change_burst &&
        options.changed_capacity >= 0) {
      burst.capacity = options.changed_capacity;
    }
    if (options.vertices_per_burst > 0) {
      burst.events.push_back(
          EdgeEvent::AddVertices(options.vertices_per_burst));
      range += options.vertices_per_burst;
    }
    for (int e = 0; e < options.events_per_burst; ++e) {
      const bool remove = !added.empty() &&
                          rng.Bernoulli(options.remove_fraction);
      if (remove) {
        const size_t pick = rng.Uniform(added.size());
        const auto [src, dst] = added[pick];
        added[pick] = added.back();
        added.pop_back();
        burst.events.push_back(EdgeEvent::RemoveEdge(src, dst));
        continue;
      }
      if (range < 2) continue;  // no id range to draw an edge from yet
      const auto src = static_cast<VertexId>(rng.Uniform(range));
      const bool hot = options.hotspot_span > 0 &&
                       rng.Bernoulli(options.hotspot_fraction);
      const int64_t dst_bound =
          hot ? std::min<int64_t>(options.hotspot_span, range) : range;
      auto dst = static_cast<VertexId>(rng.Uniform(dst_bound));
      if (dst == src) dst = (dst + 1) % range;
      burst.events.push_back(EdgeEvent::AddEdge(src, dst));
      added.emplace_back(src, dst);
    }
    trace.bursts.push_back(std::move(burst));
  }
  return trace;
}

}  // namespace spinner::sim
