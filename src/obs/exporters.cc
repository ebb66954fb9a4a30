#include "obs/exporters.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>

namespace rhino::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

/// `name{a="x"}` with an extra label spliced in: `name{a="x",le="p99"}`.
std::string KeyWith(const std::string& name, const Labels& labels,
                    const std::string& extra_key,
                    const std::string& extra_value) {
  Labels all = labels;
  all[extra_key] = extra_value;
  return MetricsRegistry::KeyOf(name, all);
}

}  // namespace

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [key, inst] : registry.counters()) {
    out += key + " " + FormatU64(inst.metric.value()) + "\n";
  }
  for (const auto& [key, inst] : registry.gauges()) {
    out += key + " " + FormatDouble(inst.metric.value()) + "\n";
  }
  for (const auto& [key, inst] : registry.histograms()) {
    (void)key;
    const Histogram& h = inst.metric;
    out += MetricsRegistry::KeyOf(inst.name + "_count", inst.labels) + " " +
           FormatU64(h.count()) + "\n";
    out += MetricsRegistry::KeyOf(inst.name + "_sum", inst.labels) + " " +
           FormatI64(h.sum()) + "\n";
    out += KeyWith(inst.name, inst.labels, "quantile", "0.5") + " " +
           FormatI64(h.Percentile(50)) + "\n";
    out += KeyWith(inst.name, inst.labels, "quantile", "0.99") + " " +
           FormatI64(h.Percentile(99)) + "\n";
  }
  return out;
}

std::string MetricsToJson(const MetricsRegistry& registry) {
  std::string out = "{";
  bool first = true;
  auto add = [&](const std::string& key, const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + EscapeJson(key) + "\": " + value;
  };
  for (const auto& [key, inst] : registry.counters()) {
    add(key, FormatU64(inst.metric.value()));
  }
  for (const auto& [key, inst] : registry.gauges()) {
    add(key, FormatDouble(inst.metric.value()));
  }
  for (const auto& [key, inst] : registry.histograms()) {
    (void)key;
    const Histogram& h = inst.metric;
    add(MetricsRegistry::KeyOf(inst.name + "_count", inst.labels),
        FormatU64(h.count()));
    add(MetricsRegistry::KeyOf(inst.name + "_sum", inst.labels),
        FormatI64(h.sum()));
    add(KeyWith(inst.name, inst.labels, "quantile", "0.5"),
        FormatI64(h.Percentile(50)));
    add(KeyWith(inst.name, inst.labels, "quantile", "0.99"),
        FormatI64(h.Percentile(99)));
  }
  out += "\n}\n";
  return out;
}

std::string TraceToChromeJson(const TraceLog& trace) {
  // Stable scope -> tid mapping, in first-seen order.
  std::map<std::string, int> tids;
  for (const TraceEvent& ev : trace.events()) {
    if (!tids.count(ev.scope)) {
      int tid = static_cast<int>(tids.size()) + 1;
      tids[ev.scope] = tid;
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& obj) {
    if (!first) out += ",";
    first = false;
    out += "\n" + obj;
  };
  for (const auto& [scope, tid] : tids) {
    append("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           EscapeJson(scope) + "\"}}");
  }
  for (const TraceEvent& ev : trace.events()) {
    std::string obj = "{\"name\":\"" + EscapeJson(ev.name) + "\",\"cat\":\"" +
                      EscapeJson(ev.category) +
                      "\",\"pid\":1,\"tid\":" + std::to_string(tids[ev.scope]) +
                      ",\"ts\":" + FormatI64(ev.time_us);
    if (ev.is_span()) {
      // Open spans (aborted protocols) render with zero duration.
      SimTime dur = ev.duration_us >= 0 ? ev.duration_us : 0;
      obj += ",\"ph\":\"X\",\"dur\":" + FormatI64(dur);
    } else {
      obj += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    obj += ",\"args\":{\"id\":" + FormatU64(ev.id);
    for (const auto& [k, v] : ev.args) {
      obj += ",\"" + EscapeJson(k) + "\":" + FormatI64(v);
    }
    obj += "}}";
    append(obj);
  }
  out += "\n]}\n";
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  file << content;
  file.close();
  if (!file.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace rhino::obs
