#include "telemetry/ship.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <variant>

#include "util/error.h"
#include "util/json.h"

namespace redopt::telemetry {

namespace {

void append_value(std::string& out, const Value& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    out += std::to_string(*i);
  } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    out += std::to_string(*u);
  } else if (const auto* d = std::get_if<double>(&value)) {
    out += util::json_number(*d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out += *b ? "true" : "false";
  } else {
    out += '"';
    out += util::json_escape(std::get<std::string>(value));
    out += '"';
  }
}

void append_attrs(std::string& out, const std::vector<std::pair<std::string, Value>>& attrs) {
  out += "\"attrs\":{";
  bool first = true;
  for (const auto& [key, value] : attrs) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += util::json_escape(key);
    out += "\":";
    append_value(out, value);
  }
  out += '}';
}

void append_number_array(std::string& out, const char* key, const std::vector<double>& values) {
  out += '"';
  out += key;
  out += "\":[";
  bool first = true;
  for (double v : values) {
    if (!first) out += ',';
    first = false;
    out += util::json_number(v);
  }
  out += ']';
}

void append_count_array(std::string& out, const char* key,
                        const std::vector<std::uint64_t>& values) {
  out += '"';
  out += key;
  out += "\":[";
  bool first = true;
  for (std::uint64_t v : values) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(v);
  }
  out += ']';
}

/// The histogram value members (everything that depends on the observed
/// data, as opposed to the registered layout).
void append_histogram_values(std::string& out, const MetricValue& m) {
  append_count_array(out, "buckets", m.bucket_counts);
  out += ",\"overflow\":" + std::to_string(m.overflow_count);
  out += ",\"count\":" + std::to_string(m.count);
  out += ",\"sum\":" + util::json_number(m.sum);
  if (m.count > 0) {
    out += ",\"min\":" + util::json_number(m.min);
    out += ",\"max\":" + util::json_number(m.max);
  }
}

void append_metric(std::string& out, const MetricValue& m) {
  const bool unstable = m.determinism == Determinism::kUnstable;
  out += "{\"name\":\"";
  out += util::json_escape(m.name);
  out += "\",\"kind\":\"";
  switch (m.kind) {
    case MetricValue::Kind::kCounter:
      out += "counter\",";
      if (unstable) {
        out += "\"nd\":{\"value\":" + std::to_string(m.counter) + '}';
      } else {
        out += "\"value\":" + std::to_string(m.counter);
      }
      break;
    case MetricValue::Kind::kGauge:
      out += "gauge\",";
      if (unstable) {
        out += "\"nd\":{\"value\":" + util::json_number(m.gauge) + '}';
      } else {
        out += "\"value\":" + util::json_number(m.gauge);
      }
      break;
    case MetricValue::Kind::kHistogram:
      out += "histogram\",";
      append_number_array(out, "bounds", m.upper_bounds);
      out += ',';
      if (unstable) {
        out += "\"nd\":{";
        append_histogram_values(out, m);
        out += '}';
      } else {
        append_histogram_values(out, m);
      }
      break;
  }
  out += '}';
}

void append_span(std::string& out, const SpanRecord& span) {
  out += "{\"id\":" + std::to_string(span.id);
  out += ",\"parent\":" + std::to_string(span.parent);
  out += ",\"name\":\"" + util::json_escape(span.name) + "\",";
  append_attrs(out, span.attributes);
  out += span.closed ? ",\"closed\":true" : ",\"closed\":false";
  out += ",\"nd\":{\"start_s\":" + util::json_number(span.start_s);
  out += ",\"dur_s\":" + util::json_number(span.duration_s) + "}}";
}

void append_instant(std::string& out, const InstantRecord& instant) {
  out += "{\"span\":" + std::to_string(instant.span);
  out += ",\"name\":\"" + util::json_escape(instant.name) + "\",";
  append_attrs(out, instant.attributes);
  if (instant.determinism == Determinism::kUnstable) out += ",\"unstable\":true";
  out += ",\"nd\":{\"at_s\":" + util::json_number(instant.at_s) + "}}";
}

// ---------------------------------------------------------------- parsing

Value parse_value(const util::JsonValue& v) {
  switch (v.kind) {
    case util::JsonValue::Kind::kBool:
      return v.boolean;
    case util::JsonValue::Kind::kString:
      return v.string;
    case util::JsonValue::Kind::kNumber:
      if (v.has_integer) return v.integer;
      return v.number;
    case util::JsonValue::Kind::kNull:
      // json_number spells non-finite doubles as null.
      return std::numeric_limits<double>::quiet_NaN();
    default:
      REDOPT_REQUIRE(false, "telemetry blob: attribute value must be a scalar");
      return false;  // unreachable
  }
}

std::vector<std::pair<std::string, Value>> parse_attrs(const util::JsonValue& entry) {
  const util::JsonValue& attrs = entry.at("attrs");
  REDOPT_REQUIRE(attrs.kind == util::JsonValue::Kind::kObject,
                 "telemetry blob: attrs must be an object");
  std::vector<std::pair<std::string, Value>> out;
  out.reserve(attrs.members.size());
  for (const auto& [key, value] : attrs.members) out.emplace_back(key, parse_value(value));
  return out;
}

std::uint64_t parse_u64(const util::JsonValue& v) {
  return static_cast<std::uint64_t>(v.as_int(0, std::numeric_limits<std::int64_t>::max()));
}

void parse_histogram_values(const util::JsonValue& holder, MetricValue& m) {
  const util::JsonValue& buckets = holder.at("buckets");
  for (const util::JsonValue& b : buckets.as_array()) m.bucket_counts.push_back(parse_u64(b));
  REDOPT_REQUIRE(m.bucket_counts.size() == m.upper_bounds.size(),
                 "telemetry blob: histogram bucket/bound count mismatch");
  m.overflow_count = parse_u64(holder.at("overflow"));
  m.count = parse_u64(holder.at("count"));
  m.sum = holder.at("sum").as_number();
  if (m.count > 0) {
    m.min = holder.at("min").as_number();
    m.max = holder.at("max").as_number();
  }
}

MetricValue parse_metric(const util::JsonValue& entry) {
  MetricValue m;
  m.name = entry.at("name").as_string();
  const std::string& kind = entry.at("kind").as_string();
  const util::JsonValue* nd = entry.find("nd");
  m.determinism = nd != nullptr ? Determinism::kUnstable : Determinism::kStable;
  if (kind == "counter") {
    m.kind = MetricValue::Kind::kCounter;
    m.counter = parse_u64(nd != nullptr ? nd->at("value") : entry.at("value"));
  } else if (kind == "gauge") {
    m.kind = MetricValue::Kind::kGauge;
    m.gauge = (nd != nullptr ? nd->at("value") : entry.at("value")).as_number();
  } else if (kind == "histogram") {
    m.kind = MetricValue::Kind::kHistogram;
    for (const util::JsonValue& b : entry.at("bounds").as_array()) {
      m.upper_bounds.push_back(b.as_number());
    }
    parse_histogram_values(nd != nullptr ? *nd : entry, m);
  } else {
    REDOPT_REQUIRE(false, "telemetry blob: unknown metric kind: " + kind);
  }
  return m;
}

SpanRecord parse_span(const util::JsonValue& entry) {
  SpanRecord span;
  span.id = parse_u64(entry.at("id"));
  span.parent = parse_u64(entry.at("parent"));
  span.name = entry.at("name").as_string();
  span.attributes = parse_attrs(entry);
  span.closed = entry.at("closed").as_bool();
  const util::JsonValue& nd = entry.at("nd");
  span.start_s = nd.at("start_s").as_number();
  span.duration_s = nd.at("dur_s").as_number();
  return span;
}

InstantRecord parse_instant(const util::JsonValue& entry) {
  InstantRecord instant;
  instant.span = parse_u64(entry.at("span"));
  instant.name = entry.at("name").as_string();
  instant.attributes = parse_attrs(entry);
  const util::JsonValue* unstable = entry.find("unstable");
  instant.determinism = unstable != nullptr && unstable->as_bool() ? Determinism::kUnstable
                                                                   : Determinism::kStable;
  instant.at_s = entry.at("nd").at("at_s").as_number();
  return instant;
}

}  // namespace

std::string serialize_agent_snapshot(const AgentSnapshot& snapshot) {
  std::string out = "{\"v\":1,\"agent\":" + std::to_string(snapshot.agent);
  out += ",\"spans_dropped\":" + std::to_string(snapshot.spans_dropped);
  out += ",\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : snapshot.metrics) {
    if (!first) out += ',';
    first = false;
    append_metric(out, m);
  }
  out += "],\"spans\":[";
  first = true;
  for (const SpanRecord& span : snapshot.spans) {
    if (!first) out += ',';
    first = false;
    append_span(out, span);
  }
  out += "],\"instants\":[";
  first = true;
  for (const InstantRecord& instant : snapshot.instants) {
    if (!first) out += ',';
    first = false;
    append_instant(out, instant);
  }
  out += "]}";
  return out;
}

AgentSnapshot snapshot_agent_telemetry(std::uint32_t agent, const AgentTelemetry& telemetry) {
  AgentSnapshot snapshot;
  snapshot.agent = agent;
  snapshot.metrics = telemetry.registry.snapshot();
  snapshot.spans = telemetry.spans.spans();
  snapshot.instants = telemetry.spans.instants();
  snapshot.spans_dropped = telemetry.spans.dropped();
  return snapshot;
}

std::string serialize_agent_telemetry(std::uint32_t agent, const AgentTelemetry& telemetry) {
  return serialize_agent_snapshot(snapshot_agent_telemetry(agent, telemetry));
}

AgentSnapshot parse_agent_snapshot(const std::string& json_text) {
  const util::JsonValue doc = util::json_parse(json_text);
  REDOPT_REQUIRE(doc.kind == util::JsonValue::Kind::kObject,
                 "telemetry blob: document must be an object");
  REDOPT_REQUIRE(doc.at("v").as_int(1, 1) == 1, "telemetry blob: unsupported version");

  AgentSnapshot snapshot;
  snapshot.agent =
      static_cast<std::uint32_t>(doc.at("agent").as_int(0, std::numeric_limits<std::uint32_t>::max()));
  snapshot.spans_dropped = parse_u64(doc.at("spans_dropped"));
  for (const util::JsonValue& entry : doc.at("metrics").as_array()) {
    snapshot.metrics.push_back(parse_metric(entry));
  }
  for (const util::JsonValue& entry : doc.at("spans").as_array()) {
    snapshot.spans.push_back(parse_span(entry));
  }
  for (const util::JsonValue& entry : doc.at("instants").as_array()) {
    snapshot.instants.push_back(parse_instant(entry));
  }
  return snapshot;
}

Snapshot merge_agent_snapshots(const Snapshot& coordinator,
                               const std::vector<AgentSnapshot>& agents) {
  Snapshot merged = coordinator;
  for (const AgentSnapshot& agent : agents) {
    const std::string prefix = "agent." + std::to_string(agent.agent) + ".";
    for (MetricValue m : agent.metrics) {
      m.name = prefix + m.name;
      merged.push_back(std::move(m));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return merged;
}

std::string render_merged_manifest(const Snapshot& coordinator,
                                   const std::vector<AgentSnapshot>& agents) {
  std::string out = "{\"v\":1,\"coordinator\":{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : coordinator) {
    if (!first) out += ',';
    first = false;
    append_metric(out, m);
  }
  out += "]},\"agents\":[";
  first = true;
  for (const AgentSnapshot& agent : agents) {
    if (!first) out += ',';
    first = false;
    out += serialize_agent_snapshot(agent);
  }
  out += "]}";
  return out;
}

namespace {

bool is_unstable_element(const util::JsonValue& v) {
  if (v.kind != util::JsonValue::Kind::kObject) return false;
  const util::JsonValue* unstable = v.find("unstable");
  return unstable != nullptr && unstable->kind == util::JsonValue::Kind::kBool &&
         unstable->boolean;
}

void strip_unstable(util::JsonValue& v) {
  if (v.kind == util::JsonValue::Kind::kObject) {
    std::vector<std::pair<std::string, util::JsonValue>> kept;
    kept.reserve(v.members.size());
    for (auto& [key, member] : v.members) {
      if (key == "nd" || key == "ts" || key == "dur") continue;
      strip_unstable(member);
      kept.emplace_back(key, std::move(member));
    }
    v.members = std::move(kept);
  } else if (v.kind == util::JsonValue::Kind::kArray) {
    std::vector<util::JsonValue> kept;
    kept.reserve(v.items.size());
    for (util::JsonValue& item : v.items) {
      if (is_unstable_element(item)) continue;
      strip_unstable(item);
      kept.push_back(std::move(item));
    }
    v.items = std::move(kept);
  }
}

}  // namespace

std::string stable_json_projection(const std::string& json_text) {
  util::JsonValue doc = util::json_parse(json_text);
  strip_unstable(doc);
  return util::json_serialize(doc);
}

}  // namespace redopt::telemetry
