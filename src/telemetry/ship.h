// Cross-process telemetry shipping: how a forked agent's metrics and
// spans reach the coordinator, and how the coordinator merges many
// per-agent islands into one manifest.
//
// Each transport agent owns an AgentTelemetry island — a private
// Registry plus a private SpanLog — recorded into unconditionally (the
// global telemetry switch is fork-inherited state, so gating on it would
// let the two backends diverge).  At collection time the island is
// captured as an AgentSnapshot.  An island that crosses a process
// boundary (the transport backends) is serialized to a deterministic
// JSON blob, shipped through the util::frame codec as a kTelemetry frame
// and parsed back on the coordinator; an island that stays in the
// coordinator's process (elastic::run_elastic) is handed over as the
// snapshot itself, with no JSON in between.
//
// The round trip is lossless for everything a manifest renders: numbers
// print with json_number (17 significant digits, exact for every
// double), and the one canonicalization — integer-valued attributes come
// back as int64 whatever their type — renders the same digits.  (The
// exception is a double attribute of -0, which comes back as 0; island
// code records no double attributes.)  So a merged manifest renders the
// same bytes whether its islands were captured directly or shipped, nd
// members included, and its stable projection is byte-identical across
// backends.
//
// The nd segregation mirrors the JSONL sink: wall-clock values
// (span timings, kUnstable metric values) serialize under "nd" members,
// and records whose very *occurrence* is timing-dependent carry
// "unstable":true.  stable_json_projection() strips both, yielding the
// canonical byte-comparable document.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace redopt::telemetry {

/// One agent's private telemetry island.  Serial within the agent; the
/// registry must outlive any thread that recorded into it (agents are
/// single-threaded, so this is trivially true).
struct AgentTelemetry {
  Registry registry;
  SpanLog spans;
};

/// A parsed (or locally captured) point-in-time view of one agent's
/// island — what the coordinator merges.
struct AgentSnapshot {
  std::uint32_t agent = 0;
  Snapshot metrics;  ///< name-sorted, like Registry::snapshot()
  std::vector<SpanRecord> spans;
  std::vector<InstantRecord> instants;
  std::uint64_t spans_dropped = 0;
};

/// Serializes @p snapshot as one deterministic JSON object.
///
/// Attribute values canonicalize on the round trip: integer-valued
/// attributes come back as int64 (uint64 attributes must fit — span
/// attribute authors use small values: rounds, agent ids, counts).
std::string serialize_agent_snapshot(const AgentSnapshot& snapshot);

/// Captures @p telemetry (registry snapshot + span log) as @p agent's
/// snapshot.  Serial-context only.
AgentSnapshot snapshot_agent_telemetry(std::uint32_t agent, const AgentTelemetry& telemetry);

/// serialize_agent_snapshot(snapshot_agent_telemetry(agent, telemetry)):
/// the blob a transport agent ships.  Serial-context only.
std::string serialize_agent_telemetry(std::uint32_t agent, const AgentTelemetry& telemetry);

/// Strict inverse of serialize_agent_snapshot; any malformed document
/// raises PreconditionError (the socket backend feeds this bytes that
/// crossed a process boundary).
AgentSnapshot parse_agent_snapshot(const std::string& json_text);

/// Merges per-agent metrics into @p coordinator under per-agent labels:
/// agent i's metric "replica.rounds" becomes "agent.<i>.replica.rounds".
/// The result is name-sorted like a Registry snapshot, so
/// render_prometheus() applies directly.
Snapshot merge_agent_snapshots(const Snapshot& coordinator,
                               const std::vector<AgentSnapshot>& agents);

/// Renders the unified manifest: the coordinator's metrics plus every
/// agent's full snapshot, as one JSON document.  Byte-identical across
/// backends and thread counts after stable_json_projection().
std::string render_merged_manifest(const Snapshot& coordinator,
                                   const std::vector<AgentSnapshot>& agents);

/// The canonical stable projection of a telemetry JSON document (a
/// merged manifest, an agent blob, or a Chrome trace): parses strictly,
/// removes every object member named "nd", "ts", or "dur", drops array
/// elements flagged "unstable":true, and re-serializes compactly.
std::string stable_json_projection(const std::string& json_text);

}  // namespace redopt::telemetry
