#include "server/job_record.h"

#include <limits>

namespace tpcp {

namespace {

JsonValue StringMapToJson(const std::map<std::string, std::string>& map) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : map) out.Set(key, value);
  return out;
}

/// `object[key]` as an int, or `fallback` when absent.
Result<int> GetInt32Or(const JsonValue& object, const std::string& key,
                       int fallback) {
  TPCP_ASSIGN_OR_RETURN(const int64_t value, GetIntOr(object, key, fallback));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("field '" + key + "' is out of range");
  }
  return static_cast<int>(value);
}

Result<ServerJobRecord> ReadRecord(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::InvalidArgument("not a JSON object");
  }
  ServerJobRecord record;
  TPCP_ASSIGN_OR_RETURN(record.id, GetInt(object, "id"));
  TPCP_ASSIGN_OR_RETURN(record.tenant, GetString(object, "tenant"));
  TPCP_ASSIGN_OR_RETURN(record.solver, GetString(object, "solver"));
  if (record.id <= 0 || record.tenant.empty() || record.solver.empty()) {
    return Status::InvalidArgument("missing id/tenant/solver");
  }
  TPCP_ASSIGN_OR_RETURN(const std::string state, GetString(object, "state"));
  TPCP_ASSIGN_OR_RETURN(record.state, ServerJobStateFromName(state));
  TPCP_ASSIGN_OR_RETURN(record.name, GetStringOr(object, "name", ""));
  TPCP_ASSIGN_OR_RETURN(record.priority, GetInt32Or(object, "priority", 0));
  TPCP_ASSIGN_OR_RETURN(record.seq, GetIntOr(object, "seq", 0));
  TPCP_ASSIGN_OR_RETURN(record.preemptions,
                        GetInt32Or(object, "preemptions", 0));
  TPCP_ASSIGN_OR_RETURN(record.resumed, GetBoolOr(object, "resumed", false));
  TPCP_ASSIGN_OR_RETURN(record.detail, GetStringOr(object, "detail", ""));
  // The serializer writes a non-finite fit as null.
  const JsonValue* fit = object.Find("fit");
  if (fit != nullptr && fit->is_null()) {
    record.fit = std::numeric_limits<double>::quiet_NaN();
  } else {
    TPCP_ASSIGN_OR_RETURN(record.fit, GetDoubleOr(object, "fit", 0.0));
  }
  TPCP_ASSIGN_OR_RETURN(record.session_uri,
                        GetStringOr(object, "session_uri", ""));
  TPCP_ASSIGN_OR_RETURN(const int64_t buffer,
                        GetIntOr(object, "budget_buffer_bytes", 0));
  if (buffer < 0) {
    return Status::InvalidArgument("field 'budget_buffer_bytes' is negative");
  }
  record.budget_buffer_bytes = static_cast<uint64_t>(buffer);
  TPCP_ASSIGN_OR_RETURN(record.budget_threads,
                        GetInt32Or(object, "budget_threads", 0));
  TPCP_ASSIGN_OR_RETURN(record.options, GetStringMap(object, "options"));
  TPCP_ASSIGN_OR_RETURN(record.params, GetStringMap(object, "params"));
  return record;
}

}  // namespace

const char* ServerJobStateName(ServerJobState state) {
  switch (state) {
    case ServerJobState::kQueued:
      return "queued";
    case ServerJobState::kRunning:
      return "running";
    case ServerJobState::kPreempted:
      return "preempted";
    case ServerJobState::kSucceeded:
      return "succeeded";
    case ServerJobState::kFailed:
      return "failed";
    case ServerJobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Result<ServerJobState> ServerJobStateFromName(const std::string& name) {
  for (const ServerJobState state :
       {ServerJobState::kQueued, ServerJobState::kRunning,
        ServerJobState::kPreempted, ServerJobState::kSucceeded,
        ServerJobState::kFailed, ServerJobState::kCancelled}) {
    if (name == ServerJobStateName(state)) return state;
  }
  return Status::InvalidArgument("unknown job state '" + name + "'");
}

JsonValue JobRecordToJson(const ServerJobRecord& record) {
  JsonValue out = JsonValue::Object();
  out.Set("id", record.id);
  out.Set("tenant", record.tenant);
  out.Set("name", record.name);
  out.Set("priority", record.priority);
  out.Set("seq", record.seq);
  out.Set("state", ServerJobStateName(record.state));
  out.Set("preemptions", record.preemptions);
  out.Set("resumed", record.resumed);
  out.Set("fit", record.fit);
  out.Set("solver", record.solver);
  out.Set("session_uri", record.session_uri);
  out.Set("budget_buffer_bytes", record.budget_buffer_bytes);
  out.Set("budget_threads", record.budget_threads);
  if (!record.detail.empty()) out.Set("detail", record.detail);
  out.Set("options", StringMapToJson(record.options));
  out.Set("params", StringMapToJson(record.params));
  return out;
}

Result<ServerJobRecord> DecodeServerJobRecord(const std::string& text) {
  const Result<JsonValue> parsed = JsonValue::Parse(text);
  Result<ServerJobRecord> record =
      parsed.ok() ? ReadRecord(*parsed)
                  : Result<ServerJobRecord>(parsed.status());
  if (!record.ok()) {
    return Status::Corruption("bad job record: " + record.status().message());
  }
  return record;
}

}  // namespace tpcp
