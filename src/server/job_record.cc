#include "server/job_record.h"

#include <cstdio>
#include <sstream>
#include <vector>

#include "util/format.h"
#include "util/parse.h"

namespace tpcp {

namespace {

/// Values travel one per whitespace-delimited token; escape the bytes
/// that would break that (and '%' itself).
std::string EscapeValue(const std::string& value) {
  std::string out;
  for (const char c : value) {
    if (c == ' ' || c == '%' || c == '\n' || c == '\r' || c == '\t') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeValue(const std::string& value) {
  std::string out;
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '%') {
      out.push_back(value[i]);
      continue;
    }
    if (i + 2 >= value.size()) {
      return Status::Corruption("truncated %-escape in job record value");
    }
    unsigned code = 0;
    for (int k = 1; k <= 2; ++k) {
      const char h = value[i + k];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else {
        return Status::Corruption("bad %-escape in job record value");
      }
    }
    out.push_back(static_cast<char>(code));
    i += 2;
  }
  return out;
}

void EmitField(const std::string& key, const std::string& value,
               std::string* out) {
  *out += key;
  out->push_back(' ');
  *out += EscapeValue(value);
  out->push_back('\n');
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

std::string EncodeServerJobRecord(const ServerJobRecord& record) {
  std::string out = "tpcpd-job 1\n";
  EmitField("id", std::to_string(record.id), &out);
  EmitField("tenant", record.tenant, &out);
  EmitField("name", record.name, &out);
  EmitField("priority", std::to_string(record.priority), &out);
  EmitField("seq", std::to_string(record.seq), &out);
  EmitField("state", ServerJobStateName(record.state), &out);
  EmitField("preemptions", std::to_string(record.preemptions), &out);
  EmitField("resumed", record.resumed ? "1" : "0", &out);
  if (!record.detail.empty()) EmitField("detail", record.detail, &out);
  EmitField("fit", RoundTripDouble(record.fit), &out);
  EmitField("solver", record.solver, &out);
  EmitField("session_uri", record.session_uri, &out);
  EmitField("budget_buffer", std::to_string(record.budget_buffer_bytes),
            &out);
  EmitField("budget_threads", std::to_string(record.budget_threads), &out);
  for (const auto& [key, value] : record.options) {
    out += "opt " + key + " " + EscapeValue(value) + "\n";
  }
  for (const auto& [key, value] : record.params) {
    out += "param " + key + " " + EscapeValue(value) + "\n";
  }
  out += "end\n";
  return out;
}

Result<ServerJobRecord> DecodeServerJobRecord(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "tpcpd-job 1") {
    return Status::Corruption("job record missing 'tpcpd-job 1' header");
  }
  ServerJobRecord record;
  record.solver.clear();
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      ended = true;
      break;
    }
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      return Status::Corruption("malformed job record line: '" + line + "'");
    }
    const std::string key = line.substr(0, sp);
    std::string raw = line.substr(sp + 1);
    if (key == "opt" || key == "param") {
      const size_t sp2 = raw.find(' ');
      if (sp2 == std::string::npos) {
        return Status::Corruption("malformed job record line: '" + line +
                                  "'");
      }
      const std::string sub = raw.substr(0, sp2);
      TPCP_ASSIGN_OR_RETURN(const std::string value,
                            UnescapeValue(raw.substr(sp2 + 1)));
      (key == "opt" ? record.options : record.params)[sub] = value;
      continue;
    }
    TPCP_ASSIGN_OR_RETURN(const std::string value, UnescapeValue(raw));
    int64_t number = 0;
    if (key == "id") {
      TPCP_ASSIGN_OR_RETURN(record.id, ParseInt64(value));
    } else if (key == "tenant") {
      record.tenant = value;
    } else if (key == "name") {
      record.name = value;
    } else if (key == "priority") {
      TPCP_ASSIGN_OR_RETURN(number, ParseInt64(value));
      record.priority = static_cast<int>(number);
    } else if (key == "seq") {
      TPCP_ASSIGN_OR_RETURN(record.seq, ParseInt64(value));
    } else if (key == "state") {
      TPCP_ASSIGN_OR_RETURN(record.state, ServerJobStateFromName(value));
    } else if (key == "preemptions") {
      TPCP_ASSIGN_OR_RETURN(number, ParseInt64(value));
      record.preemptions = static_cast<int>(number);
    } else if (key == "resumed") {
      TPCP_ASSIGN_OR_RETURN(record.resumed, ParseBool(value));
    } else if (key == "detail") {
      record.detail = value;
    } else if (key == "fit") {
      TPCP_ASSIGN_OR_RETURN(record.fit, ParseDouble(value));
    } else if (key == "solver") {
      record.solver = value;
    } else if (key == "session_uri") {
      record.session_uri = value;
    } else if (key == "budget_buffer") {
      TPCP_ASSIGN_OR_RETURN(record.budget_buffer_bytes, ParseUint64(value));
    } else if (key == "budget_threads") {
      TPCP_ASSIGN_OR_RETURN(number, ParseInt64(value));
      record.budget_threads = static_cast<int>(number);
    } else {
      // Unknown fields are skipped so older daemons read newer records.
    }
  }
  if (!ended) {
    return Status::Corruption("job record truncated (no 'end' trailer)");
  }
  if (record.id <= 0 || record.tenant.empty() || record.solver.empty()) {
    return Status::Corruption("job record missing id/tenant/solver");
  }
  return record;
}

}  // namespace tpcp
