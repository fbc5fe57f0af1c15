#include "svc/protocol.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace prs::svc {
namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

int parse_job_id(const Request& req) {
  PRS_REQUIRE(req.args.size() == 1,
              req.verb + " takes exactly one operand (the job id)");
  int id = 0;
  const std::string& s = req.args[0];
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), id);
  PRS_REQUIRE(ec == std::errc() && p == s.data() + s.size(),
              "malformed job id '" + s + "'");
  return id;
}

}  // namespace

Request parse_request(const std::string& line) {
  auto tokens = split_ws(line);
  PRS_REQUIRE(!tokens.empty(), "empty request line");
  Request req;
  req.verb = tokens[0];
  for (char& c : req.verb) c = static_cast<char>(std::toupper(c));
  req.args.assign(tokens.begin() + 1, tokens.end());
  return req;
}

std::map<std::string, std::string> parse_kv_tokens(
    const std::vector<std::string>& tokens) {
  std::map<std::string, std::string> out;
  for (const std::string& tok : tokens) {
    auto eq = tok.find('=');
    PRS_REQUIRE(eq != std::string::npos && eq > 0,
                "malformed token '" + tok + "' (expected key=value)");
    out[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return out;
}

long header_field(const std::string& header, const std::string& key,
                  long fallback) {
  const std::string needle = " " + key + "=";
  auto pos = header.find(needle);
  if (pos == std::string::npos) return fallback;
  pos += needle.size();
  long value = fallback;
  auto end = header.find_first_of(" \n", pos);
  if (end == std::string::npos) end = header.size();
  std::from_chars(header.data() + pos, header.data() + end, value);
  return value;
}

std::string format_status_response(const JobStatus& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "OK id=%d state=%s tenant=%s app=%s stages=%d "
                "queue_wait=%.9g service=%.9g digest=%s lines=%zu",
                s.id, job_state_name(s.state), s.tenant.c_str(),
                s.spec.app.c_str(), s.stages, s.queue_wait, s.service,
                s.digest.empty() ? "-" : s.digest.c_str(), s.lines.size());
  std::string out = buf;
  if (!s.error.empty()) out += " error=" + s.error;  // last: may have spaces
  out += '\n';
  for (const std::string& line : s.lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string format_error(const std::string& code,
                         const std::string& message) {
  return "ERR code=" + code + " " + message + "\n";
}

std::string format_retry_after(int ms, const std::string& code,
                               const std::string& message) {
  return "RETRY-AFTER " + std::to_string(ms) + " code=" + code + " " +
         message + "\n";
}

std::string handle_request(JobServer& server, const std::string& line,
                           bool* shutdown) {
  try {
    Request req = parse_request(line);
    if (req.verb == "PING") {
      return "OK pong\n";
    }
    if (req.verb == "SUBMIT") {
      auto kv = parse_kv_tokens(req.args);
      auto tenant_it = kv.find("tenant");
      PRS_REQUIRE(tenant_it != kv.end(), "SUBMIT requires tenant=<name>");
      const std::string tenant = tenant_it->second;
      kv.erase(tenant_it);
      // dedup= is transport-level (idempotency key), not part of the spec.
      std::string dedup;
      auto dedup_it = kv.find("dedup");
      if (dedup_it != kv.end()) {
        dedup = dedup_it->second;
        kv.erase(dedup_it);
      }
      // A spec that does not parse (an unknown field or a malformed
      // value) is a bad spec, like one that fails validation at admission.
      JobSpec spec;
      try {
        spec = parse_job_spec(kv);
      } catch (const InvalidArgument& e) {
        return format_error(admit_code_name(AdmitCode::kBadSpec), e.what());
      }
      auto res = server.submit(tenant, std::move(spec), dedup);
      if (res.deduped) {
        return "OK id=" + std::to_string(res.job_id) + " deduped=1\n";
      }
      if (!res.ok()) {
        if (res.retry_after_ms > 0) {
          return format_retry_after(res.retry_after_ms,
                                    admit_code_name(res.decision.code),
                                    res.decision.message);
        }
        return format_error(admit_code_name(res.decision.code),
                            res.decision.message);
      }
      return "OK id=" + std::to_string(res.job_id) + "\n";
    }
    if (req.verb == "STATUS") {
      return format_status_response(server.status(parse_job_id(req)));
    }
    if (req.verb == "WAIT") {
      return format_status_response(server.wait(parse_job_id(req)));
    }
    if (req.verb == "CANCEL") {
      const bool did = server.cancel(parse_job_id(req));
      return std::string("OK cancelled=") + (did ? "1" : "0") + "\n";
    }
    if (req.verb == "STATS") {
      std::string json = server.metrics_json();
      if (!json.empty() && json.back() == '\n') json.pop_back();
      long lines = 1;
      for (char c : json) {
        if (c == '\n') ++lines;
      }
      return "OK lines=" + std::to_string(lines) + "\n" + json + "\n";
    }
    if (req.verb == "DRAIN") {
      server.drain();
      return "OK draining\n";
    }
    if (req.verb == "SHUTDOWN") {
      if (shutdown != nullptr) *shutdown = true;
      return "OK shutting-down\n";
    }
    return format_error("bad_request", "unknown verb '" + req.verb + "'");
  } catch (const prs::Error& e) {
    return format_error("bad_request", e.what());
  }
}

}  // namespace prs::svc
