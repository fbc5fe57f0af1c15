#include "svc/job_spec.hpp"

#include "common/error.hpp"
#include "simdev/device_spec.hpp"

namespace prs::svc {
namespace {

/// A field's wire text: the inverse of parse_wire_value.
template <typename T>
std::string wire_text(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else {
    return std::to_string(v);
  }
}

bool known_app(const std::string& a) {
  return a == "cmeans" || a == "kmeans" || a == "gmm" || a == "gemv" ||
         a == "dgemm" || a == "fft" || a == "wordcount" || a == "stencil";
}

}  // namespace

core::NodeConfig JobSpec::node_config() const {
  core::NodeConfig cfg;
  if (testbed == "bigred2") {
    cfg.cpu = simdev::bigred2_cpu();
    cfg.gpu = simdev::bigred2_k20();
  } else if (testbed == "phi") {
    cfg.gpu = simdev::xeon_phi_5110p();
  }
  cfg.gpus_per_node = gpus;
  return cfg;
}

core::JobConfig JobSpec::job_config() const {
  core::JobConfig cfg;
  cfg.mode = functional ? core::ExecutionMode::kFunctional
                        : core::ExecutionMode::kModeled;
  cfg.use_cpu = !gpu_only;
  cfg.use_gpu = !cpu_only;
  cfg.cpu_fraction_override = cpu_fraction;
  cfg.pipeline_depth = pipeline_depth;
  return cfg;
}

void JobSpec::validate() const {
  if (!known_app(app)) {
    throw InvalidArgument("unknown app '" + app +
                          "' (cmeans|kmeans|gmm|gemv|dgemm|fft|wordcount|"
                          "stencil)");
  }
  if (testbed != "delta" && testbed != "bigred2" && testbed != "phi") {
    throw InvalidArgument("unknown testbed '" + testbed + "'");
  }
  if (policy != "static" && policy != "dynamic" && policy != "adaptive") {
    throw InvalidArgument("unknown policy '" + policy + "'");
  }
  if (nodes < 1) throw InvalidArgument("nodes must be >= 1");
  if (gpus < 0) throw InvalidArgument("gpus must be >= 0");
  if (points == 0) throw InvalidArgument("points must be >= 1");
  if (dims == 0) throw InvalidArgument("dims must be >= 1");
  if (clusters < 1) throw InvalidArgument("clusters must be >= 1");
  if (iterations < 1) throw InvalidArgument("iterations must be >= 1");
  if (rows == 0 || cols == 0) throw InvalidArgument("rows/cols must be >= 1");
  if (gpu_only && cpu_only) {
    throw InvalidArgument("gpu_only and cpu_only are mutually exclusive");
  }
  if (gpu_only && gpus == 0) {
    throw InvalidArgument("gpu_only requires gpus >= 1");
  }
  // Negative keeps the analytic split; NaN fails the comparison.
  if (!(cpu_fraction <= 1.0)) {
    throw InvalidArgument("cpu_fraction must be in [0,1]");
  }
  if (checkpoint_every < 1) {
    throw InvalidArgument("checkpoint_every must be >= 1");
  }
  if ((checkpoint_every != 1 || resume) && checkpoint_dir.empty()) {
    throw InvalidArgument("checkpoint_every/resume require checkpoint_dir");
  }
  if (!checkpoint_dir.empty()) {
    if (app != "cmeans" && app != "kmeans" && app != "gmm" &&
        app != "stencil") {
      throw InvalidArgument(
          "checkpointing supports the iterative apps only");
    }
    if (!functional) {
      throw InvalidArgument("checkpointing requires functional mode");
    }
  }
  if (app == "stencil" && !functional) {
    throw InvalidArgument("stencil requires functional mode");
  }
  if (pipeline_depth < 1 || pipeline_depth > 64) {
    throw InvalidArgument("pipeline_depth must be in [1,64]");
  }
  if (pipeline_depth > 1 && policy == "dynamic") {
    throw InvalidArgument(
        "pipeline_depth > 1 requires a static-dispatch policy "
        "(static|adaptive), not policy=dynamic");
  }
}

std::string JobSpec::to_tokens() const {
  const JobSpec def;
  std::string out;
  visit_job_spec_fields2(
      *this, def, [&out](const char* key, const auto& v, const auto& d) {
        if (v == d) return;
        if (!out.empty()) out += ' ';
        out += key;
        out += '=';
        out += wire_text(v);
      });
  return out;
}

FieldParse apply_job_spec_field(JobSpec& spec, const std::string& key,
                                const std::string& value) {
  const std::string field = key == "lines" || key == "signals" ? "points"
                            : key == "components"              ? "clusters"
                                                               : key;
  FieldParse result = FieldParse::kUnknownKey;
  visit_job_spec_fields(spec, [&](const char* name, auto& f) {
    if (field != name) return;
    result = parse_wire_value(value, f) ? FieldParse::kOk
                                        : FieldParse::kBadValue;
  });
  return result;
}

JobSpec parse_job_spec(const std::map<std::string, std::string>& fields) {
  JobSpec spec;
  for (const auto& [k, v] : fields) {
    switch (apply_job_spec_field(spec, k, v)) {
      case FieldParse::kOk:
        break;
      case FieldParse::kUnknownKey:
        throw InvalidArgument("unknown job field: " + k);
      case FieldParse::kBadValue:
        throw InvalidArgument("invalid value for job field " + k + ": " + v);
    }
  }
  // Deliberately no validate() here: a well-formed SUBMIT describing a bad
  // job is an admission decision (code=bad_spec), not a protocol error.
  return spec;
}

JobSpec parse_job_spec_tokens(const std::string& tokens) {
  std::map<std::string, std::string> fields;
  std::size_t pos = 0;
  while (pos < tokens.size()) {
    auto sp = tokens.find(' ', pos);
    if (sp == std::string::npos) sp = tokens.size();
    const std::string tok = tokens.substr(pos, sp - pos);
    pos = sp + 1;
    if (tok.empty()) continue;
    auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InvalidArgument("malformed job spec token '" + tok + "'");
    }
    fields[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return parse_job_spec(fields);
}

}  // namespace prs::svc
