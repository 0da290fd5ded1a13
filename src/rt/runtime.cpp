#include "rt/runtime.hpp"

#include <algorithm>

#include "support/runtime_params.hpp"

namespace fhp::rt {

void declare_runtime_params(RuntimeParams& params) {
  par::declare_runtime_params(params);
  mesh::declare_runtime_params(params);
  mem::declare_runtime_params(params);
}

RuntimeOptions apply_runtime_params(const RuntimeParams& params) {
  RuntimeOptions options;
  // The parameter's default already is the FLASHHP_THREADS resolution;
  // an explicit 0 or negative count means one lane, not a re-resolve.
  const long long lanes = params.get_int("par.threads");
  options.lanes = static_cast<int>(
      std::clamp<long long>(lanes, 1, par::kMaxLanes));
  options.layout = mesh::layout_from_params(params);
  options.policy = mem::policy_from_params(params);
  options.pool_config = mem::pool_config_from_params(params);
  return options;
}

Runtime::Runtime(RuntimeOptions options)
    : perf_(std::make_unique<perf::PerfContext>()),
      arena_(std::make_unique<par::ExecArena>(options.lanes, &env_)),
      timers_(arena_->lanes()),
      // Snapshot the configuration once: explicit option, else the
      // environment, so later env mutations cannot skew a constructed
      // tenant.
      layout_(options.layout.has_value() ? *options.layout
                                         : mesh::layout_from_environment()),
      policy_(options.policy.has_value() ? *options.policy
                                         : mem::policy_from_environment()),
      log_tag_(std::move(options.log_tag)) {
  if (options.pool != nullptr) {
    pool_ = options.pool;
  } else {
    owned_pool_ = std::make_unique<mem::PagePool>();
    if (options.pool_config) owned_pool_->init(std::move(*options.pool_config));
    pool_ = owned_pool_.get();
  }
  env_.log_tag = log_tag_.empty() ? nullptr : log_tag_.c_str();
  env_.trace_sink = &timers_;
}

Runtime::BindScope::BindScope(const Runtime& runtime)
    : sink_(runtime.env_.trace_sink) {
  if (!runtime.log_tag_.empty()) tag_.emplace(runtime.log_tag_.c_str());
}

}  // namespace fhp::rt
