/// \file scoped_env.hpp
/// \brief ScopedEnv: set an environment variable for one test scope.

#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace fhp::test {

/// Sets an environment variable for one scope, restoring the previous
/// value (or absence) on exit — the layout-matrix CI job runs the suites
/// with FLASHHP_LAYOUT already set.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) -- single-threaded test setup
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace fhp::test
