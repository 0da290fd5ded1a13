/// \file runtime_params.hpp
/// \brief FLASH-style runtime parameter registry and flash.par parser.
///
/// FLASH configures a run from a `flash.par` file of `name = value` lines,
/// against a registry of declared parameters with defaults. RuntimeParams
/// mirrors that: modules declare parameters (with documentation strings),
/// a parameter file or command line overrides them, and typed getters
/// retrieve the effective values. Names are case-insensitive, as in FLASH.

#pragma once

#include <climits>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace fhp {

/// Registry of typed runtime parameters.
class RuntimeParams {
 public:
  using Value = std::variant<bool, long long, double, std::string>;

  /// Declare a parameter with a default. Re-declaring with the same type is
  /// idempotent; re-declaring with a different type throws ConfigError.
  void declare_bool(std::string_view name, bool def, std::string_view doc = {});
  void declare_int(std::string_view name, long long def, std::string_view doc = {});
  void declare_real(std::string_view name, double def, std::string_view doc = {});
  void declare_string(std::string_view name, std::string_view def,
                      std::string_view doc = {});

  /// Typed getters. Throw ConfigError if the parameter is unknown or has a
  /// different type. get_real also accepts integer-typed values (promoted).
  [[nodiscard]] bool get_bool(std::string_view name) const;
  [[nodiscard]] long long get_int(std::string_view name) const;
  [[nodiscard]] double get_real(std::string_view name) const;
  [[nodiscard]] std::string get_string(std::string_view name) const;

  /// Typed setters; the parameter must have been declared.
  void set_int(std::string_view name, long long value);
  void set_real(std::string_view name, double value);

  /// Assign from a textual value, inferring conversion from the declared
  /// type. Used by the file parser and --name=value command lines.
  void set_from_string(std::string_view name, std::string_view text);

  /// True if \p name has been declared.
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Parse a flash.par-style file: `name = value` lines, `#` comments,
  /// quoted strings. Unknown names throw ConfigError (FLASH warns; we are
  /// stricter) unless \p allow_unknown, in which case they are declared as
  /// strings on the fly.
  void read_file(const std::string& path, bool allow_unknown = false);

  /// Parse parameter text directly (same grammar as read_file).
  void read_string(std::string_view text, bool allow_unknown = false,
                   std::string_view origin = "<string>");

  /// Apply `--name=value` style argv overrides; returns the positional args.
  std::vector<std::string> apply_command_line(int argc, const char* const* argv);

  /// Write all parameters (sorted) with values, defaults and docs.
  void dump(std::ostream& os) const;

  /// Names of all declared parameters, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  struct Entry {
    Value value;
    Value default_value;
    std::string doc;
  };
  [[nodiscard]] const Entry& find(std::string_view name) const;
  [[nodiscard]] Entry& find(std::string_view name);
  void declare(std::string_view name, Value def, std::string_view doc);

  std::map<std::string, Entry> entries_;  // key: lower-cased name
};

/// The integer setting in environment variable \p var: \p fallback when
/// unset or empty, else a positive base-10 integer clamped to
/// \p ceiling — a value too large for any integer type clamps too,
/// never wraps. Throws ConfigError naming \p var on anything else.
[[nodiscard]] int positive_int_from_environment(const char* var, int fallback,
                                                int ceiling = INT_MAX);

}  // namespace fhp
