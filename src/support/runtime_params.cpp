#include "support/runtime_params.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/string_util.hpp"

namespace fhp {

namespace {

const char* type_name(const RuntimeParams::Value& v) {
  switch (v.index()) {
    case 0: return "bool";
    case 1: return "int";
    case 2: return "real";
    case 3: return "string";
  }
  return "?";
}

std::string value_to_string(const RuntimeParams::Value& v) {
  std::ostringstream os;
  switch (v.index()) {
    case 0: os << (std::get<bool>(v) ? ".true." : ".false."); break;
    case 1: os << std::get<long long>(v); break;
    case 2: os << std::get<double>(v); break;
    case 3: os << '"' << std::get<std::string>(v) << '"'; break;
  }
  return os.str();
}

}  // namespace

void RuntimeParams::declare(std::string_view name, Value def,
                            std::string_view doc) {
  const std::string key = to_lower(name);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    FHP_REQUIRE(it->second.default_value.index() == def.index(),
                "parameter '" + key + "' re-declared with a different type");
    return;  // idempotent re-declaration keeps any existing override
  }
  entries_.emplace(key, Entry{def, def, std::string(doc)});
}

void RuntimeParams::declare_bool(std::string_view n, bool d, std::string_view doc) {
  declare(n, Value(d), doc);
}
void RuntimeParams::declare_int(std::string_view n, long long d,
                                std::string_view doc) {
  declare(n, Value(d), doc);
}
void RuntimeParams::declare_real(std::string_view n, double d,
                                 std::string_view doc) {
  declare(n, Value(d), doc);
}
void RuntimeParams::declare_string(std::string_view n, std::string_view d,
                                   std::string_view doc) {
  declare(n, Value(std::string(d)), doc);
}

const RuntimeParams::Entry& RuntimeParams::find(std::string_view name) const {
  auto it = entries_.find(to_lower(name));
  if (it == entries_.end()) {
    throw ConfigError("unknown runtime parameter '" + std::string(name) + "'");
  }
  return it->second;
}

RuntimeParams::Entry& RuntimeParams::find(std::string_view name) {
  return const_cast<Entry&>(
      static_cast<const RuntimeParams*>(this)->find(name));
}

bool RuntimeParams::get_bool(std::string_view name) const {
  const Entry& e = find(name);
  if (const bool* b = std::get_if<bool>(&e.value)) return *b;
  throw ConfigError("parameter '" + std::string(name) + "' is " +
                    type_name(e.value) + ", not bool");
}

long long RuntimeParams::get_int(std::string_view name) const {
  const Entry& e = find(name);
  if (const long long* i = std::get_if<long long>(&e.value)) return *i;
  throw ConfigError("parameter '" + std::string(name) + "' is " +
                    type_name(e.value) + ", not int");
}

double RuntimeParams::get_real(std::string_view name) const {
  const Entry& e = find(name);
  if (const double* r = std::get_if<double>(&e.value)) return *r;
  if (const long long* i = std::get_if<long long>(&e.value)) {
    return static_cast<double>(*i);
  }
  throw ConfigError("parameter '" + std::string(name) + "' is " +
                    type_name(e.value) + ", not real");
}

std::string RuntimeParams::get_string(std::string_view name) const {
  const Entry& e = find(name);
  if (const std::string* s = std::get_if<std::string>(&e.value)) return *s;
  throw ConfigError("parameter '" + std::string(name) + "' is " +
                    type_name(e.value) + ", not string");
}

void RuntimeParams::set_int(std::string_view n, long long v) {
  Entry& e = find(n);
  FHP_REQUIRE(std::holds_alternative<long long>(e.value), "type mismatch: int");
  e.value = v;
}
void RuntimeParams::set_real(std::string_view n, double v) {
  Entry& e = find(n);
  FHP_REQUIRE(std::holds_alternative<double>(e.value), "type mismatch: real");
  e.value = v;
}

void RuntimeParams::set_from_string(std::string_view name,
                                    std::string_view text) {
  Entry& e = find(name);
  text = trim(text);
  switch (e.value.index()) {
    case 0: {
      auto b = parse_bool(text);
      if (!b) {
        throw ConfigError("parameter '" + std::string(name) +
                          "': cannot parse '" + std::string(text) +
                          "' as bool");
      }
      e.value = *b;
      break;
    }
    case 1: {
      auto i = parse_int(text);
      if (!i) {
        throw ConfigError("parameter '" + std::string(name) +
                          "': cannot parse '" + std::string(text) +
                          "' as int");
      }
      e.value = *i;
      break;
    }
    case 2: {
      auto r = parse_real(text);
      if (!r) {
        throw ConfigError("parameter '" + std::string(name) +
                          "': cannot parse '" + std::string(text) +
                          "' as real");
      }
      e.value = *r;
      break;
    }
    case 3: {
      // Strip one layer of matching quotes if present.
      if (text.size() >= 2 &&
          ((text.front() == '"' && text.back() == '"') ||
           (text.front() == '\'' && text.back() == '\''))) {
        text = text.substr(1, text.size() - 2);
      }
      e.value = std::string(text);
      break;
    }
  }
}

bool RuntimeParams::contains(std::string_view name) const {
  return entries_.count(to_lower(name)) != 0;
}

void RuntimeParams::read_string(std::string_view text, bool allow_unknown,
                                std::string_view origin) {
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view sv = line;
    // Strip comments, but not inside quoted strings.
    bool in_quote = false;
    char quote = 0;
    size_t comment = sv.size();
    for (size_t i = 0; i < sv.size(); ++i) {
      char c = sv[i];
      if (in_quote) {
        if (c == quote) in_quote = false;
      } else if (c == '"' || c == '\'') {
        in_quote = true;
        quote = c;
      } else if (c == '#') {
        comment = i;
        break;
      }
    }
    sv = trim(sv.substr(0, comment));
    if (sv.empty()) continue;
    const size_t eq = sv.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError(std::string(origin) + ':' + std::to_string(lineno) +
                        ": expected 'name = value', got '" + std::string(sv) +
                        "'");
    }
    const std::string_view name = trim(sv.substr(0, eq));
    const std::string_view value = trim(sv.substr(eq + 1));
    if (name.empty() || value.empty()) {
      throw ConfigError(std::string(origin) + ':' + std::to_string(lineno) +
                        ": empty name or value");
    }
    if (!contains(name)) {
      if (!allow_unknown) {
        throw ConfigError(std::string(origin) + ':' + std::to_string(lineno) +
                          ": unknown parameter '" + std::string(name) + "'");
      }
      declare_string(name, "");
    }
    set_from_string(name, value);
  }
}

void RuntimeParams::read_file(const std::string& path, bool allow_unknown) {
  std::ifstream in(path);
  if (!in) {
    throw SystemError("cannot open parameter file '" + path + "'", errno);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  read_string(buf.str(), allow_unknown, path);
}

std::vector<std::string> RuntimeParams::apply_command_line(
    int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (starts_with(arg, "--")) {
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        // A bare --flag sets a declared bool to true.
        if (contains(arg)) {
          set_from_string(arg, "true");
          continue;
        }
        throw ConfigError("unrecognized option '--" + std::string(arg) + "'");
      }
      set_from_string(arg.substr(0, eq), arg.substr(eq + 1));
    } else {
      positional.emplace_back(arg);
    }
  }
  return positional;
}

void RuntimeParams::dump(std::ostream& os) const {
  for (const auto& [name, e] : entries_) {
    os << name << " = " << value_to_string(e.value);
    if (e.value != e.default_value) {
      os << "   # default: " << value_to_string(e.default_value);
    }
    if (!e.doc.empty()) os << "   # " << e.doc;
    os << '\n';
  }
}

std::vector<std::string> RuntimeParams::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(name);
  return out;
}

int positive_int_from_environment(const char* var, int fallback,
                                  int ceiling) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read at setup, before any
  // worker thread exists; nothing in-process calls setenv.
  const char* raw = std::getenv(var);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  // Out-of-range input saturates at LLONG_MAX, which the clamp below
  // maps to the ceiling like any other oversized value.
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 1) {
    throw ConfigError(std::string(var) + "='" + raw +
                      "': expected a positive integer");
  }
  return value > ceiling ? ceiling : static_cast<int>(value);
}

}  // namespace fhp
