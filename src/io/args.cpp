#include "io/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace cobra::io {

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& allowed)
    : allowed_(allowed) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // bare flag
    }
    if (name.empty()) throw std::invalid_argument("Args: empty flag name");
    if (!allowed.empty() &&
        std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw std::invalid_argument("Args: unknown flag --" + name);
    }
    flags_[name] = value;
  }
}

bool Args::has(const std::string& name) const { return flags_.contains(name); }

std::string Args::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    bad_value("Args: --" + name + " is not an integer: " + it->second);
  }
}

std::uint64_t Args::get_uint(const std::string& name, std::uint64_t fallback) const {
  const std::int64_t value = get_int(name, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    bad_value("Args: --" + name + " must be non-negative");
  }
  return static_cast<std::uint64_t>(value);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    bad_value("Args: --" + name + " is not a number: " + it->second);
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
  if (text == "0" || text == "false" || text == "no" || text == "off") return false;
  bad_value("Args: --" + name + " is not a boolean: " + text);
}

void Args::bad_value(const std::string& error) const {
  if (exit_on_bad_value_) exit_with_usage(error, allowed_);
  throw std::invalid_argument(error);
}

void exit_with_usage(const std::string& error,
                     const std::vector<std::string>& allowed,
                     const std::string& help) {
  std::cerr << error << "\nflags: ";
  for (const auto& flag : allowed) std::cerr << "--" << flag << " ";
  std::cerr << "\n" << help;
  std::exit(1);
}

Args parse_args_or_exit(int argc, const char* const* argv,
                        const std::vector<std::string>& allowed) {
  try {
    Args args(argc, argv, allowed);
    args.exit_on_bad_value();
    return args;
  } catch (const std::invalid_argument& e) {
    exit_with_usage(e.what(), allowed);
  }
}

}  // namespace cobra::io
