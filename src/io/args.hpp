#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file args.hpp
/// A tiny `--flag=value` / `--flag value` command-line parser for the
/// examples and benches. Deliberately minimal: flags are strings, values
/// are parsed on demand with typed getters and defaults, unknown flags are
/// an error (catches typos in experiment scripts).

namespace cobra::io {

class Args {
 public:
  /// Parse argv. `allowed` lists the permitted flag names (without the
  /// leading dashes); an empty list disables the check. Throws
  /// std::invalid_argument on malformed or unknown flags.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& allowed = {});

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// value cannot be parsed as the requested type (or exit, see below).
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// From now on a malformed value read by a typed getter (e.g. `--seed
  /// abc`) ends the process through exit_with_usage, with the allowed
  /// flags, instead of throwing — the CLI contract of the examples and
  /// benches.
  void exit_on_bad_value() noexcept { exit_on_bad_value_ = true; }

 private:
  /// Throw std::invalid_argument(error), or exit with it once
  /// exit_on_bad_value() was called.
  [[noreturn]] void bad_value(const std::string& error) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> allowed_;
  bool exit_on_bad_value_ = false;
};

/// The one usage-error exit of the examples and benches: print `error`,
/// the `allowed` flags and then `help` (if any) to stderr, and exit(1).
[[noreturn]] void exit_with_usage(const std::string& error,
                                  const std::vector<std::string>& allowed,
                                  const std::string& help = {});

/// Args(argc, argv, allowed), except that a malformed or unknown flag, or
/// a malformed value read later, ends the process through exit_with_usage
/// instead of throwing.
[[nodiscard]] Args parse_args_or_exit(int argc, const char* const* argv,
                                      const std::vector<std::string>& allowed);

}  // namespace cobra::io
