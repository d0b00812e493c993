#include "gate.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "harness.hpp"  // JsonReporter::quote for the report

namespace cobra::bench {

namespace {

/// A tiny recursive-descent JSON reader — just enough for the two file
/// formats the gate consumes (both of which this repo writes itself). We
/// still parse properly rather than scan: the gate's whole job is to
/// notice when files change shape, so it must reject malformed input
/// instead of gating whatever substrings survive.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // file order

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", [] { Value v; v.kind = Value::Kind::Bool; v.boolean = true; return v; }());
      case 'f': return literal("false", [] { Value v; v.kind = Value::Kind::Bool; return v; }());
      case 'n': return literal("null", Value{});
      default: return number();
    }
  }

  Value literal(const char* word, Value v) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) fail("bad literal");
    pos_ += len;
    return v;
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      Value key = string_value();
      expect(':');
      v.object.emplace_back(std::move(key.string), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value string_value() {
    expect('"');
    Value v;
    v.kind = Value::Kind::String;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'b': v.string += '\b'; break;
        case 'f': v.string += '\f'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Record names here are ASCII; a non-ASCII code point only needs
          // to round-trip distinctly, not render.
          v.string += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double num = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + token + "'");
    Value v;
    v.kind = Value::Kind::Number;
    v.number = num;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Flatten one JsonReporter "records" array under `prefix`, suffixing
/// duplicate names so every gate record key is unique within the file.
void collect_records(const Value& records, const std::string& prefix,
                     std::unordered_map<std::string, std::size_t>& seen,
                     std::vector<GateRecord>& out) {
  if (records.kind != Value::Kind::Array) {
    throw std::invalid_argument("\"records\" is not an array");
  }
  for (const Value& rec : records.array) {
    if (rec.kind != Value::Kind::Object) {
      throw std::invalid_argument("record entry is not an object");
    }
    const Value* name = rec.find("name");
    if (name == nullptr || name->kind != Value::Kind::String) {
      throw std::invalid_argument("record entry has no string \"name\"");
    }
    GateRecord flat;
    flat.name = prefix + name->string;
    const std::size_t dup = seen[flat.name]++;
    if (dup != 0) {
      flat.name += '#';
      flat.name += std::to_string(dup + 1);
    }
    for (const auto& [key, field] : rec.object) {
      if (key == "name") continue;
      if (field.kind == Value::Kind::Number) {
        flat.fields.emplace_back(key, field.number);
      } else if (field.kind == Value::Kind::Null) {
        // JsonReporter renders a non-finite measurement as `null` (JSON has
        // no NaN/Inf literal). Map it back to NaN so the gate SEES it and
        // fails it as "non-finite" — dropping the field here would let a
        // divide-by-zero regression slide through as a missing field at
        // worst, or pass silently when both sides broke the same way.
        flat.fields.emplace_back(key, std::numeric_limits<double>::quiet_NaN());
      }
    }
    out.push_back(std::move(flat));
  }
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";  // %g would emit invalid JSON
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

}  // namespace

bool is_timing_field(const std::string& field) {
  std::string lower = field;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  for (const char* marker :
       {"per_sec", "seconds", "speedup", "efficiency", "throughput",
        "time"}) {
    if (lower.find(marker) != std::string::npos) return true;
  }
  return false;
}

std::vector<GateRecord> extract_gate_records(const std::string& json_text) {
  const Value root = Parser(json_text).parse();
  if (root.kind != Value::Kind::Object) {
    throw std::invalid_argument("root is not a JSON object");
  }
  std::vector<GateRecord> out;
  std::unordered_map<std::string, std::size_t> seen;
  if (root.find("sweep") != nullptr) {
    const Value* runs = root.find("runs");
    if (runs == nullptr || runs->kind != Value::Kind::Array) {
      throw std::invalid_argument("sweep file has no \"runs\" array");
    }
    for (const Value& run : runs->array) {
      const Value* bench = run.find("bench");
      const Value* spec = run.find("spec");
      const Value* threads = run.find("threads");
      const Value* result = run.find("result");
      if (bench == nullptr || spec == nullptr || threads == nullptr ||
          result == nullptr || result->kind != Value::Kind::Object) {
        throw std::invalid_argument(
            "sweep run entry lacks bench/spec/threads/result");
      }
      const std::string prefix =
          bench->string + "|" + spec->string + "|t" +
          format_number(threads->number) + "|";
      const Value* records = result->find("records");
      if (records == nullptr) {
        throw std::invalid_argument("embedded result has no \"records\"");
      }
      collect_records(*records, prefix, seen, out);
    }
    return out;
  }
  const Value* records = root.find("records");
  if (root.find("benchmark") == nullptr || records == nullptr) {
    throw std::invalid_argument(
        "root is neither a bench JSON (\"benchmark\"/\"records\") nor a "
        "merged sweep (\"sweep\")");
  }
  collect_records(*records, "", seen, out);
  return out;
}

GateReport run_gate(const std::string& baseline_text,
                    const std::string& candidate_text,
                    const GateConfig& config) {
  const std::vector<GateRecord> baseline = extract_gate_records(baseline_text);
  const std::vector<GateRecord> candidate = extract_gate_records(candidate_text);
  std::unordered_map<std::string, const GateRecord*> by_name;
  for (const GateRecord& rec : candidate) by_name.emplace(rec.name, &rec);

  GateReport report;
  for (const GateRecord& base : baseline) {
    const auto it = by_name.find(base.name);
    if (it == by_name.end()) {
      report.pass = false;
      report.issues.push_back({base.name, "", "missing-record", 0, 0, 0, 0});
      continue;
    }
    ++report.records_compared;
    const GateRecord& cand = *it->second;
    for (const auto& [field, base_value] : base.fields) {
      const bool timing = is_timing_field(field);
      if (timing && !config.gate_time) {
        ++report.time_fields_skipped;
        continue;
      }
      const auto cand_it =
          std::find_if(cand.fields.begin(), cand.fields.end(),
                       [&](const auto& f) { return f.first == field; });
      if (cand_it == cand.fields.end()) {
        report.pass = false;
        report.issues.push_back(
            {base.name, field, "missing-field", base_value, 0, 0, 0});
        continue;
      }
      ++report.fields_compared;
      // NaN/Inf is a hard mismatch regardless of slack: a non-finite value
      // means the measurement itself broke (overflow, divide-by-zero), and
      // NaN's self-unequal arithmetic would otherwise make `rel > allowed`
      // FALSE — the gate would pass precisely when the data is garbage.
      if (!std::isfinite(base_value) || !std::isfinite(cand_it->second)) {
        report.pass = false;
        report.issues.push_back({base.name, field, "non-finite", base_value,
                                 cand_it->second, 0, 0});
        continue;
      }
      const double allowed = timing ? config.time_slack : config.slack;
      const double rel = std::abs(cand_it->second - base_value) /
                         std::max(std::abs(base_value), 1e-12);
      if (rel > allowed) {
        report.pass = false;
        report.issues.push_back({base.name, field, "exceeds-slack", base_value,
                                 cand_it->second, rel, allowed});
      }
    }
  }
  return report;
}

std::string render_gate_report(const GateReport& report,
                               const GateConfig& config) {
  std::string out = "{\n  \"bench_gate\": {\n";
  out += std::string("    \"pass\": ") + (report.pass ? "true" : "false") +
         ",\n";
  out += "    \"slack\": " + format_number(config.slack) + ",\n";
  out += std::string("    \"gate_time\": ") +
         (config.gate_time ? "true" : "false") + ",\n";
  if (config.gate_time) {
    out += "    \"time_slack\": " + format_number(config.time_slack) + ",\n";
  }
  out += "    \"records_compared\": " +
         std::to_string(report.records_compared) + ",\n";
  out += "    \"fields_compared\": " + std::to_string(report.fields_compared) +
         ",\n";
  out += "    \"time_fields_skipped\": " +
         std::to_string(report.time_fields_skipped) + ",\n";
  out += "    \"issues\": [";
  for (std::size_t i = 0; i < report.issues.size(); ++i) {
    const GateIssue& issue = report.issues[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      { \"record\": " + JsonReporter::quote(issue.record) +
           ", \"field\": " + JsonReporter::quote(issue.field) +
           ", \"kind\": " + JsonReporter::quote(issue.kind) +
           ", \"baseline\": " + format_number(issue.baseline) +
           ", \"candidate\": " + format_number(issue.candidate) +
           ", \"rel_delta\": " + format_number(issue.rel_delta) +
           ", \"allowed\": " + format_number(issue.allowed) + " }";
  }
  out += report.issues.empty() ? "]\n" : "\n    ]\n";
  out += "  }\n}\n";
  return out;
}

}  // namespace cobra::bench
