#include "spice/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"

namespace usys::spice {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// %.17g: the shortest printf format guaranteed to round-trip any double
/// through decimal — the whole bit-identical-resume story hangs on this.
void append_double(std::string& s, double v) {
  if (std::isnan(v)) {
    s += "null";  // JSON has no NaN; load maps null back to NaN
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
  // Bare integers ("42") are valid JSON numbers; nothing more to do.
}

void append_json_string(std::string& s, const std::string& v) {
  s += '"';
  for (const char c : v) {
    switch (c) {
      case '"': s += "\\\""; break;
      case '\\': s += "\\\\"; break;
      case '\n': s += "\\n"; break;
      case '\r': s += "\\r"; break;
      case '\t': s += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          s += buf;
        } else {
          s += c;
        }
    }
  }
  s += '"';
}

void append_pairs(std::string& s, const std::vector<std::pair<std::string, double>>& pairs) {
  s += '[';
  bool first = true;
  for (const auto& [name, value] : pairs) {
    if (!first) s += ',';
    first = false;
    s += '[';
    append_json_string(s, name);
    s += ',';
    append_double(s, value);
    s += ']';
  }
  s += ']';
}

}  // namespace

std::string checkpoint_line(long index, const SweepPoint& point,
                            const SweepOutcome& outcome) {
  std::string s;
  s.reserve(128);
  s += "{\"i\":";
  s += std::to_string(index);
  s += ",\"ok\":";
  s += outcome.ok ? "true" : "false";
  s += ",\"attempts\":";
  s += std::to_string(outcome.attempts);
  s += ",\"params\":";
  append_pairs(s, point.params);
  s += ",\"metrics\":";
  append_pairs(s, outcome.metrics);
  s += ",\"error\":";
  append_json_string(s, outcome.error);
  if (!outcome.ok) {
    s += ",\"failure\":{\"kind\":";
    append_json_string(s, to_string(outcome.failure.kind));
    s += ",\"analysis\":";
    append_json_string(s, outcome.failure.analysis);
    s += ",\"time\":";
    append_double(s, outcome.failure.time);
    s += ",\"iteration\":";
    s += std::to_string(outcome.failure.iteration);
    s += ",\"rescue\":";
    s += std::to_string(outcome.failure.rescue_attempts);
    s += ",\"detail\":";
    append_json_string(s, outcome.failure.detail);
    s += '}';
  }
  s += '}';
  return s;
}

CheckpointWriter::CheckpointWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr)
    throw std::runtime_error("checkpoint: cannot open '" + path + "' for append");
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(long index, const SweepPoint& point,
                              const SweepOutcome& outcome) {
  const std::string line = checkpoint_line(index, point, outcome) + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  // Flush per record: a kill between points loses nothing, a kill mid-write
  // loses only the torn line (which load_checkpoint skips).
  std::fflush(file_);
}

// ---------------------------------------------------------------------------
// Reader — one json_parse per line (common/json.hpp), then a typed walk over
// the record's keys. Unknown keys are ignored so the format can grow fields
// without breaking old readers; a known key with the wrong shape rejects the
// whole line.
// ---------------------------------------------------------------------------

namespace {

/// The writer prints infinite doubles the way %.17g does ("inf", "-inf"),
/// and JSON has no literal for them. Quotes those bare tokens (outside
/// strings) so the line parses; read_double maps the quoted forms back.
std::string quote_infinities(const std::string& line) {
  std::string out;
  out.reserve(line.size());
  bool in_string = false;
  for (std::size_t k = 0; k < line.size(); ++k) {
    const char c = line[k];
    if (in_string) {
      out += c;
      if (c == '\\' && k + 1 < line.size()) {
        out += line[++k];
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
      out += c;
    } else if (line.compare(k, 4, "-inf") == 0) {
      out += "\"-inf\"";
      k += 3;
    } else if (line.compare(k, 3, "inf") == 0) {
      out += "\"inf\"";
      k += 2;
    } else {
      out += c;
    }
  }
  return out;
}

/// A journaled double: a number, null (the writer's NaN), or a quoted
/// infinity (see quote_infinities).
bool read_double(const JsonValue& v, double& out) {
  if (v.is_number()) {
    out = v.as_number();
  } else if (v.is_null()) {
    out = std::numeric_limits<double>::quiet_NaN();
  } else if (v.is_string() && (v.as_string() == "inf" || v.as_string() == "-inf")) {
    out = v.as_string() == "inf" ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
  } else {
    return false;
  }
  return true;
}

/// A journaled integer; it must fit `T` (and the 2^53 exact-double range).
template <typename T>
bool read_int(const JsonValue& v, T& out) {
  constexpr long long kExact = 1LL << 53;
  const auto i = v.as_int(std::max<long long>(std::numeric_limits<T>::min(), -kExact),
                          std::min<long long>(std::numeric_limits<T>::max(), kExact));
  if (i) out = static_cast<T>(*i);
  return i.has_value();
}

bool read_string(const JsonValue& v, std::string& out) {
  if (!v.is_string()) return false;
  out = v.as_string();
  return true;
}

/// [["name", <double>], ...]
bool read_pairs(const JsonValue& v, std::vector<std::pair<std::string, double>>& out) {
  out.clear();
  if (!v.is_array()) return false;
  for (const auto& item : v.items()) {
    if (!item.is_array() || item.items().size() != 2 || !item.items()[0].is_string())
      return false;
    double value = 0.0;
    if (!read_double(item.items()[1], value)) return false;
    out.emplace_back(item.items()[0].as_string(), value);
  }
  return true;
}

bool read_failure(const JsonValue& v, FailureInfo& out) {
  if (!v.is_object()) return false;
  for (const auto& [key, field] : v.members()) {
    bool ok = true;
    if (key == "kind") {
      ok = field.is_string() && failure_kind_from_string(field.as_string(), out.kind);
    } else if (key == "analysis") {
      ok = read_string(field, out.analysis);
    } else if (key == "time") {
      ok = read_double(field, out.time);
    } else if (key == "iteration") {
      ok = read_int(field, out.iteration);
    } else if (key == "rescue") {
      ok = read_int(field, out.rescue_attempts);
    } else if (key == "detail") {
      ok = read_string(field, out.detail);
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool parse_checkpoint_line(const std::string& line, CheckpointRecord& out) {
  out = CheckpointRecord{};
  const auto doc = json_parse(quote_infinities(line));
  if (!doc || !doc->is_object()) return false;
  bool have_index = false;
  for (const auto& [key, field] : doc->members()) {
    bool ok = true;
    if (key == "i") {
      ok = read_int(field, out.index);
      have_index = true;
    } else if (key == "ok") {
      ok = field.is_bool();
      out.outcome.ok = field.as_bool();
    } else if (key == "attempts") {
      ok = read_int(field, out.outcome.attempts);
    } else if (key == "params") {
      ok = read_pairs(field, out.point.params);
    } else if (key == "metrics") {
      ok = read_pairs(field, out.outcome.metrics);
    } else if (key == "error") {
      ok = read_string(field, out.outcome.error);
    } else if (key == "failure") {
      ok = read_failure(field, out.outcome.failure);
    }
    if (!ok) return false;
  }
  return have_index;
}

bool load_checkpoint(const std::string& path, CheckpointData& out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot read checkpoint file '" + path + "'";
    return false;
  }
  out.records.clear();
  std::string line;
  long skipped = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    CheckpointRecord rec;
    if (!parse_checkpoint_line(line, rec)) {
      ++skipped;  // torn tail write or foreign garbage: drop, keep loading
      continue;
    }
    out.records[rec.index] = std::move(rec);  // last record per index wins
  }
  if (skipped > 0 && err != nullptr)
    *err = std::to_string(skipped) + " malformed line(s) skipped";
  return true;
}

}  // namespace usys::spice
