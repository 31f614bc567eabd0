#include "pablo/sddf.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace paraio::pablo {

namespace {

constexpr std::string_view kMagic = "#SDDF-ASCII paraio-io-trace 1";

constexpr std::array<std::string_view, kOpCount> kOpTokens = {
    "read",  "write", "seek",       "open",        "close",
    "lsize", "flush", "async-read", "async-write", "iowait"};

constexpr std::array<std::string_view, 6> kModeTokens = {
    "unix", "log", "sync", "record", "global", "async"};

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

// Records are formatted into a block of this size and handed to the stream
// whole.  An E record is at most two 24-byte hex floats, two u32s, three
// u64s, the longest op and mode tokens and ten separators: under 200 bytes.
constexpr std::size_t kWriteBlock = 64 * 1024;
constexpr std::ptrdiff_t kMaxRecord = 256;

/// Index of `token` in `tokens`, or N when absent.
template <std::size_t N>
std::size_t find_token(const std::array<std::string_view, N>& tokens,
                       std::string_view token) {
  std::size_t i = 0;
  while (i < N && tokens[i] != token) ++i;
  return i;
}

/// Quotes a field for an error message, clipped so that a corrupt line
/// cannot make what() arbitrarily long.
std::string quoted(std::string_view field) {
  constexpr std::size_t kShown = 40;
  std::string s = "'";
  s += field.substr(0, kShown);
  s += field.size() > kShown ? "...'" : "'";
  return s;
}

// --- writer ----------------------------------------------------------------

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

char* put(char* p, char* end, std::uint64_t v) {
  return std::to_chars(p, end, v).ptr;
}

/// Hex-float, byte-identical to glibc's printf("%a") so the round trip is
/// exact regardless of locale.  Spelled out rather than left to
/// to_chars(hex), whose spelling of subnormals differs between libstdc++
/// releases.  Non-finite values keep printf's spelling.
char* put(char* p, char* end, double v) {
  if (!std::isfinite(v)) return p + std::snprintf(p, end - p, "%a", v);
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>(bits >> 52 & 0x7ff);
  std::uint64_t fraction = bits & kFraction;
  const int exponent = biased != 0 ? biased - 1023 : fraction != 0 ? -1022 : 0;
  if (bits >> 63) *p++ = '-';
  p = put(p, biased != 0 ? "0x1" : "0x0");
  if (fraction != 0) *p++ = '.';
  for (; fraction != 0; fraction = fraction << 4 & kFraction) {
    *p++ = "0123456789abcdef"[fraction >> 48];
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  return put(p, end, static_cast<std::uint64_t>(std::abs(exponent)));
}

char* put_event(char* p, char* end, const IoEvent& e) {
  p = put(p, "E ");
  p = put(p, end, e.timestamp);
  *p++ = ' ';
  p = put(p, end, e.duration);
  *p++ = ' ';
  p = put(p, end, std::uint64_t{e.node});
  *p++ = ' ';
  p = put(p, end, std::uint64_t{e.file});
  *p++ = ' ';
  p = put(p, kOpTokens[static_cast<std::size_t>(e.op)]);
  *p++ = ' ';
  p = put(p, end, e.offset);
  *p++ = ' ';
  p = put(p, end, e.requested);
  *p++ = ' ';
  p = put(p, end, e.transferred);
  *p++ = ' ';
  p = put(p, kModeTokens[static_cast<std::size_t>(e.mode)]);
  *p++ = '\n';
  return p;
}

// --- reader ----------------------------------------------------------------

/// The whitespace set `istream >>` splits on in the C locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Removes and returns the next whitespace-separated field of `rest`; empty
/// when the line is used up.
std::string_view take_field(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view field = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return field;
}

std::string_view require_field(std::string_view& rest, const char* name) {
  const std::string_view field = take_field(rest);
  if (field.empty()) {
    throw std::runtime_error(std::string("missing field ") + name);
  }
  return field;
}

[[noreturn]] void bad_field(const char* name, std::string_view field,
                            const std::string& why) {
  throw std::runtime_error(std::string(name) + ' ' + why + ": " +
                           quoted(field));
}

/// A decimal integer in [0, max].
std::uint64_t parse_uint(std::string_view& rest, const char* name,
                         std::uint64_t max) {
  const std::string_view field = require_field(rest, name);
  if (field.front() == '-') bad_field(name, field, "is negative");
  const char* last = field.data() + field.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), last, v);
  if (ec == std::errc::result_out_of_range || (ec == std::errc{} && v > max)) {
    bad_field(name, field, "exceeds " + std::to_string(max));
  }
  if (ec != std::errc{} || ptr != last) {
    bad_field(name, field, "is not an unsigned integer");
  }
  return v;
}

/// A finite, non-negative time: hex-float as written ("0x" prefix) or
/// decimal, with an optional leading '-' so that -0 round-trips.
double parse_time(std::string_view& rest, const char* name) {
  const std::string_view field = require_field(rest, name);
  std::string_view digits = field;
  const bool negative = digits.front() == '-';
  if (negative) digits.remove_prefix(1);
  auto format = std::chars_format::general;
  if (digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
    format = std::chars_format::hex;
  }
  if (digits.empty() || digits.front() == '-') {
    bad_field(name, field, "is not a number");
  }
  const char* last = digits.data() + digits.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(digits.data(), last, v, format);
  if (ec == std::errc::result_out_of_range) {
    bad_field(name, field, "is out of range");
  }
  if (ec != std::errc{} || ptr != last) {
    bad_field(name, field, "is not a number");
  }
  if (!std::isfinite(v)) bad_field(name, field, "is not finite");
  if (negative) v = -v;
  if (v < 0.0) bad_field(name, field, "is negative");
  return v;
}

IoEvent parse_event(std::string_view rest) {
  const std::string_view tag = take_field(rest);
  if (tag != "E") throw std::runtime_error("bad record tag " + quoted(tag));
  IoEvent e;
  e.timestamp = parse_time(rest, "timestamp");
  e.duration = parse_time(rest, "duration");
  e.node = static_cast<io::NodeId>(parse_uint(rest, "node", kMaxU32));
  e.file = static_cast<io::FileId>(parse_uint(rest, "file", kMaxU32));
  e.op = op_from_token(require_field(rest, "op"));
  e.offset = parse_uint(rest, "offset", kMaxU64);
  e.requested = parse_uint(rest, "requested", kMaxU64);
  e.transferred = parse_uint(rest, "transferred", kMaxU64);
  e.mode = mode_from_token(require_field(rest, "mode"));
  if (const std::string_view extra = take_field(rest); !extra.empty()) {
    throw std::runtime_error("unexpected field after mode: " + quoted(extra));
  }
  return e;
}

/// `#file <id> <path>`: the path is the rest of the line after one
/// separator, spaces included.
void parse_file_directive(std::string_view rest, Trace& trace) {
  const auto id = parse_uint(rest, "#file id", kMaxU32);
  if (rest.empty()) throw std::runtime_error("missing field #file path");
  rest.remove_prefix(1);
  trace.on_file(static_cast<io::FileId>(id), std::string(rest));
}

void parse_line(std::string_view line, Trace& trace) {
  if (line.front() != '#') {
    trace.on_event(parse_event(line));
    return;
  }
  // Other directives (#record, future extensions) are informative only.
  if (take_field(line) == "#file") parse_file_directive(line, trace);
}

}  // namespace

const char* op_token(Op op) {
  return kOpTokens[static_cast<std::size_t>(op)].data();
}

Op op_from_token(std::string_view token) {
  const std::size_t i = find_token(kOpTokens, token);
  if (i == kOpTokens.size()) {
    throw std::runtime_error("unknown op token " + quoted(token));
  }
  return static_cast<Op>(i);
}

const char* mode_token(io::AccessMode mode) {
  return kModeTokens[static_cast<std::size_t>(mode)].data();
}

io::AccessMode mode_from_token(std::string_view token) {
  const std::size_t i = find_token(kModeTokens, token);
  if (i == kModeTokens.size()) {
    throw std::runtime_error("unknown mode token " + quoted(token));
  }
  return static_cast<io::AccessMode>(i);
}

void write_trace(std::ostream& out, const Trace& trace) {
  out << kMagic << '\n';
  out << "#record IoEvent timestamp:f64 duration:f64 node:u32 file:u32 "
         "op:str offset:u64 requested:u64 transferred:u64 mode:str\n";
  for (const auto& [id, path] : trace.files()) {
    out << "#file " << id << ' ' << path << '\n';
  }
  std::vector<char> block(kWriteBlock);
  char* const begin = block.data();
  char* const end = begin + block.size();
  char* p = begin;
  for (const auto& e : trace.events()) {
    if (end - p < kMaxRecord) {
      out.write(begin, p - begin);
      p = begin;
    }
    p = put_event(p, end, e);
  }
  out.write(begin, p - begin);
  if (!out) throw std::runtime_error("trace write failed");
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_trace(out, trace);
}

Trace read_trace(std::istream& in) {
  Trace trace;
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("trace line 1: bad magic " + quoted(line));
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      parse_line(line, trace);
    } catch (const std::runtime_error& err) {
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": " + err.what());
    }
  }
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return read_trace(in);
}

}  // namespace paraio::pablo
