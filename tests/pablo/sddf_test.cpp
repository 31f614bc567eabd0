#include "pablo/sddf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "testkit/property.hpp"

namespace paraio::pablo {
namespace {

Trace sample_trace() {
  Trace t;
  t.on_file(1, "/input/mesh.dat");
  t.on_file(2, "/scratch/quad.0");
  IoEvent e;
  e.timestamp = 1.25;
  e.duration = 0.0625;
  e.node = 7;
  e.file = 1;
  e.op = Op::kRead;
  e.offset = 4096;
  e.requested = 2048;
  e.transferred = 2048;
  e.mode = io::AccessMode::kUnix;
  t.on_event(e);
  e.timestamp = 3.141592653589793;  // exercise exact double round trip
  e.op = Op::kAsyncWrite;
  e.mode = io::AccessMode::kRecord;
  e.file = 2;
  e.transferred = 17;
  t.on_event(e);
  e.op = Op::kIoWait;
  e.duration = 1e-9;
  t.on_event(e);
  return t;
}

TEST(Sddf, RoundTripIsLossless) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(original, loaded);
}

TEST(Sddf, HeaderIsSelfDescribing) {
  std::stringstream buffer;
  write_trace(buffer, sample_trace());
  std::string line;
  std::getline(buffer, line);
  EXPECT_EQ(line, "#SDDF-ASCII paraio-io-trace 1");
  std::getline(buffer, line);
  EXPECT_TRUE(line.starts_with("#record IoEvent"));
}

TEST(Sddf, FileRegistryPreserved) {
  std::stringstream buffer;
  write_trace(buffer, sample_trace());
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.file_name(1), "/input/mesh.dat");
  EXPECT_EQ(loaded.file_name(2), "/scratch/quad.0");
}

TEST(Sddf, EmptyTraceRoundTrips) {
  Trace empty;
  std::stringstream buffer;
  write_trace(buffer, empty);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(empty, loaded);
}

TEST(Sddf, BadMagicThrows) {
  std::stringstream buffer("#not-a-trace\n");
  EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(Sddf, TruncatedRecordThrows) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "E 0x0p+0 0x0p+0 1 1 read\n";  // missing fields
  EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(Sddf, UnknownOpTokenThrows) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "E 0x0p+0 0x0p+0 1 1 frobnicate 0 0 0 unix\n";
  EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(Sddf, UnknownDirectiveSkipped) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "#future-extension foo bar\n"
         << "E 0x0p+0 0x1p+0 1 1 read 0 8 8 unix\n";
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(Sddf, AllOpTokensRoundTrip) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(op_from_token(op_token(op)), op);
  }
}

TEST(Sddf, AllModeTokensRoundTrip) {
  for (int i = 0; i < 6; ++i) {
    const auto mode = static_cast<io::AccessMode>(i);
    EXPECT_EQ(mode_from_token(mode_token(mode)), mode);
  }
}

TEST(Sddf, FileIoRoundTrip) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/paraio_trace_test.sddf";
  write_trace_file(path, original);
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(original, loaded);
}

TEST(Sddf, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/paraio.sddf"),
               std::runtime_error);
}

// The first two fields of every E line, in order.
std::vector<std::string> written_times(const Trace& trace) {
  std::stringstream buffer;
  write_trace(buffer, trace);
  std::vector<std::string> fields;
  std::string line;
  while (std::getline(buffer, line)) {
    if (!line.starts_with("E ")) continue;
    std::istringstream ls(line.substr(2));
    std::string ts, dur;
    ls >> ts >> dur;
    fields.push_back(ts);
    fields.push_back(dur);
  }
  return fields;
}

Trace times_trace(const std::vector<double>& values) {
  Trace t;
  IoEvent e;
  for (const double v : values) {
    e.timestamp = v;
    e.duration = v;
    t.on_event(e);
  }
  return t;
}

TEST(Sddf, WriterMatchesPrintfHexFloat) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double finite[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::nextafter(DBL_MIN, 0.0),
                           DBL_MIN,
                           DBL_MAX,
                           1e-9,
                           3.141592653589793};
  std::vector<double> values(std::begin(finite), std::end(finite));
  values.insert(values.end(),
                {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()});
  const std::vector<std::string> fields = written_times(times_trace(values));
  ASSERT_EQ(fields.size(), 2 * values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "%a", values[i]);
    EXPECT_EQ(fields[2 * i], expected) << i;
    EXPECT_EQ(fields[2 * i + 1], expected) << i;
  }

  // Every finite value also comes back bit for bit, -0 included.
  const Trace original =
      times_trace(std::vector<double>(std::begin(finite), std::end(finite)));
  std::stringstream buffer;
  write_trace(buffer, original);
  const Trace loaded = read_trace(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const IoEvent& a = original.events()[i];
    const IoEvent& b = loaded.events()[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.timestamp),
              std::bit_cast<std::uint64_t>(b.timestamp))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.duration),
              std::bit_cast<std::uint64_t>(b.duration))
        << i;
  }
}

TEST(Sddf, DecimalFloatsAccepted) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "E 1.5 2.5e-1 1 1 read 0 8 8 unix\n";
  const Trace loaded = read_trace(buffer);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.events()[0].timestamp, 1.5);
  EXPECT_EQ(loaded.events()[0].duration, 0.25);
}

struct Malformed {
  const char* line;
  const char* expected;  // substring of what() after "trace line 5: "
};

TEST(Sddf, MalformedRecordsRejectedWithLineNumber) {
  const Malformed cases[] = {
      {"E -0x1p+0 0x0p+0 1 1 read 0 8 8 unix", "timestamp is negative"},
      {"E -1.5 0x0p+0 1 1 read 0 8 8 unix", "timestamp is negative"},
      {"E nan 0x0p+0 1 1 read 0 8 8 unix", "timestamp is not finite"},
      {"E inf 0x0p+0 1 1 read 0 8 8 unix", "timestamp is not finite"},
      {"E 1e400 0x0p+0 1 1 read 0 8 8 unix", "timestamp is out of range"},
      {"E 0x1p+0z 0x0p+0 1 1 read 0 8 8 unix", "timestamp is not a number"},
      {"E 0x 0x0p+0 1 1 read 0 8 8 unix", "timestamp is not a number"},
      {"E - 0x0p+0 1 1 read 0 8 8 unix", "timestamp is not a number"},
      {"E 0x0p+0 -0x1p-3 1 1 read 0 8 8 unix", "duration is negative"},
      {"E 0x0p+0 -inf 1 1 read 0 8 8 unix", "duration is not finite"},
      {"E 0x0p+0 0x1p+0 -1 1 read 0 8 8 unix", "node is negative: '-1'"},
      {"E 0x0p+0 0x1p+0 4294967296 1 read 0 8 8 unix",
       "node exceeds 4294967295: '4294967296'"},
      {"E 0x0p+0 0x1p+0 1 4294967296 read 0 8 8 unix", "file exceeds"},
      {"E 0x0p+0 0x1p+0 1 -1 read 0 8 8 unix", "file is negative"},
      {"E 0x0p+0 0x1p+0 1 1 read -1 8 8 unix", "offset is negative"},
      {"E 0x0p+0 0x1p+0 1 1 read 12ab 8 8 unix",
       "offset is not an unsigned integer: '12ab'"},
      {"E 0x0p+0 0x1p+0 1 1 read 18446744073709551616 8 8 unix",
       "offset exceeds"},
      {"E 0x0p+0 0x1p+0 1 1 read 0 -1 8 unix", "requested is negative"},
      {"E 0x0p+0 0x1p+0 1 1 read 0 8 -1 unix", "transferred is negative"},
      {"E 0x0p+0 0x1p+0 1 1 read 0 8 8", "missing field mode"},
      {"E 0x0p+0 0x1p+0 1 1 read", "missing field offset"},
      {"E", "missing field timestamp"},
      {"E 0x0p+0 0x1p+0 1 1 frob 0 8 8 unix", "unknown op token 'frob'"},
      {"E 0x0p+0 0x1p+0 1 1 read 0 8 8 nfs", "unknown mode token 'nfs'"},
      {"E 0x0p+0 0x1p+0 1 1 read 0 8 8 unix 9",
       "unexpected field after mode: '9'"},
      {"X 0x0p+0 0x1p+0 1 1 read 0 8 8 unix", "bad record tag 'X'"},
      {"#file -1 /a", "#file id is negative"},
      {"#file 4294967296 /a", "#file id exceeds 4294967295"},
      {"#file 7", "missing field #file path"},
  };
  for (const Malformed& c : cases) {
    std::stringstream buffer;
    buffer << "#SDDF-ASCII paraio-io-trace 1\n"
           << "#record IoEvent\n"
           << "#file 1 /a\n"
           << "E 0x0p+0 0x1p+0 1 1 read 0 8 8 unix\n"
           << c.line << '\n'
           << "E 0x1p+0 0x1p+0 1 1 read 8 8 8 unix\n";
    try {
      (void)read_trace(buffer);
      ADD_FAILURE() << "accepted: " << c.line;
    } catch (const std::runtime_error& err) {
      const std::string what = err.what();
      EXPECT_TRUE(what.starts_with("trace line 5: ")) << what;
      EXPECT_NE(what.find(c.expected), std::string::npos)
          << c.line << " -> " << what;
    }
  }
}

// A real application trace: ESCAT on 16 nodes, written once and shared by
// every mutation case.
const std::string& escat_sddf() {
  static const std::string text = [] {
    core::ExperimentConfig cfg = core::escat_experiment();
    auto& app = std::get<apps::EscatConfig>(cfg.app);
    app.nodes = 16;
    app.iterations = 8;
    cfg.machine = hw::MachineConfig::paragon_xps(16, 4);
    std::ostringstream out;
    write_trace(out, core::run_experiment(cfg).trace);
    return std::move(out).str();
  }();
  return text;
}

// One edit of a valid trace at byte `pos`.
struct ByteMutation {
  enum class Kind { kOverwrite, kInsert, kReplaceField };
  std::size_t pos = 0;
  Kind kind = Kind::kOverwrite;
  std::string bytes;  // one byte for kOverwrite
};
using Mutations = std::vector<ByteMutation>;

bool is_field_start(const std::string& text, std::size_t pos) {
  return pos == 0 || text[pos - 1] == ' ' || text[pos - 1] == '\n';
}

TEST(Sddf, MutatedTraceRejectedOrSound) {
  using Kind = ByteMutation::Kind;
  const std::string& text = escat_sddf();
  ASSERT_GT(text.size(), 10000u);
  // Bytes and tokens that keep a field plausible enough to reach the value
  // checks rather than failing on syntax.
  constexpr std::string_view kPalette = "0123456789-+.xXpPeE \t\n#infa";
  const std::vector<std::string> kTokens = {
      "-0x1p+0", "-1.5", "inf", "nan", "-inf", "-0", "-1", "4294967296",
      "18446744073709551616", "1e400", "0x", "-", "", " ", "\n", "E"};
  const testkit::Gen<Mutations> gen([&](sim::Rng& rng) {
    Mutations m(rng.uniform_int(1, 4));
    for (ByteMutation& b : m) {
      b.kind = static_cast<Kind>(rng.uniform_int(0, 2));
      b.pos = rng.uniform_int(0, text.size() - 1);
      // Field replacements, and half the other edits, land on the first
      // byte of a field, where they change a value rather than the syntax.
      if (b.kind == Kind::kReplaceField || rng.bernoulli(0.5)) {
        while (!is_field_start(text, b.pos)) --b.pos;
      }
      if (b.kind != Kind::kOverwrite) {
        b.bytes = kTokens[rng.uniform_int(0, kTokens.size() - 1)];
      } else if (rng.bernoulli(0.5)) {
        b.bytes = kPalette[rng.uniform_int(0, kPalette.size() - 1)];
      } else {
        b.bytes = static_cast<char>(rng.uniform_int(0, 255));
      }
    }
    return m;
  });
  const testkit::Shrinker<Mutations> drop_one = [](const Mutations& m) {
    std::vector<Mutations> smaller;
    for (std::size_t i = 0; m.size() > 1 && i < m.size(); ++i) {
      smaller.push_back(m);
      smaller.back().erase(smaller.back().begin() + i);
    }
    return smaller;
  };
  const testkit::Property<Mutations> rejected_or_sound =
      [&](const Mutations& m) -> std::optional<std::string> {
    std::string mutated = text;
    for (const ByteMutation& b : m) {
      const std::size_t pos = std::min(b.pos, mutated.size() - 1);
      switch (b.kind) {
        case Kind::kOverwrite:
          mutated[pos] = b.bytes.front();
          break;
        case Kind::kInsert:
          mutated.insert(pos, b.bytes);
          break;
        case Kind::kReplaceField:
          mutated.replace(pos, mutated.find_first_of(" \n", pos) - pos,
                          b.bytes);
          break;
      }
    }
    std::istringstream in(mutated);
    Trace loaded;
    try {
      loaded = read_trace(in);
    } catch (const std::runtime_error& err) {
      if (std::string_view(err.what()).starts_with("trace line ")) {
        return std::nullopt;
      }
      return std::string("rejection without a line number: ") + err.what();
    }
    for (const IoEvent& e : loaded.events()) {
      if (!std::isfinite(e.timestamp) || e.timestamp < 0.0 ||
          !std::isfinite(e.duration) || e.duration < 0.0) {
        return "accepted a bad time";
      }
    }
    std::stringstream again;
    write_trace(again, loaded);
    if (read_trace(again) != loaded) return "accepted trace does not round-trip";
    return std::nullopt;
  };
  testkit::PropertyConfig cfg;
  cfg.cases = 300;
  cfg.seed = 0x5DDF;
  const auto result = testkit::check_property<Mutations>(cfg, gen, drop_one,
                                                         rejected_or_sound);
  EXPECT_TRUE(result.ok) << result.message << " (case "
                         << result.failing_case << ")";
}

}  // namespace
}  // namespace paraio::pablo
