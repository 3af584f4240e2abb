// Unit tests for util: CSV writer, table printer, CLI parser, subsets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "util/cli.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/subsets.h"
#include "util/table.h"

namespace ru = redopt::util;

// ---------------------------------------------------------------- CSV

TEST(Csv, EscapePlainCellUnchanged) { EXPECT_EQ(ru::CsvWriter::escape("hello"), "hello"); }

TEST(Csv, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(ru::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(ru::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(ru::CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "redopt_csv_test.csv";
  {
    ru::CsvWriter w(path, {"x", "y"});
    w.write_row(std::vector<std::string>{"1", "2"});
    w.write_row(std::vector<double>{3.5, 4.25});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,4.25");
  std::remove(path.c_str());
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = testing::TempDir() + "redopt_csv_arity.csv";
  ru::CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.write_row(std::vector<std::string>{"only-one"}), redopt::PreconditionError);
  std::remove(path.c_str());
}

TEST(Csv, RejectsUnopenablePath) {
  EXPECT_THROW(ru::CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  ru::TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("longer-name  22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, PadsShortRows) {
  ru::TablePrinter t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, NumFormatsSignificantDigits) {
  EXPECT_EQ(ru::TablePrinter::num(1.23456789, 3), "1.23");
  EXPECT_EQ(ru::TablePrinter::num(1000.0, 6), "1000");
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(ru::TablePrinter({}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- CLI

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--flag"};
  ru::Cli cli(5, argv, {"alpha", "beta", "flag"});
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
}

TEST(Cli, ReturnsDefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  ru::Cli cli(1, argv, {"alpha"});
  EXPECT_EQ(cli.get_int("alpha", 7), 7);
  EXPECT_EQ(cli.get_string("alpha", "d"), "d");
  EXPECT_FALSE(cli.get("alpha").has_value());
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(ru::Cli(2, argv, {"alpha"}), redopt::PreconditionError);
}

TEST(Cli, RejectsNonFlagToken) {
  const char* argv[] = {"prog", "bare"};
  EXPECT_THROW(ru::Cli(2, argv, {"alpha"}), redopt::PreconditionError);
}

TEST(Cli, ParseChoiceReturnsIndexInDeclarationOrder) {
  const std::vector<std::string> choices = {"star", "chain", "tree"};
  EXPECT_EQ(ru::parse_choice("topology", "star", choices), 0u);
  EXPECT_EQ(ru::parse_choice("topology", "chain", choices), 1u);
  EXPECT_EQ(ru::parse_choice("topology", "tree", choices), 2u);
}

TEST(Cli, ParseChoiceErrorNamesTheFlagAndListsEveryValue) {
  const std::vector<std::string> choices = {"inproc", "socket"};
  try {
    ru::parse_choice("backend", "carrier-pigeon", choices);
    FAIL() << "expected PreconditionError";
  } catch (const redopt::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'carrier-pigeon'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("inproc, socket"), std::string::npos) << msg;
  }
}

TEST(Cli, ParseChoiceIsCaseSensitiveAndWholeToken) {
  const std::vector<std::string> choices = {"star", "chain", "tree"};
  EXPECT_THROW(ru::parse_choice("topology", "Star", choices), redopt::PreconditionError);
  EXPECT_THROW(ru::parse_choice("topology", "st", choices), redopt::PreconditionError);
  EXPECT_THROW(ru::parse_choice("topology", "", choices), redopt::PreconditionError);
}

TEST(Cli, ParseChoiceRejectsEmptyChoiceList) {
  EXPECT_THROW(ru::parse_choice("thing", "x", {}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- Config

TEST(Config, ParsesKeyValuePairs) {
  const auto config = ru::Config::parse(
      "# a comment\n"
      "alpha = 3\n"
      "\n"
      "  beta=4.5  \n"
      "name = hello world\n"
      "flag = yes\n");
  EXPECT_EQ(config.size(), 4u);
  EXPECT_EQ(config.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(config.get_double("beta", 0.0), 4.5);
  EXPECT_EQ(config.get_string("name", ""), "hello world");
  EXPECT_TRUE(config.get_bool("flag", false));
  EXPECT_EQ(config.get_int("missing", 7), 7);
  EXPECT_FALSE(config.get("missing").has_value());
}

TEST(Config, LaterAssignmentsOverride) {
  const auto config = ru::Config::parse("x = 1\nx = 2\n");
  EXPECT_EQ(config.get_int("x", 0), 2);
  EXPECT_EQ(config.size(), 1u);
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_THROW(ru::Config::parse("no equals sign\n"), redopt::PreconditionError);
  EXPECT_THROW(ru::Config::parse("= value\n"), redopt::PreconditionError);
}

TEST(Config, LoadsFromFileAndRejectsMissing) {
  const std::string path = testing::TempDir() + "redopt_config_test.cfg";
  {
    std::ofstream out(path);
    out << "k = v\n";
  }
  EXPECT_EQ(ru::Config::load(path).get_string("k", ""), "v");
  std::remove(path.c_str());
  EXPECT_THROW(ru::Config::load("/nonexistent-dir-xyz/a.cfg"), redopt::PreconditionError);
}

// ---------------------------------------------------------------- JSON

TEST(Json, EscapePlainStringUnchanged) {
  EXPECT_EQ(ru::json_escape("hello world"), "hello world");
  EXPECT_EQ(ru::json_escape(""), "");
}

TEST(Json, EscapeQuotesAndBackslashes) {
  EXPECT_EQ(ru::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(ru::json_escape("a\\b"), "a\\\\b");
}

TEST(Json, EscapeShortFormControlCharacters) {
  EXPECT_EQ(ru::json_escape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
}

TEST(Json, EscapeOtherControlCharactersAsUnicode) {
  // Control bytes with no short form must survive as \uXXXX — replacing
  // them with spaces would make two distinct inputs collide.
  EXPECT_EQ(ru::json_escape("a\x01z"), "a\\u0001z");
  EXPECT_EQ(ru::json_escape(std::string("x\x1f")), "x\\u001f");
  EXPECT_EQ(ru::json_escape(std::string("n\0l", 3)), "n\\u0000l");
  // 0x20 and above pass through.
  EXPECT_EQ(ru::json_escape("\x7f"), "\x7f");
}

TEST(Json, NumberIntegralValuesPrintWithoutExponent) {
  EXPECT_EQ(ru::json_number(0.0), "0");
  EXPECT_EQ(ru::json_number(3.0), "3");
  EXPECT_EQ(ru::json_number(-42.0), "-42");
  EXPECT_EQ(ru::json_number(123456789.0), "123456789");
}

TEST(Json, NumberFractionalValuesRoundTrip) {
  EXPECT_EQ(ru::json_number(0.5), "0.5");
  EXPECT_EQ(std::stod(ru::json_number(0.1)), 0.1);
  EXPECT_EQ(std::stod(ru::json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(std::stod(ru::json_number(1e300)), 1e300);
}

TEST(Json, NumberNonFiniteBecomesNull) {
  EXPECT_EQ(ru::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(ru::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(ru::json_number(-std::numeric_limits<double>::infinity()), "null");
}

namespace {

/// The stream-based formatter json_number used to be: "%.0f" for integral
/// values below 1e15, "%.17g" through an ostringstream otherwise.  Every
/// golden, manifest and checkpoint was written by it, so json_number must
/// reproduce it byte for byte.
std::string stream_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

TEST(Json, NumberMatchesStreamFormatterOnRandomBitPatterns) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < 1000000; ++k) {
    const double v = from_bits(next());
    if (ru::json_number(v) != stream_json_number(v) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": " << ru::json_number(v) << " vs "
                    << stream_json_number(v);
    }
  }
  // Bit patterns rarely land on small magnitudes; sweep those too.
  for (std::size_t k = 0; k < 200000; ++k) {
    const double scale = std::ldexp(1.0, static_cast<int>(next() % 120) - 60);
    const double v = (static_cast<double>(next() >> 11) / 9007199254740992.0 - 0.5) * scale;
    if (ru::json_number(v) != stream_json_number(v) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": " << ru::json_number(v) << " vs "
                    << stream_json_number(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, NumberMatchesStreamFormatterOnEdgeValues) {
  const double max = std::numeric_limits<double>::max();
  const double min_normal = std::numeric_limits<double>::min();
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const double largest_subnormal = from_bits(0x000fffffffffffffULL);
  const double below_1e15 = std::nextafter(1e15, 0.0);
  const double above_1e15 = std::nextafter(1e15, 2e15);
  std::vector<double> values = {0.0, -0.0, max, -max, min_normal, -min_normal, min_sub, -min_sub};
  values.insert(values.end(), {largest_subnormal, -largest_subnormal, from_bits(0x100000001ULL)});
  values.insert(values.end(), {1e15, -1e15, below_1e15, -below_1e15, above_1e15, -above_1e15});
  values.insert(values.end(), {999999999999999.0, 999999999999999.5, 1e16, 1e17, -1e17});
  values.insert(values.end(), {9007199254740992.0, 9007199254740993.0, 123456789012345678.0});
  values.insert(values.end(), {0.1, 1.0 / 3.0, 2.5, -0.5, 1e-5, 1e-4, 5e-324, 1e300, -1e-300});
  for (double v : values) {
    EXPECT_EQ(ru::json_number(v), stream_json_number(v)) << std::hexfloat << v;
  }
  EXPECT_EQ(ru::json_number(-0.0), "-0");
  EXPECT_EQ(ru::json_number(1e15), "1000000000000000");  // %.17g, not the integer path
  EXPECT_EQ(ru::json_number(1e17), "1e+17");
  EXPECT_EQ(ru::json_number(999999999999999.0), "999999999999999");
}

// ---------------------------------------------------------------- Stopwatch

TEST(Stopwatch, MeasuresElapsedTime) {
  ru::Stopwatch watch;
  // Burn a little CPU deterministically.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
  EXPECT_GE(watch.elapsed_ms(), 1000.0 * watch.elapsed_seconds() * 0.0);  // non-negative ms
  const double before_reset = watch.elapsed_seconds();
  watch.reset();
  EXPECT_LE(watch.elapsed_seconds(), before_reset + 1.0);
}

// ---------------------------------------------------------------- Subsets

TEST(Subsets, BinomialKnownValues) {
  EXPECT_EQ(ru::binomial(6, 0), 1u);
  EXPECT_EQ(ru::binomial(6, 1), 6u);
  EXPECT_EQ(ru::binomial(6, 3), 20u);
  EXPECT_EQ(ru::binomial(6, 6), 1u);
  EXPECT_EQ(ru::binomial(3, 5), 0u);
  EXPECT_EQ(ru::binomial(52, 5), 2598960u);
}

TEST(Subsets, EnumeratesAllUniqueSorted) {
  std::set<std::vector<std::size_t>> seen;
  ru::for_each_subset(6, 3, [&](const std::vector<std::size_t>& s) {
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_TRUE(seen.insert(s).second) << "duplicate subset";
    return true;
  });
  EXPECT_EQ(seen.size(), ru::binomial(6, 3));
}

TEST(Subsets, EnumerationMatchesBinomialAcrossSizes) {
  for (std::size_t n = 0; n <= 8; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      std::size_t count = 0;
      ru::for_each_subset(n, k, [&](const auto&) {
        ++count;
        return true;
      });
      EXPECT_EQ(count, ru::binomial(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Subsets, EarlyStopReturnsFalse) {
  std::size_t count = 0;
  const bool completed = ru::for_each_subset(5, 2, [&](const auto&) { return ++count < 3; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3u);
}

TEST(Subsets, SubsetOfPoolPreservesElements) {
  const std::vector<std::size_t> pool = {10, 20, 30};
  std::vector<std::vector<std::size_t>> out;
  ru::for_each_subset_of(pool, 2, [&](const std::vector<std::size_t>& s) {
    out.push_back(s);
    return true;
  });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (std::vector<std::size_t>{10, 20}));
  EXPECT_EQ(out[2], (std::vector<std::size_t>{20, 30}));
}

TEST(Subsets, ComplementIsSetComplement) {
  EXPECT_EQ(ru::complement(5, {1, 3}), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(ru::complement(3, {}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(ru::complement(3, {0, 1, 2}), (std::vector<std::size_t>{}));
}

TEST(Subsets, ZeroSizedSubsetInvokedOnce) {
  std::size_t count = 0;
  ru::for_each_subset(4, 0, [&](const std::vector<std::size_t>& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}
