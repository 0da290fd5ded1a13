/// \file test_support.cpp
/// \brief Unit tests for the support library.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"
#include "support/table_writer.hpp"

#include "scoped_env.hpp"

namespace fhp {
namespace {

// ---------------------------------------------------------------- strings

TEST(StringUtil, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t x\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtil, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitWsDropsEmptyFields) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("hugepages-2048kB", "hugepages-"));
  EXPECT_FALSE(starts_with("huge", "hugepages-"));
}

TEST(StringUtil, ParseIntAcceptsOnlyCleanIntegers) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_FALSE(parse_int("42x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
}

TEST(StringUtil, ParseRealHandlesFortranExponents) {
  EXPECT_DOUBLE_EQ(*parse_real("1.5e3"), 1500.0);
  EXPECT_DOUBLE_EQ(*parse_real("2.0d9"), 2.0e9);  // FLASH flash.par style
  EXPECT_DOUBLE_EQ(*parse_real("-3.5D-2"), -3.5e-2);
  EXPECT_FALSE(parse_real("abc").has_value());
  EXPECT_FALSE(parse_real("1.0 trailing").has_value());
}

TEST(StringUtil, ParseBoolAcceptsFortranSpellings) {
  EXPECT_EQ(parse_bool(".true."), true);
  EXPECT_EQ(parse_bool(".FALSE."), false);
  EXPECT_EQ(parse_bool("Yes"), true);
  EXPECT_EQ(parse_bool("off"), false);
  EXPECT_FALSE(parse_bool("maybe").has_value());
}

TEST(StringUtil, ParseSizeBytes) {
  EXPECT_EQ(parse_size_bytes("2M"), 2ull << 20);
  EXPECT_EQ(parse_size_bytes("512k"), 512ull << 10);
  EXPECT_EQ(parse_size_bytes("1G"), 1ull << 30);
  EXPECT_EQ(parse_size_bytes("123"), 123ull);
  EXPECT_FALSE(parse_size_bytes("-1M").has_value());
  EXPECT_FALSE(parse_size_bytes("").has_value());
}

TEST(StringUtil, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2ull << 20), "2.0 MiB");
  EXPECT_EQ(format_bytes(3ull << 30), "3.0 GiB");
}

// ------------------------------------------------------------------ errors

TEST(Error, RequireThrowsConfigErrorWithContext) {
  try {
    FHP_REQUIRE(1 == 2, "impossible arithmetic");
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("impossible arithmetic"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckThrowsInternalError) {
  EXPECT_THROW(FHP_CHECK(false, "invariant"), InternalError);
}

TEST(Error, SystemErrorCarriesErrno) {
  const SystemError e("open failed", ENOENT);
  EXPECT_EQ(e.errno_value(), ENOENT);
}

// --------------------------------------------------------- runtime params

TEST(RuntimeParams, DeclareAndGetRoundTrip) {
  RuntimeParams rp;
  rp.declare_bool("use_flame", true);
  rp.declare_int("nsteps", 50);
  rp.declare_real("cfl", 0.8);
  rp.declare_string("geometry", "cylindrical");
  EXPECT_TRUE(rp.get_bool("use_flame"));
  EXPECT_EQ(rp.get_int("nsteps"), 50);
  EXPECT_DOUBLE_EQ(rp.get_real("cfl"), 0.8);
  EXPECT_EQ(rp.get_string("geometry"), "cylindrical");
}

TEST(RuntimeParams, NamesAreCaseInsensitive) {
  RuntimeParams rp;
  rp.declare_real("CFL", 0.8);
  EXPECT_DOUBLE_EQ(rp.get_real("cfl"), 0.8);
  rp.set_real("Cfl", 0.5);
  EXPECT_DOUBLE_EQ(rp.get_real("CFL"), 0.5);
}

TEST(RuntimeParams, UnknownNameThrows) {
  RuntimeParams rp;
  EXPECT_THROW((void)rp.get_int("nope"), ConfigError);
  EXPECT_THROW(rp.set_int("nope", 1), ConfigError);
}

TEST(RuntimeParams, TypeMismatchThrows) {
  RuntimeParams rp;
  rp.declare_int("n", 1);
  EXPECT_THROW((void)rp.get_bool("n"), ConfigError);
  EXPECT_THROW((void)rp.get_string("n"), ConfigError);
  EXPECT_THROW(rp.set_real("n", 1.0), ConfigError);
}

TEST(RuntimeParams, GetRealPromotesInt) {
  RuntimeParams rp;
  rp.declare_int("n", 7);
  EXPECT_DOUBLE_EQ(rp.get_real("n"), 7.0);
}

TEST(RuntimeParams, RedeclareSameTypeKeepsOverride) {
  RuntimeParams rp;
  rp.declare_int("n", 1);
  rp.set_int("n", 5);
  rp.declare_int("n", 1);  // idempotent
  EXPECT_EQ(rp.get_int("n"), 5);
  EXPECT_THROW(rp.declare_real("n", 1.0), ConfigError);
}

TEST(RuntimeParams, ReadStringParsesFlashParGrammar) {
  RuntimeParams rp;
  rp.declare_real("rho_c", 1.0);
  rp.declare_int("lrefine_max", 1);
  rp.declare_bool("useflame", false);
  rp.declare_string("run_comment", "");
  rp.read_string(
      "# supernova run\n"
      "rho_c = 2.0e9   # central density\n"
      "lrefine_max = 5\n"
      "useflame = .true.\n"
      "run_comment = \"hybrid # CONe WD\"\n");
  EXPECT_DOUBLE_EQ(rp.get_real("rho_c"), 2.0e9);
  EXPECT_EQ(rp.get_int("lrefine_max"), 5);
  EXPECT_TRUE(rp.get_bool("useflame"));
  EXPECT_EQ(rp.get_string("run_comment"), "hybrid # CONe WD");
}

TEST(RuntimeParams, ReadStringRejectsUnknownUnlessAllowed) {
  RuntimeParams rp;
  EXPECT_THROW(rp.read_string("mystery = 1\n"), ConfigError);
  rp.read_string("mystery = 1\n", /*allow_unknown=*/true);
  EXPECT_EQ(rp.get_string("mystery"), "1");
}

TEST(RuntimeParams, ReadStringRejectsGarbageLines) {
  RuntimeParams rp;
  EXPECT_THROW(rp.read_string("not an assignment\n"), ConfigError);
  EXPECT_THROW(rp.read_string("= 3\n"), ConfigError);
}

TEST(RuntimeParams, CommandLineOverridesAndPositionals) {
  RuntimeParams rp;
  rp.declare_int("nsteps", 10);
  rp.declare_bool("verbose", false);
  const char* argv[] = {"prog", "--nsteps=99", "input.par", "--verbose"};
  const auto positional = rp.apply_command_line(4, argv);
  EXPECT_EQ(rp.get_int("nsteps"), 99);
  EXPECT_TRUE(rp.get_bool("verbose"));
  ASSERT_EQ(positional.size(), 1u);
  EXPECT_EQ(positional[0], "input.par");
}

TEST(RuntimeParams, CommandLineUnknownOptionThrows) {
  RuntimeParams rp;
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_THROW(rp.apply_command_line(2, argv), ConfigError);
}

TEST(RuntimeParams, DumpListsEverything) {
  RuntimeParams rp;
  rp.declare_int("alpha", 1, "doc for alpha");
  rp.declare_string("beta", "x");
  std::ostringstream os;
  rp.dump(os);
  EXPECT_NE(os.str().find("alpha = 1"), std::string::npos);
  EXPECT_NE(os.str().find("doc for alpha"), std::string::npos);
  EXPECT_NE(os.str().find("beta"), std::string::npos);
}

constexpr const char* kTestIntVar = "FLASHHP_TEST_INT";

TEST(EnvironmentInt, ParsesClampsAndRejects) {
  {
    const test::ScopedEnv env(kTestIntVar, "");
    EXPECT_EQ(positive_int_from_environment(kTestIntVar, 7), 7);  // unset
  }
  const auto read = [](const char* value, int ceiling) {
    const test::ScopedEnv env(kTestIntVar, value);
    return positive_int_from_environment(kTestIntVar, 7, ceiling);
  };
  EXPECT_EQ(read("25", INT_MAX), 25);
  EXPECT_EQ(read("99", 64), 64);
  // Beyond int and beyond every integer type: clamped, never wrapped.
  for (const char* oversized : {"3000000000", "99999999999999999999"}) {
    EXPECT_EQ(read(oversized, INT_MAX), INT_MAX) << oversized;
    EXPECT_EQ(read(oversized, 64), 64) << oversized;
  }
  for (const char* junk : {"0", "-3", "-99999999999999999999", "fast", "4x"}) {
    EXPECT_THROW(static_cast<void>(read(junk, INT_MAX)), ConfigError)
        << junk;
  }
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_LT(rng.uniform_index(n), n);
    }
  }
}

TEST(Rng, NormalHasUnitVarianceApproximately) {
  Rng rng(99);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, JumpYieldsIndependentStream) {
  Rng a(5);
  Rng b(5);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ------------------------------------------------------------ table writer

TEST(TableWriter, RendersAlignedColumns) {
  TableWriter t("title");
  t.set_header({"a", "long-header"});
  t.add_row({"xx", "1"});
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| xx"), std::string::npos);
}

TEST(TableWriter, RowWidthMismatchThrows) {
  TableWriter t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(TableWriter, FormatMeasureMatchesPaperStyle) {
  EXPECT_EQ(format_measure(1.25e11), "1.25e+11");
  EXPECT_EQ(format_measure(0.47), "0.47");
  EXPECT_EQ(format_measure(69.7), "69.7");
  EXPECT_EQ(format_measure(0.0), "0");
  EXPECT_EQ(format_measure(2.34e7), "2.34e+07");
}

}  // namespace
}  // namespace fhp
