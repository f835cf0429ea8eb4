#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/fault_program.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/value.h"

namespace teleios {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table 'x'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "table 'x'");
  EXPECT_EQ(st.ToString(), "NotFound: table 'x'");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, GovernorCodesRoundTrip) {
  // The resource-governor codes added with the overload-protection work.
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  Status exhausted = Status::ResourceExhausted("budget refused");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.message(), "budget refused");
  Status shed = Status::Unavailable("shedding load");
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.message(), "shedding load");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::ParseError("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Result<int> HelperReturnsEarly(bool fail) {
  TELEIOS_ASSIGN_OR_RETURN(int v, fail ? Result<int>(Status::Internal("x"))
                                       : Result<int>(7));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*HelperReturnsEarly(false), 8);
  EXPECT_FALSE(HelperReturnsEarly(true).ok());
}

TEST(StringsTest, EnvNumberGrammar) {
  const char* kVar = "TELEIOS_ENV_NUMBER_TEST";
  struct Case {
    const char* value;  // nullptr = unset
    uint64_t expected;
  };
  const Case cases[] = {
      {nullptr, 7},  {"", 7},           {"0", 0},
      {"42", 42},    {"64k", 64 << 10}, {"64K", 64 << 10},
      {"3m", 3 << 20}, {"3M", 3 << 20}, {"2g", uint64_t{2} << 30},
      {"2G", uint64_t{2} << 30},
      // Anything else keeps the default.
      {"64mb", 7},   {"64x", 7},        {"k", 7},
      {"-5", 7},     {" 5", 7},         {"5 ", 7},
      {"+5", 7},     {"1.5m", 7},       {"99999999999999999999", 7},
      {"17179869184g", 7},
  };
  for (const Case& c : cases) {
    if (c.value == nullptr) {
      ::unsetenv(kVar);
    } else {
      ::setenv(kVar, c.value, 1);
    }
    EXPECT_EQ(EnvNumber(kVar, 7), c.expected)
        << (c.value == nullptr ? "(unset)" : c.value);
  }
  ::unsetenv(kVar);
}

TEST(StringsTest, Split) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitEmpty) {
  auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  hello \t\n"), "hello");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(StrLower("SeLeCt"), "select");
  EXPECT_TRUE(StrEqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(StrEqualsIgnoreCase("WHERE", "wher"));
  EXPECT_TRUE(StrStartsWith("teleios.ter", "teleios"));
  EXPECT_TRUE(StrEndsWith("teleios.ter", ".ter"));
  EXPECT_FALSE(StrEndsWith("x", ".ter"));
}

TEST(StringsTest, ParseNumbers) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5e2"), 350.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{3}).AsInt64(), 3);
  EXPECT_DOUBLE_EQ(Value(2.5).AsFloat64(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(*Value(int64_t{4}).ToDouble(), 4.0);
  EXPECT_EQ(*Value(4.9).ToInt64(), 4);
  EXPECT_FALSE(Value("x").ToDouble().ok());
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(int64_t{0}).Truthy());
  EXPECT_TRUE(Value(int64_t{-1}).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value("x").Truthy());
}

TEST(ValueTest, CompareNumericAcrossTypes) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("a").Compare(Value("a")), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{12}).ToString(), "12");
  EXPECT_EQ(Value("s").ToString(), "s");
}

// The fault program every injection seam shares.

using Outcome = FaultProgram::Outcome;

TEST(FaultProgramTest, EveryNRepeatsAfterInjectAt) {
  FaultProgram program;
  FaultSchedule schedule;
  schedule.inject_at = 3;
  schedule.every_n = 2;
  program.Arm(schedule);
  std::vector<Outcome> fates;
  for (int i = 0; i < 8; ++i) fates.push_back(program.Next());
  // Ops 3, 5 and 7 fault; nothing before inject_at does.
  EXPECT_EQ(fates, (std::vector<Outcome>{
                       Outcome::kPass, Outcome::kPass, Outcome::kFault,
                       Outcome::kPass, Outcome::kFault, Outcome::kPass,
                       Outcome::kFault, Outcome::kPass}));
  EXPECT_EQ(program.ops(), 8u);
  EXPECT_EQ(program.faults(), 3u);
  EXPECT_FALSE(program.crashed());
}

TEST(FaultProgramTest, InjectAtZeroIsACountingProbe) {
  FaultProgram program;
  FaultSchedule probe;
  probe.inject_at = 0;
  probe.every_n = 1;
  probe.crash = true;
  program.Arm(probe);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(program.Next(), Outcome::kPass);
  EXPECT_EQ(program.ops(), 5u);
  EXPECT_EQ(program.faults(), 0u);
  // Re-arming resets the counters.
  program.Arm(FaultSchedule{});
  EXPECT_EQ(program.ops(), 0u);
  EXPECT_EQ(program.Next(), Outcome::kFault);
}

TEST(FaultProgramTest, CrashFailsEveryLaterOpAndKeepsCounting) {
  FaultProgram program;
  FaultSchedule schedule;
  schedule.inject_at = 2;
  schedule.crash = true;
  program.Arm(schedule);
  EXPECT_EQ(program.Next(), Outcome::kPass);
  EXPECT_EQ(program.Next(), Outcome::kFault);
  EXPECT_TRUE(program.crashed());
  EXPECT_EQ(program.Next(), Outcome::kCrashed);
  EXPECT_EQ(program.Next(/*applies=*/false), Outcome::kCrashed);
  EXPECT_EQ(program.ops(), 4u);
  EXPECT_EQ(program.faults(), 1u);
}

TEST(FaultProgramTest, InapplicableHitRecordsNoFaultAndNoCrash) {
  FaultProgram program;
  FaultSchedule schedule;
  schedule.inject_at = 1;
  schedule.crash = true;
  program.Arm(schedule);
  EXPECT_EQ(program.Next(/*applies=*/false), Outcome::kPass);
  EXPECT_EQ(program.faults(), 0u);
  EXPECT_FALSE(program.crashed());
  // The hit is spent: op 2 is past inject_at and nothing repeats.
  EXPECT_EQ(program.Next(), Outcome::kPass);
  EXPECT_EQ(program.ops(), 2u);
}

TEST(FaultProgramTest, DisarmPassesEverythingAndClearsTheCrash) {
  FaultProgram program;
  FaultSchedule schedule;
  schedule.inject_at = 1;
  schedule.every_n = 1;
  schedule.crash = true;
  program.Arm(schedule);
  EXPECT_EQ(program.Next(), Outcome::kFault);
  program.Disarm();
  EXPECT_FALSE(program.crashed());
  EXPECT_EQ(program.Next(), Outcome::kPass);
  EXPECT_EQ(program.Next(), Outcome::kPass);
  // Disarming keeps the counters.
  EXPECT_EQ(program.ops(), 3u);
  EXPECT_EQ(program.faults(), 1u);
}

TEST(LoggingTest, LevelGate) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  TELEIOS_LOG(Info) << "suppressed";
  SetLogLevel(old);
}

TEST(LoggingTest, ParseLogLevel) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARNING", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("  Error ", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("0", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_EQ(level, LogLevel::kError);  // untouched on failure
}

}  // namespace
}  // namespace teleios
