// The key=value spec codec (io/spec.h) and the two specs built on it:
// FaultSpec (--faults) and ObjectiveSpec (--objectives). Both also arrive
// from the wire inside reload frames, so the parser is a trust boundary:
// every value is checked against its field before it is stored.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "io/spec.h"
#include "service/adaptive/objective.h"
#include "service/resilience/fault_plan.h"
#include "stats/rng.h"

namespace locpriv::io {
namespace {

using service::FaultSpec;
using service::adaptive::ObjectiveSpec;

/// One field of every type the codec supports.
struct DemoSpec {
  double rate = 0.5;
  std::uint32_t slots = 8;
  std::uint64_t count = 0;
  std::int64_t offset = -1;
  std::string label = "x";
};

constexpr SpecKey<DemoSpec> kDemoKeys[] = {
    {"rate", &DemoSpec::rate},     {"slots", &DemoSpec::slots},
    {"count", &DemoSpec::count},   {"offset", &DemoSpec::offset},
    {"label", &DemoSpec::label},
};

DemoSpec parse_demo(std::string_view text) { return parse_spec(text, kDemoKeys, "demo spec"); }

/// The std::invalid_argument message parse() throws for `text`.
template <class Parse>
std::string rejection(Parse parse, const std::string& text) {
  try {
    (void)parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(SpecCodec, ParsesEveryFieldType) {
  const DemoSpec d = parse_demo("rate=0.25,slots=4294967295,count=1e3,offset=-7,label=a=b,,");
  EXPECT_DOUBLE_EQ(d.rate, 0.25);
  EXPECT_EQ(d.slots, 4294967295u);
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.offset, -7);
  EXPECT_EQ(d.label, "a=b");
  EXPECT_EQ(parse_demo("slots=1,slots=2").slots, 2u);  // last one wins
}

TEST(SpecCodec, ChecksEveryNumberAgainstItsField) {
  for (const char* bad : {"rate=nan", "rate=inf", "rate=-inf", "rate=1e400", "rate=abc",
                          "rate=", "slots=-1", "slots=4294967296", "slots=2.5",
                          "count=-1", "count=1.8446744073709552e19", "count=nan",
                          "offset=9.3e18", "offset=-9.3e18", "offset=0.5"}) {
    const std::string key = std::string(bad).substr(0, std::string(bad).find('='));
    const std::string message = rejection(parse_demo, bad);
    EXPECT_NE(message.find("demo spec: bad value for '" + key + "'"), std::string::npos)
        << bad << " -> " << message;
  }
  // The edges of each integer type are accepted.
  EXPECT_EQ(parse_demo("count=1.8446744073709550e19").count, 18446744073709549568u);
  EXPECT_EQ(parse_demo("offset=-9.2233720368547758e18").offset,
            std::numeric_limits<std::int64_t>::min());
}

TEST(SpecCodec, StructuralErrorsNameTheProblem) {
  EXPECT_NE(rejection(parse_demo, "rate").find("expected key=value, got 'rate'"),
            std::string::npos);
  const std::string unknown = rejection(parse_demo, "bogus=1");
  EXPECT_NE(unknown.find("unknown key 'bogus' (rate, slots, count, offset, label)"),
            std::string::npos)
      << unknown;
  EXPECT_EQ(spec_keys(kDemoKeys), "rate, slots, count, offset, label");
}

TEST(SpecCodec, FormatsOnlyNonDefaultKeysInTableOrder) {
  EXPECT_EQ(format_spec(DemoSpec{}, kDemoKeys), "");
  DemoSpec d;
  d.label = "y";
  d.rate = 0.1;
  d.count = 1ull << 60;
  EXPECT_EQ(format_spec(d, kDemoKeys),
            "rate=0.10000000000000001,count=1.152921504606847e+18,label=y");
  const DemoSpec again = parse_demo(format_spec(d, kDemoKeys));
  EXPECT_EQ(again.rate, d.rate);
  EXPECT_EQ(again.count, d.count);
  EXPECT_EQ(again.label, d.label);
}

// Values that once went straight through a float-to-integer cast: the
// first six were stored (wrapped or truncated), the last two reached the
// cast before validate() refused them. Each must be refused naming the
// key that carries the bad value.
TEST(SpecCodec, RefusesValuesItsFieldsCannotHold) {
  const auto faults = [](const std::string& s) { return service::parse_fault_spec(s); };
  const auto objectives = [](const std::string& s) {
    return service::adaptive::parse_objective_spec(s);
  };
  const struct {
    bool fault;
    const char* spec;
    const char* key;
  } cases[] = {
      {true, "latency_p=0.1,latency_us=-1", "latency_us"},
      {true, "burst_p=0.1,burst_len=-1", "burst_len"},
      {true, "burst_p=0.1,burst_len=nan", "burst_len"},
      {true, "stall_p=0.5,stall_us=1e12", "stall_us"},
      {false, "pr=0.5,pr_tol=0.1,period_n=-3", "period_n"},
      {false, "pr=0.5,pr_tol=0.1,window_n=1e40,min_n=24", "window_n"},
      {true, "skew_p=0.5,skew_s=1e300", "skew_s"},
      {false, "pr=0.5,pr_tol=0.1,cooldown_s=1e300", "cooldown_s"},
  };
  for (const auto& c : cases) {
    const std::string message =
        c.fault ? rejection(faults, c.spec) : rejection(objectives, c.spec);
    EXPECT_NE(message.find(std::string("'") + c.key + "'"), std::string::npos)
        << c.spec << " -> " << message;
  }
}

// -------------------------------------------------------------- fuzz

/// Every field of `a` equals the same field of `b` (NaN equals NaN).
template <class Spec, std::size_t N>
void expect_same_fields(const Spec& a, const Spec& b, const SpecKey<Spec> (&keys)[N],
                        const std::string& input) {
  for (const SpecKey<Spec>& key : keys) {
    std::visit(
        [&](auto member) {
          const auto& x = a.*member;
          const auto& y = b.*member;
          if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(x)>>) {
            EXPECT_TRUE(x == y || (std::isnan(x) && std::isnan(y)))
                << key.name << ": " << x << " vs " << y << " for " << input;
          } else {
            EXPECT_EQ(x, y) << key.name << " for " << input;
          }
        },
        key.field);
  }
}

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Parses `input`; when it parses, the canonical string must parse back
/// to the same fields. Anything but std::invalid_argument fails.
template <class Spec, std::size_t N, class Parse, class Print>
void check_one(const std::string& input, Parse parse, Print print, const SpecKey<Spec> (&keys)[N],
               Tally& tally) {
  try {
    const Spec x = parse(input);
    ++tally.accepted;
    const std::string canonical = print(x);
    try {
      expect_same_fields(x, parse(canonical), keys, input);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "canonical '" << canonical << "' of '" << input << "' rejected: "
                    << e.what();
    }
  } catch (const std::invalid_argument&) {
    ++tally.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception '" << e.what() << "' for input: " << input;
  }
}

// Seeded flips, inserts and deletes over the valid specs the service
// tests use, drawing from the characters the grammar reacts to and from
// whole key names, so mutations land on real keys with hostile values
// (signs, exponents, nan, inf). Every input must parse or be refused
// with std::invalid_argument; an accepted one must round-trip through
// its canonical string. The ASan/UBSan lane runs this same test with
// float-cast-overflow on.
TEST(SpecCodec, FuzzParsesOrThrowsInvalidArgumentAndRoundTrips) {
  const std::vector<std::string> fault_bases = {
      "fail=0.25,latency_p=0.1,latency_us=3000,stall_p=0.01,stall_us=2000,"
      "skew_p=0.05,skew_s=120,burst_p=0.02,burst_len=16",
      "fail=0.2,stall_p=0.05,stall_us=200,skew_p=0.1,skew_s=120,burst_p=0.02,burst_len=8",
      "burst_p=0.2,burst_len=8",
      "skew_p=0.5,skew_s=600",
      "fail=1",
  };
  const std::vector<std::string> objective_bases = {
      "pr=0.5,pr_tol=0.2,ut=0.9,ut_tol=0.1,period_n=16,window_n=64,min_n=8,max_step=0.4,"
      "cooldown_s=600,eps_min=0.001,eps_max=0.5,pr_slope=-2,ut_slope=0.5",
      "pr=0.2,pr_tol=0.1,pr_metric=poi-retrieval,ut_metric=mean-distortion",
      "pr=0.15,pr_tol=0.15,period_n=16,window_n=64,min_n=24",
  };
  std::vector<std::string> fragments;
  for (const auto& key : service::kFaultSpecKeys) fragments.emplace_back(key.name);
  for (const auto& key : service::adaptive::kObjectiveSpecKeys) fragments.emplace_back(key.name);
  for (const std::string& base : fault_bases) ASSERT_NO_THROW((void)service::parse_fault_spec(base));
  for (const std::string& base : objective_bases) {
    ASSERT_NO_THROW((void)service::adaptive::parse_objective_spec(base));
  }

  const auto parse_fault = [](const std::string& s) { return service::parse_fault_spec(s); };
  const auto print_fault = [](const FaultSpec& s) { return service::to_string(s); };
  const auto parse_objective = [](const std::string& s) {
    return service::adaptive::parse_objective_spec(s);
  };
  const auto print_objective = [](const ObjectiveSpec& s) {
    return service::adaptive::to_string(s);
  };

  static constexpr char kAlphabet[] = ",=-+.eE0123456789nafi_";
  constexpr std::size_t kAlphabetSize = sizeof(kAlphabet) - 1;  // drop the terminator
  stats::Rng rng(20161212);
  Tally faults;
  Tally objectives;
  for (int iter = 0; iter < 20000; ++iter) {
    const bool fault = iter % 2 == 0;
    const std::vector<std::string>& bases = fault ? fault_bases : objective_bases;
    std::string input = bases[rng.uniform_index(bases.size())];
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < mutations; ++m) {
      const std::string piece =
          rng.uniform_index(4) == 0
              ? fragments[rng.uniform_index(fragments.size())]
              : std::string(1, kAlphabet[rng.uniform_index(kAlphabetSize)]);
      const auto at = static_cast<std::ptrdiff_t>(rng.uniform_index(input.size() + 1));
      switch (rng.uniform_index(3)) {
        case 0:  // overwrite
          input.replace(static_cast<std::size_t>(at), piece.size(), piece);
          break;
        case 1:  // insert
          input.insert(input.begin() + at, piece.begin(), piece.end());
          break;
        default:  // delete
          if (!input.empty()) {
            input.erase(input.begin() +
                        static_cast<std::ptrdiff_t>(rng.uniform_index(input.size())));
          }
      }
    }
    if (fault) {
      check_one(input, parse_fault, print_fault, service::kFaultSpecKeys, faults);
    } else {
      check_one(input, parse_objective, print_objective, service::adaptive::kObjectiveSpecKeys,
                objectives);
    }
  }
  // Both outcomes must be common, or the fuzz is testing nothing. The
  // split is fixed by the seed; a change to what the parsers accept
  // moves it and must be reviewed here.
  EXPECT_EQ(faults.accepted, 306u);
  EXPECT_EQ(faults.rejected, 9694u);
  EXPECT_EQ(objectives.accepted, 1044u);
  EXPECT_EQ(objectives.rejected, 8956u);
}

}  // namespace
}  // namespace locpriv::io
