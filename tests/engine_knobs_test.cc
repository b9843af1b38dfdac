// The EngineConfig knob table (gthinker/engine_config.h) is the one
// description of every engine knob: it drives the flags of qcm_mine,
// qcm_cluster and tau_sweep, their --help, and the wire codec. These
// tests walk the table itself; tests/cluster_e2e_test.cc drives the
// shipped binaries' exit codes and --help.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "gthinker/engine_config.h"
#include "net/job_spec.h"

namespace qcm {
namespace {

constexpr KnobTool kTools[] = {kQcmMine, kQcmCluster, kTauSweep};

/// ParseFlags over `args` (argv[0] is supplied).
std::optional<int> Parse(const std::vector<Flag>& flags,
                         std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return ParseFlags("tool [flags]", flags, static_cast<int>(argv.size()),
                    argv.data());
}

/// Moves a value off its default: flips a bool, bumps a number, extends a
/// string, picks another mode.
void Perturb(OptionRef value) {
  std::visit(
      [](auto* v) {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          *v = !*v;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *v += "/knob";
        } else if constexpr (std::is_same_v<T, DecomposeMode>) {
          *v = *v == DecomposeMode::kNone ? DecomposeMode::kSizeThreshold
                                          : DecomposeMode::kNone;
        } else {
          *v = *v + 1;
        }
      },
      value);
}

TEST(EngineKnobsTest, RowsAreWellFormed) {
  std::set<std::string> names;
  std::set<std::string> flags;
  for (const EngineKnob& knob : EngineKnobs()) {
    SCOPED_TRACE(knob.name);
    EXPECT_TRUE(names.insert(knob.name).second) << "duplicate row";
    EXPECT_NE(knob.help, nullptr);
    EngineConfig config;
    const bool is_bool = std::holds_alternative<bool*>(knob.field(&config));
    if (knob.flag == nullptr) {
      EXPECT_EQ(knob.tools, 0u) << "a shipped-only row has no tools";
      continue;
    }
    EXPECT_NE(knob.tools, 0u) << "a flag no tool accepts";
    EXPECT_TRUE(flags.insert(knob.flag).second) << "duplicate flag";
    // A bool flag is a switch that turns its knob on.
    EXPECT_EQ(knob.metavar == nullptr, is_bool);
    if (is_bool) {
      EXPECT_FALSE(*std::get<bool*>(knob.field(&config)));
    }
  }
}

TEST(EngineKnobsTest, StrictParsingRejectsMalformedValues) {
  EngineConfig config;
  uint32_t u32 = 7;
  int i32 = 7;
  uint64_t u64 = 7;
  double f64 = 7;
  DecomposeMode mode = DecomposeMode::kNone;
  EXPECT_FALSE(ParseOptionValue("-1", &u32).ok());
  EXPECT_FALSE(ParseOptionValue("99999999999", &u32).ok());
  EXPECT_FALSE(ParseOptionValue("-1", &u64).ok());
  EXPECT_FALSE(ParseOptionValue("2x", &i32).ok());
  EXPECT_FALSE(ParseOptionValue("99999999999", &i32).ok());
  EXPECT_FALSE(ParseOptionValue(" 2", &i32).ok());
  EXPECT_FALSE(ParseOptionValue("", &i32).ok());
  EXPECT_FALSE(ParseOptionValue("0.85abc", &f64).ok());
  EXPECT_FALSE(ParseOptionValue("nan", &f64).ok());
  EXPECT_FALSE(ParseOptionValue("inf", &f64).ok());
  EXPECT_FALSE(ParseOptionValue("fast", &mode).ok());
  // Nothing was written by a rejected parse.
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(i32, 7);
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(f64, 7);
  EXPECT_EQ(mode, DecomposeMode::kNone);

  ASSERT_TRUE(ParseOptionValue("4294967295", &u32).ok());
  EXPECT_EQ(u32, 4294967295u);
  ASSERT_TRUE(ParseOptionValue("-3", &i32).ok());
  EXPECT_EQ(i32, -3);
  ASSERT_TRUE(ParseOptionValue("1e-3", &f64).ok());
  EXPECT_EQ(f64, 1e-3);
  ASSERT_TRUE(ParseOptionValue("size", &mode).ok());
  EXPECT_EQ(mode, DecomposeMode::kSizeThreshold);

  const std::vector<Flag> flags = EngineFlags(kQcmMine, &config);
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--min-size", "-1"},
           {"--tau-split", "-1"},
           {"--tau-split", "99999999999"},
           {"--threads", "2x"},
           {"--gamma", "0.85abc"},
           {"--cache-capacity", "-1"},
           {"--gamma"},
           {"--no-such-flag"},
           {"--net-coalesce-bytes", "1400"},  // a qcm_cluster-only knob
       }) {
    EXPECT_EQ(Parse(flags, args), std::optional<int>(2)) << args[0];
  }
  EXPECT_EQ(Parse(flags, {"--help"}), std::optional<int>(0));
  EXPECT_EQ(Parse(flags, {"--gamma", "0.75", "--prefetch"}), std::nullopt);
  EXPECT_EQ(config.mining.gamma, 0.75);
  EXPECT_TRUE(config.spawn_prefetch);
}

// Every row: a non-default value parses through each tool that carries
// the flag, survives EncodeJobSpec/DecodeJobSpec, and shows in --help.
TEST(EngineKnobsTest, EveryRowParsesShipsAndIsDocumented) {
  EngineConfig base;
  base.graph_snapshot = "/tmp/graph.qcsr";  // a job spec needs one
  for (const EngineKnob& knob : EngineKnobs()) {
    SCOPED_TRACE(knob.name);
    EngineConfig want = base;
    Perturb(knob.field(&want));
    const std::string text = FormatOptionValue(knob.field(&want));
    ASSERT_NE(text, FormatOptionValue(knob.field(&base)));

    std::vector<EngineConfig> parsed;
    if (knob.flag == nullptr) parsed.push_back(want);
    for (KnobTool tool : kTools) {
      if ((knob.tools & tool) == 0) continue;
      EngineConfig config = base;
      const std::vector<Flag> flags = EngineFlags(tool, &config);
      std::vector<std::string> args = {knob.flag};
      if (knob.metavar != nullptr) args.push_back(text);
      ASSERT_EQ(Parse(flags, args), std::nullopt) << tool;
      EXPECT_EQ(FormatOptionValue(knob.field(&config)), text) << tool;
      const std::string help = FlagHelp("tool", flags);
      EXPECT_NE(help.find(std::string("  ") + knob.flag + " "),
                std::string::npos)
          << help;
      parsed.push_back(config);
    }
    ASSERT_FALSE(parsed.empty());
    for (const EngineConfig& config : parsed) {
      ClusterJobSpec spec;
      spec.config = config;
      ClusterJobSpec out;
      ASSERT_TRUE(DecodeJobSpec(EncodeJobSpec(spec), &out).ok());
      EXPECT_EQ(FormatOptionValue(knob.field(&out.config)), text);
      EXPECT_EQ(EncodeJobSpec(out), EncodeJobSpec(spec));
    }
  }
}

TEST(EngineKnobsTest, HelpShowsTheDefaultsOfTheConfigParsedInto) {
  EngineConfig config;
  config.num_machines = 5;
  const std::string help = FlagHelp("tool", EngineFlags(kQcmMine, &config));
  EXPECT_NE(help.find("simulated machines (default 5)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("(default time)"), std::string::npos) << help;
  EXPECT_EQ(help.find("--net-coalesce-bytes"), std::string::npos) << help;
}

}  // namespace
}  // namespace qcm
