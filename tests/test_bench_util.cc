/**
 * @file
 * Tests for the bench harness helpers: the shared bench flags on the
 * one flag parser, and CSV emission.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace looppoint::bench {
namespace {

/** A bench's flag set: --quick, --full, --app, --csv and --scale. */
struct BenchFlags
{
    bool quick = false;
    bool full = false;
    std::string app = "default-app";
    std::string csvDir;
    uint64_t scale = 1000;

    void
    parse(std::initializer_list<const char *> list)
    {
        std::vector<const char *> argv{"bench"};
        argv.insert(argv.end(), list);
        parseFlags({"bench",
                    "[options]",
                    {quickFlag(quick), fullFlag(full), appFlag(app),
                     csvFlag(csvDir),
                     {"scale", 0, "N", "scale factor", setUnsigned(scale)}}},
                   static_cast<int>(argv.size()), argv.data());
    }
};

TEST(BenchArgs, HasDetectsBareAndValuedFlags)
{
    BenchFlags f;
    f.parse({"--quick", "--app=619.lbm_s.1"});
    EXPECT_TRUE(f.quick);
    EXPECT_EQ(f.app, "619.lbm_s.1");
    EXPECT_FALSE(f.full);
    // No prefix matching, and a typo is rejected instead of silently
    // running the long sweep.
    EXPECT_THROW(BenchFlags().parse({"--qui"}), UsageError);
    EXPECT_THROW(BenchFlags().parse({"--quik"}), UsageError);
}

TEST(BenchArgs, GetReturnsValueOrDefault)
{
    BenchFlags f;
    f.parse({"--app=npb-cg", "--scale=250"});
    EXPECT_EQ(f.app, "npb-cg");
    EXPECT_EQ(f.scale, 250u);
    EXPECT_EQ(f.csvDir, ""); // absent: CSV stays off

    BenchFlags g;
    g.parse({});
    EXPECT_EQ(g.app, "default-app");
    EXPECT_EQ(g.scale, 1000u);

    BenchFlags h;
    h.parse({"--app", "npb-cg", "--scale", "7"});
    EXPECT_EQ(h.app, "npb-cg");
    EXPECT_EQ(h.scale, 7u);
}

TEST(BenchArgs, BareFlagHasNoValue)
{
    // A boolean flag takes no value: not attached, and it leaves the
    // next argument alone (a positional, which no bench accepts).
    EXPECT_THROW(BenchFlags().parse({"--quick=7"}), UsageError);
    EXPECT_THROW(BenchFlags().parse({"--quick", "7"}), UsageError);

    // --csv's value is optional and only ever attached.
    BenchFlags f;
    f.parse({"--csv", "--quick"});
    EXPECT_EQ(f.csvDir, ".");
    EXPECT_TRUE(f.quick);
    BenchFlags g;
    g.parse({"--csv=plots"});
    EXPECT_EQ(g.csvDir, "plots");
    EXPECT_FALSE(CsvFile("", "never").enabled());
}

} // namespace
} // namespace looppoint::bench
