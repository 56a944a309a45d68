/**
 * @file
 * Unit tests for src/util: rng determinism and distributions, stats
 * helpers, logging error paths, the flag parser.
 */

#include <gtest/gtest.h>

#include "util/flags.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace looppoint {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicAndIndependent)
{
    Rng base(7);
    Rng f1 = base.fork("alpha");
    Rng f2 = base.fork("alpha");
    Rng f3 = base.fork("beta");
    EXPECT_EQ(f1.next(), f2.next());
    Rng f4 = base.fork("alpha");
    EXPECT_NE(f4.next(), f3.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(5);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++hits[r.nextBounded(8)];
    for (int h : hits)
        EXPECT_GT(h, 700); // each bucket near 1000
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(13);
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(17);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.nextGaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliProbability)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.nextBool(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(hashString("abc"), hashString("abc"));
    EXPECT_NE(hashString("abc"), hashString("abd"));
    EXPECT_NE(hashString(""), hashString("a"));
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), 1.1180339887, 1e-9);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, GeoMean)
{
    EXPECT_NEAR(geoMean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_NEAR(geoMean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs{10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
}

TEST(Stats, RelError)
{
    EXPECT_DOUBLE_EQ(relErrorPct(110, 100), 10.0);
    EXPECT_DOUBLE_EQ(relErrorPct(90, 100), -10.0);
    EXPECT_DOUBLE_EQ(absRelErrorPct(90, 100), 10.0);
    EXPECT_DOUBLE_EQ(relErrorPct(0, 0), 0.0);
}

TEST(Stats, RunningStats)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_NEAR(s.stddev(), 1.632993, 1e-5);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config %d", 7), FatalError);
    try {
        fatal("value was %d", 42);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value was 42");
    }
}

TEST(Logging, StrFormat)
{
    EXPECT_EQ(strFormat("%s-%04d", "x", 7), "x-0007");
}

/** A small tool's flags, parsed from a literal argv. */
struct ToolFlags
{
    std::string name = "dflt";
    std::vector<std::string> list{"a"};
    uint32_t n = 8;
    uint64_t big = 0;
    double seconds = 0.5;
    bool on = false;
    bool fullSim = true;

    CommandLine
    commandLine(size_t positionals = 0)
    {
        return {"tool",
                "[options]",
                {{"name", 'p', "NAME", "a string", setString(name)},
                 {"list", 0, "LIST", "a comma list", setList(list)},
                 {"ncores", 'n', "N", "a u32 in [1, 64]",
                  setUnsigned(n, 1, 64)},
                 {"big", 0, "N", "a u64", setUnsigned(big)},
                 {"seconds", 0, "SEC", "a double", setDouble(seconds)},
                 {"on", 0, "", "a boolean", setBool(on)},
                 {"no-fullsim", 0, "", "a negative boolean",
                  setBool(fullSim, false)}},
                "epilog text\n",
                positionals};
    }

    std::optional<std::vector<std::string>>
    parse(std::initializer_list<const char *> args, size_t positionals = 0)
    {
        std::vector<const char *> argv{"tool"};
        argv.insert(argv.end(), args);
        return parseFlags(commandLine(positionals),
                          static_cast<int>(argv.size()), argv.data());
    }
};

TEST(Flags, BothValueFormsAndShortAliases)
{
    ToolFlags a;
    ASSERT_TRUE(a.parse({"--name=x", "--ncores=4"}));
    EXPECT_EQ(a.name, "x");
    EXPECT_EQ(a.n, 4u);
    ToolFlags b;
    ASSERT_TRUE(b.parse({"--name", "y", "--ncores", "5"}));
    EXPECT_EQ(b.name, "y");
    EXPECT_EQ(b.n, 5u);
    ToolFlags c;
    ASSERT_TRUE(c.parse({"-p", "z", "-n", "6"}));
    EXPECT_EQ(c.name, "z");
    EXPECT_EQ(c.n, 6u);
    // A value may itself contain '=' and start with '-'.
    ToolFlags d;
    ASSERT_TRUE(d.parse({"--name=k=v", "-p", "-x"}));
    EXPECT_EQ(d.name, "-x");
    ToolFlags e;
    ASSERT_TRUE(e.parse({"--name=k=v"}));
    EXPECT_EQ(e.name, "k=v");
    // Untouched flags keep their defaults; the last occurrence wins.
    ToolFlags f;
    ASSERT_TRUE(f.parse({"-n", "2", "-n", "3"}));
    EXPECT_EQ(f.n, 3u);
    EXPECT_EQ(f.name, "dflt");
}

TEST(Flags, ListsAndBooleans)
{
    ToolFlags t;
    ASSERT_TRUE(t.parse({"--list=x,,y", "--on", "--no-fullsim"}));
    EXPECT_EQ(t.list, (std::vector<std::string>{"x", "", "y"}));
    EXPECT_TRUE(t.on);
    EXPECT_FALSE(t.fullSim);
    EXPECT_EQ(splitList(""), std::vector<std::string>{""});
    // A boolean takes no value, attached or following.
    EXPECT_THROW(ToolFlags().parse({"--on=1"}), UsageError);
    ToolFlags u;
    EXPECT_THROW(u.parse({"--on", "1"}), UsageError); // 1 is positional
    EXPECT_TRUE(u.on);
}

TEST(Flags, Positionals)
{
    ToolFlags t;
    auto pos = t.parse({"stats", "--big", "9", "DIR"}, 2);
    ASSERT_TRUE(pos);
    EXPECT_EQ(*pos, (std::vector<std::string>{"stats", "DIR"}));
    EXPECT_EQ(t.big, 9u);
    EXPECT_THROW(ToolFlags().parse({"stats"}, 2), UsageError);
    EXPECT_THROW(ToolFlags().parse({"a", "b", "c"}, 2), UsageError);
    EXPECT_THROW(ToolFlags().parse({"stray"}), UsageError);
    // A lone "-" is an argument, not a flag.
    auto dash = ToolFlags().parse({"-"}, 1);
    ASSERT_TRUE(dash);
    EXPECT_EQ(dash->front(), "-");
}

TEST(Flags, MalformedArgumentsAreUsageErrors)
{
    EXPECT_THROW(ToolFlags().parse({"--name"}), UsageError);   // no value
    EXPECT_THROW(ToolFlags().parse({"-p"}), UsageError);       // no value
    EXPECT_THROW(ToolFlags().parse({"--bogus"}), UsageError);  // unknown
    EXPECT_THROW(ToolFlags().parse({"--nam=x"}), UsageError);  // no prefixes
    EXPECT_THROW(ToolFlags().parse({"-x"}), UsageError);       // no alias
    EXPECT_THROW(ToolFlags().parse({"-px"}), UsageError);      // not -p x
    EXPECT_THROW(ToolFlags().parse({"-p=x"}), UsageError);
    EXPECT_THROW(ToolFlags().parse({"--"}), UsageError);
    try {
        ToolFlags().parse({"--ncores=4x"});
        FAIL() << "trailing garbage accepted";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("--ncores"), std::string::npos)
            << "the error names the flag: " << e.what();
    }
}

TEST(Flags, NumbersAreStrict)
{
    for (const char *bad : {"", "4x", "x4", "-1", "+1", " 1", "1 ", "0x10",
                            "1.5", "18446744073709551616"})
        EXPECT_THROW(parseUnsigned(bad), UsageError) << "'" << bad << "'";
    EXPECT_EQ(parseUnsigned("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseUnsigned("007"), 7u);
    EXPECT_EQ(parseUnsigned("64", 1, 64), 64u);
    EXPECT_THROW(parseUnsigned("65", 1, 64), UsageError);
    EXPECT_THROW(parseUnsigned("0", 1, 64), UsageError);

    // setUnsigned: the range bounds the value; a sign never wraps.
    EXPECT_THROW(ToolFlags().parse({"-n", "-1"}), UsageError);
    EXPECT_THROW(ToolFlags().parse({"-n", "4294967297"}), UsageError);
    EXPECT_THROW(ToolFlags().parse({"-n", "65"}), UsageError);
    EXPECT_THROW(ToolFlags().parse({"-n="}), UsageError);
    EXPECT_THROW(ToolFlags().parse({"--ncores="}), UsageError);
    uint32_t jobs = 0;
    EXPECT_THROW(setUnsigned(jobs, 0, 1024)("4294967295"), UsageError);
    EXPECT_EQ(jobs, 0u);

    for (const char *bad : {"", "-1", "+1", "1s", " 1", "nan", "inf",
                            "0x1p3", "1e999"})
        EXPECT_THROW(ToolFlags().parse({"--seconds", bad}), UsageError)
            << "'" << bad << "'";
    ToolFlags t;
    ASSERT_TRUE(t.parse({"--seconds=.25"}));
    EXPECT_DOUBLE_EQ(t.seconds, 0.25);
    ASSERT_TRUE(t.parse({"--seconds=1e3"}));
    EXPECT_DOUBLE_EQ(t.seconds, 1000.0);
}

TEST(Flags, SetterAndCheckErrorsBecomeUsageErrors)
{
    std::string seen;
    CommandLine cl{"tool",
                   "[options]",
                   {{"program", 'p', "NAME", "a checked name",
                     [](const std::string &v) {
                         fatal("unknown program '%s'", v.c_str());
                     }},
                    {"seen", 0, "X", "a string", setString(seen)}},
                   "",
                   0,
                   [&seen] {
                       if (seen == "bad")
                           fatal("--seen=bad is not allowed");
                   }};
    const char *argv1[] = {"tool", "-p", "zz"};
    EXPECT_THROW(parseFlags(cl, 3, argv1), UsageError);
    const char *argv2[] = {"tool", "--seen=bad"};
    EXPECT_THROW(parseFlags(cl, 2, argv2), UsageError);
    const char *argv3[] = {"tool", "--seen=ok"};
    EXPECT_TRUE(parseFlags(cl, 2, argv3));
}

TEST(Flags, HelpListsEveryTableEntry)
{
    ToolFlags t;
    const CommandLine cl = t.commandLine();
    EXPECT_FALSE(t.parse({"--on", "--help", "--bogus"}))
        << "--help stops parsing before later arguments";
    EXPECT_FALSE(ToolFlags().parse({"-h"}));

    const std::string help = helpText(cl);
    EXPECT_EQ(help.rfind("usage: tool [options]\n", 0), 0u) << help;
    for (const auto &f : cl.flags) {
        EXPECT_NE(help.find("--" + f.name), std::string::npos) << f.name;
        EXPECT_NE(help.find(f.help), std::string::npos) << f.name;
    }
    EXPECT_NE(help.find("-p, --name=NAME"), std::string::npos) << help;
    EXPECT_NE(help.find("    --on "), std::string::npos) << help;
    EXPECT_NE(help.find("-h, --help"), std::string::npos) << help;
    EXPECT_EQ(help.substr(help.size() - 12), "epilog text\n");

    // Long help wraps within 79 columns; a bracketed metavar shows as
    // an optional value.
    CommandLine wide{"tool",
                     "[options]",
                     {{"csv", 0, "[DIR]", std::string(40, 'w') + " " +
                                              std::string(40, 'w'),
                       setString(t.name)}}};
    const std::string wrapped = helpText(wide);
    EXPECT_NE(wrapped.find("--csv[=DIR]"), std::string::npos) << wrapped;
    size_t start = 0;
    for (size_t nl; (nl = wrapped.find('\n', start)) != std::string::npos;
         start = nl + 1)
        EXPECT_LE(nl - start, 79u) << wrapped;
}

TEST(Flags, OptionalValueIsOnlyEverAttached)
{
    std::string dir = "unset";
    bool on = false;
    CommandLine cl{"tool",
                   "[options]",
                   {{"csv", 0, "[DIR]", "optional value", setString(dir)},
                    {"on", 0, "", "a boolean", setBool(on)}},
                   "",
                   1};
    const char *bare[] = {"tool", "--csv", "pos"};
    auto pos = parseFlags(cl, 3, bare);
    ASSERT_TRUE(pos);
    EXPECT_EQ(dir, "");
    EXPECT_EQ(pos->front(), "pos");
    const char *attached[] = {"tool", "--csv=out", "pos"};
    ASSERT_TRUE(parseFlags(cl, 3, attached));
    EXPECT_EQ(dir, "out");
}

} // namespace
} // namespace looppoint
