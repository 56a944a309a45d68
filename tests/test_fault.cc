/**
 * @file
 * Fault-tolerance layer tests, part 1: the building blocks. CRC32
 * checksums, FaultPlan parsing and application, and — the bulk — the
 * integrity-checked artifact loaders: per-byte-class corruption,
 * truncated streams, hostile in-range-but-wrong payloads, the legacy
 * v1 fallback, and the exhaustive no-fatal guard (every single-byte
 * flip and every truncation prefix of a valid artifact must come back
 * as a structured LoadError, never an exception).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "isa/program_builder.hh"
#include "pinball/pinball.hh"
#include "pinball/pinball_io.hh"
#include "util/checksum.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace looppoint {
namespace {

// ---------------------------------------------------------------- CRC32

TEST(Checksum, MatchesZlibKnownVectors)
{
    // The classic IEEE CRC32 check value: crc32(b"123456789").
    EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string_view("")), 0u);
    // python3 -c "import zlib; print(hex(zlib.crc32(b'hello')))"
    EXPECT_EQ(crc32(std::string_view("hello")), 0x3610A686u);
}

TEST(Checksum, SeedChainsIncrementalUpdates)
{
    const std::string a = "region ", b = "pinball";
    EXPECT_EQ(crc32(b, crc32(a)), crc32(a + b));
}

TEST(Checksum, HexRoundTrip)
{
    EXPECT_EQ(crcHex(0xCBF43926u), "cbf43926");
    EXPECT_EQ(crcHex(0u), "00000000");
    for (uint32_t v : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu}) {
        uint32_t back = 0;
        ASSERT_TRUE(parseCrcHex(crcHex(v), back));
        EXPECT_EQ(back, v);
    }
}

TEST(Checksum, HexParseRejectsMalformedInput)
{
    uint32_t out = 12345;
    EXPECT_FALSE(parseCrcHex("", out));
    EXPECT_FALSE(parseCrcHex("cbf4392", out));    // 7 digits
    EXPECT_FALSE(parseCrcHex("cbf439261", out));  // 9 digits
    EXPECT_FALSE(parseCrcHex("cbf4392x", out));   // non-hex
    EXPECT_FALSE(parseCrcHex("CBF43926", out));   // not canonical case
    EXPECT_EQ(out, 12345u); // untouched on failure
}

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, EmptySpecYieldsEmptyPlan)
{
    FaultPlan plan = FaultPlan::parse("");
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.simFault(0, 0).has_value());
}

TEST(FaultPlan, ParsesSimClauses)
{
    FaultPlan plan = FaultPlan::parse(
        "sim:region=3,kind=throw;sim:region=7,kind=diverge;"
        "sim:region=9,kind=kill,times=2");
    ASSERT_EQ(plan.specs().size(), 3u);
    EXPECT_EQ(plan.specs()[0].site, FaultSpec::Site::Sim);
    EXPECT_EQ(plan.specs()[0].kind, FaultSpec::Kind::Throw);
    EXPECT_EQ(plan.specs()[0].region, 3u);
    EXPECT_EQ(plan.specs()[0].times, 0u);
    EXPECT_EQ(plan.specs()[1].kind, FaultSpec::Kind::Diverge);
    EXPECT_EQ(plan.specs()[2].kind, FaultSpec::Kind::Kill);
    EXPECT_EQ(plan.specs()[2].times, 2u);
}

TEST(FaultPlan, SimFaultHonorsTimesBudget)
{
    FaultPlan plan = FaultPlan::parse("sim:region=3,kind=throw,times=1");
    ASSERT_TRUE(plan.simFault(3, 0).has_value());
    EXPECT_EQ(*plan.simFault(3, 0), FaultSpec::Kind::Throw);
    EXPECT_FALSE(plan.simFault(3, 1).has_value()); // budget spent
    EXPECT_FALSE(plan.simFault(2, 0).has_value()); // other region

    // times=0 (the default) matches every attempt.
    FaultPlan all = FaultPlan::parse("sim:region=3,kind=diverge");
    EXPECT_TRUE(all.simFault(3, 0).has_value());
    EXPECT_TRUE(all.simFault(3, 99).has_value());
}

TEST(FaultPlan, SimKindDefaultsToThrow)
{
    FaultPlan plan = FaultPlan::parse("sim:region=5");
    ASSERT_EQ(plan.specs().size(), 1u);
    EXPECT_EQ(plan.specs()[0].kind, FaultSpec::Kind::Throw);
}

TEST(FaultPlan, CorruptFlipsRequestedByteModuloSize)
{
    FaultPlan plan = FaultPlan::parse("corrupt:byte=17");
    std::string bytes(32, 'a');
    std::string expect = bytes;
    expect[17] = static_cast<char>('a' ^ 0xFF);
    plan.corrupt(bytes);
    EXPECT_EQ(bytes, expect);

    // Offsets wrap instead of indexing out of range.
    std::string small(4, 'b');
    std::string expect_small = small;
    expect_small[17 % 4] = static_cast<char>('b' ^ 0xFF);
    plan.corrupt(small);
    EXPECT_EQ(small, expect_small);

    // Empty payloads are left alone (no UB, no crash).
    std::string empty;
    plan.corrupt(empty);
    EXPECT_TRUE(empty.empty());
}

TEST(FaultPlan, SeededCorruptionIsDeterministic)
{
    FaultPlan plan = FaultPlan::parse("corrupt:byte=rand,seed=7");
    std::string a(64, 'x'), b(64, 'x');
    plan.corrupt(a);
    plan.corrupt(b);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, std::string(64, 'x')); // it did flip something

    // A different seed picks a different offset for this size.
    std::string c(64, 'x');
    FaultPlan::parse("corrupt:byte=rand,seed=8").corrupt(c);
    EXPECT_NE(c, a);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("noclausesite"), FatalError);
    EXPECT_THROW(FaultPlan::parse("bogus:region=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:kind=throw"), FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:region=x,kind=throw"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:region=1,kind=explode"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:region=1,what=ever"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:region=1;;sim:region=2"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("corrupt:seed=3"), FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:region"), FatalError);
    EXPECT_THROW(FaultPlan::parse("sim:region=1,kind=wedge"), FatalError);
}

// ------------------------------------------------ artifact fixtures

Program
makeSmallProgram()
{
    ProgramBuilder b("fault-fixture", 11);
    uint32_t k = b.beginKernel("k", SchedPolicy::DynamicFor, 48, 4);
    b.addStream({.footprintBytes = 1 << 14, .strideBytes = 8});
    b.addBlock({.numInstrs = 16, .fracMem = 0.25, .streams = {0}});
    b.addCritical(0, {.numInstrs = 6, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, 2);
    return b.build();
}

Pinball
makePinball()
{
    Program p = makeSmallProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    return recordPinball(p, cfg, 200);
}

std::string
serialize(const Pinball &pb)
{
    std::ostringstream os;
    pb.save(os);
    return os.str();
}

LoadResult<Pinball>
loadPinball(const std::string &bytes)
{
    std::istringstream is(bytes);
    return Pinball::tryLoad(is);
}

/** The payload bytes between the "length N\n" header and the
 * checksum trailer of a framed artifact. */
std::string
extractPayload(const std::string &artifact)
{
    const std::string tag = "\nlength ";
    size_t pos = artifact.find(tag);
    EXPECT_NE(pos, std::string::npos);
    pos += tag.size();
    size_t eol = artifact.find('\n', pos);
    EXPECT_NE(eol, std::string::npos);
    size_t length = std::stoull(artifact.substr(pos, eol - pos));
    return artifact.substr(eol + 1, length);
}

/** Re-frame a (tampered) payload with a *correct* CRC, so tests reach
 * the payload validation logic instead of tripping the checksum. */
std::string
reframe(const std::string &magic_base, const std::string &payload)
{
    std::ostringstream os;
    writeFramedArtifact(os, magic_base, 2, payload);
    return os.str();
}

/** Replace the first occurrence of `from` (must exist) with `to`. */
std::string
replaced(const std::string &text, const std::string &from,
         const std::string &to)
{
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << "missing '" << from << "'";
    std::string out = text;
    out.replace(pos, from.size(), to);
    return out;
}

constexpr const char *kPinMagic = "looppoint-pinball-v";

// ------------------------------------------- framing corruption classes

TEST(ArtifactIntegrity, PinballRoundTrips)
{
    Pinball pb = makePinball();
    auto result = loadPinball(serialize(pb));
    ASSERT_TRUE(result.ok()) << result.error().describe();
    EXPECT_EQ(result.value(), pb);
}

TEST(ArtifactIntegrity, CorruptMagicIsBadMagic)
{
    std::string bytes = serialize(makePinball());
    bytes[0] = 'X';
    auto result = loadPinball(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::BadMagic);
}

TEST(ArtifactIntegrity, FutureVersionIsUnknownVersion)
{
    std::string bytes = replaced(serialize(makePinball()),
                                 "looppoint-pinball-v2",
                                 "looppoint-pinball-v9");
    auto result = loadPinball(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::UnknownVersion);
}

TEST(ArtifactIntegrity, VersionFieldMagicDisagreementIsParse)
{
    std::string bytes = replaced(serialize(makePinball()),
                                 "\nversion 2\n", "\nversion 3\n");
    auto result = loadPinball(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Parse);
}

TEST(ArtifactIntegrity, FlippedPayloadByteIsBadChecksum)
{
    std::string bytes = serialize(makePinball());
    const std::string payload = extractPayload(bytes);
    size_t payload_at = bytes.find(payload);
    ASSERT_NE(payload_at, std::string::npos);
    bytes[payload_at + payload.size() / 2] ^= 0x01;
    auto result = loadPinball(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::BadChecksum);
}

TEST(ArtifactIntegrity, TamperedChecksumDigitIsBadChecksum)
{
    std::string bytes = serialize(makePinball());
    // Swap the final checksum digit for a different valid hex digit.
    size_t at = bytes.rfind("checksum ");
    ASSERT_NE(at, std::string::npos);
    char &digit = bytes[at + 9 + 7];
    digit = digit == 'a' ? 'b' : 'a';
    auto result = loadPinball(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::BadChecksum);
}

TEST(ArtifactIntegrity, TruncatedPayloadIsTruncated)
{
    std::string bytes = serialize(makePinball());
    auto result = loadPinball(bytes.substr(0, bytes.size() / 2));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Truncated);
}

TEST(ArtifactIntegrity, EmptyStreamIsTruncated)
{
    auto result = loadPinball("");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Truncated);
}

TEST(ArtifactIntegrity, FaultPlanCorruptionIsDetected)
{
    // The corrupt-site clause and the loader, end to end: flip one
    // artifact byte via the fault plan, the loader must notice.
    std::string bytes = serialize(makePinball());
    FaultPlan::parse("corrupt:byte=rand,seed=3").corrupt(bytes);
    EXPECT_FALSE(loadPinball(bytes).ok());
}

TEST(ArtifactIntegrity, LegacyApiThrowsFatalErrorOnCorruption)
{
    std::string bytes = serialize(makePinball());
    bytes[bytes.size() / 2] ^= 0xFF;
    std::istringstream is(bytes);
    EXPECT_THROW(Pinball::load(is), FatalError);

    std::string truncated = serialize(makePinball());
    truncated.resize(truncated.size() / 2);
    std::istringstream tis(truncated);
    EXPECT_THROW(Pinball::load(tis), FatalError);
}

// -------------------------------------------------- hostile payloads

TEST(HostileInput, ThreadCountTableMismatchIsValidation)
{
    Pinball pb = makePinball();
    pb.threadIcounts.pop_back();
    auto result = loadPinball(serialize(pb));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
    EXPECT_NE(result.error().message.find("icount table"),
              std::string::npos);
}

TEST(HostileInput, HugeThreadCountIsValidation)
{
    std::string payload = extractPayload(serialize(makePinball()));
    payload = replaced(payload, "threads 4", "threads 999999");
    auto result = loadPinball(reframe(kPinMagic, payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
}

TEST(HostileInput, IcountOverflowIsValidation)
{
    Pinball pb = makePinball();
    const uint64_t huge = UINT64_MAX;
    pb.threadIcounts.assign(pb.threadIcounts.size(), huge);
    pb.threadFilteredIcounts.assign(pb.threadFilteredIcounts.size(), 0);
    auto result = loadPinball(serialize(pb));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
    EXPECT_NE(result.error().message.find("overflow"),
              std::string::npos);
}

TEST(HostileInput, FilteredExceedingTotalIsValidation)
{
    Pinball pb = makePinball();
    pb.threadFilteredIcounts[0] = pb.threadIcounts[0] + 1;
    auto result = loadPinball(serialize(pb));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
    EXPECT_NE(result.error().message.find("exceeds"),
              std::string::npos);
}

TEST(HostileInput, OutOfRangeSyncTidIsValidation)
{
    Pinball pb = makePinball();
    ASSERT_FALSE(pb.log.lockOrder.empty());
    pb.log.lockOrder[0].push_back(99); // only 4 threads exist
    auto result = loadPinball(serialize(pb));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
    EXPECT_NE(result.error().message.find("tid"), std::string::npos);
}

TEST(HostileInput, DuplicateSyncRosterTidIsValidation)
{
    std::string payload = extractPayload(serialize(makePinball()));
    payload = replaced(payload, "synctids 4 0 1 2 3",
                       "synctids 4 0 1 1 3");
    auto result = loadPinball(reframe(kPinMagic, payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
}

TEST(HostileInput, UnsortedSyncRosterTidIsValidation)
{
    std::string payload = extractPayload(serialize(makePinball()));
    payload = replaced(payload, "synctids 4 0 1 2 3",
                       "synctids 4 0 1 0 3");
    auto result = loadPinball(reframe(kPinMagic, payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
    EXPECT_NE(result.error().message.find("unsorted"),
              std::string::npos);
}

TEST(HostileInput, RosterThreadCountMismatchIsValidation)
{
    std::string payload = extractPayload(serialize(makePinball()));
    payload = replaced(payload, "synctids 4 0 1 2 3",
                       "synctids 3 0 1 2");
    auto result = loadPinball(reframe(kPinMagic, payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
}

TEST(HostileInput, OversizedIcountTableClaimIsValidation)
{
    std::string payload = extractPayload(serialize(makePinball()));
    size_t at = payload.find("icounts 4");
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, 9, "icounts 4294967296");
    auto result = loadPinball(reframe(kPinMagic, payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, LoadErrorKind::Validation);
    EXPECT_NE(result.error().message.find("claims"), std::string::npos);
}

// ------------------------------------------------- legacy v1 fallback

/** A v1 artifact is the v1 magic line plus the bare payload — no
 * version/length lines, no checksum, no synctids roster. */
std::string
asLegacyV1(const std::string &magic_base, std::string payload)
{
    size_t at = payload.find("synctids ");
    EXPECT_NE(at, std::string::npos);
    size_t eol = payload.find('\n', at);
    payload.erase(at, eol - at + 1);
    return magic_base + "1\n" + payload;
}

TEST(LegacyFormat, PinballV1StillLoads)
{
    Pinball pb = makePinball();
    std::string v1 = asLegacyV1(kPinMagic,
                                extractPayload(serialize(pb)));
    auto result = loadPinball(v1);
    ASSERT_TRUE(result.ok()) << result.error().describe();
    EXPECT_EQ(result.value(), pb);
}

// ------------------------------------------------ exhaustive no-fatal

/**
 * The loader hardening guarantee behind the whole fault-tolerance
 * layer: *no* byte-level mutation of an artifact may escape as an
 * exception (the old fatal() behavior) or slip through as a clean
 * load. Every single-byte flip and every truncation prefix must come
 * back as a structured LoadError.
 */
template <typename T, typename LoadFn>
void
exhaustiveMutationGuard(const T &original, const std::string &bytes,
                        LoadFn load)
{
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string mutated = bytes;
        mutated[i] ^= 0xFF;
        SCOPED_TRACE("flip at byte " + std::to_string(i));
        ASSERT_NO_THROW({
            auto result = load(mutated);
            EXPECT_FALSE(result.ok());
        });
    }
    // Truncations must fail — except where only trailing whitespace
    // after the checksum is lost, in which case the load must still
    // be *exact* (no silent partial data).
    for (size_t len = 0; len < bytes.size(); ++len) {
        SCOPED_TRACE("truncate to " + std::to_string(len) + " bytes");
        ASSERT_NO_THROW({
            auto result = load(bytes.substr(0, len));
            if (result.ok()) {
                EXPECT_EQ(result.value(), original);
            }
        });
    }
}

TEST(NoFatalGuard, PinballSurvivesEveryFlipAndTruncation)
{
    Pinball pb = makePinball();
    exhaustiveMutationGuard(pb, serialize(pb), loadPinball);
}

} // namespace
} // namespace looppoint
