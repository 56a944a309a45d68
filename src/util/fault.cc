#include "util/fault.hh"

#include "util/flags.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace looppoint {

namespace {

uint64_t
parseUint(const std::string &clause, const std::string &key,
          const std::string &value)
{
    try {
        return parseUnsigned(value);
    } catch (const UsageError &e) {
        fatal("--inject-fault: '%s' needs a non-negative integer for "
              "'%s': %s", clause.c_str(), key.c_str(), e.what());
    }
}

FaultSpec
parseClause(const std::string &clause)
{
    const size_t colon = clause.find(':');
    if (colon == std::string::npos)
        fatal("--inject-fault: clause '%s' is missing the 'site:' "
              "prefix (expected sim: or corrupt:)", clause.c_str());
    const std::string site = clause.substr(0, colon);

    FaultSpec spec;
    bool have_region = false, have_byte = false, have_kind = false;
    bool have_index = false;
    for (const std::string &kv : splitList(clause.substr(colon + 1))) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("--inject-fault: '%s' in clause '%s' is not "
                  "key=value", kv.c_str(), clause.c_str());
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "region") {
            spec.region = static_cast<uint32_t>(
                parseUint(clause, key, value));
            have_region = true;
        } else if (key == "index") {
            spec.region = static_cast<uint32_t>(
                parseUint(clause, key, value));
            have_index = true;
        } else if (key == "kind") {
            have_kind = true;
            if (value == "throw")
                spec.kind = FaultSpec::Kind::Throw;
            else if (value == "diverge")
                spec.kind = FaultSpec::Kind::Diverge;
            else if (value == "kill")
                spec.kind = FaultSpec::Kind::Kill;
            else if (value == "wedge")
                spec.kind = FaultSpec::Kind::Wedge;
            else if (value == "interrupt")
                spec.kind = FaultSpec::Kind::Interrupt;
            else if (value == "crash")
                spec.kind = FaultSpec::Kind::Crash;
            else if (value == "corrupt-result")
                spec.kind = FaultSpec::Kind::CorruptResult;
            else
                fatal("--inject-fault: unknown kind '%s' (expected "
                      "throw, diverge, kill, wedge, interrupt, crash, "
                      "or corrupt-result)", value.c_str());
        } else if (key == "times") {
            spec.times = static_cast<uint32_t>(
                parseUint(clause, key, value));
        } else if (key == "byte") {
            have_byte = true;
            if (value == "rand")
                spec.byte = 0; // resolved from the seed at apply time
            else
                spec.byte = parseUint(clause, key, value);
            if (value == "rand" && !spec.seed)
                spec.seed = 0; // default seed; overridable below
        } else if (key == "seed") {
            spec.seed = parseUint(clause, key, value);
        } else {
            fatal("--inject-fault: unknown key '%s' in clause '%s'",
                  key.c_str(), clause.c_str());
        }
    }

    if (site == "sim") {
        spec.site = FaultSpec::Site::Sim;
        if (!have_region)
            fatal("--inject-fault: sim clause '%s' needs region=N",
                  clause.c_str());
        if (!have_kind)
            spec.kind = FaultSpec::Kind::Throw;
        if (spec.kind == FaultSpec::Kind::Wedge)
            fatal("--inject-fault: sim clause '%s': kind=wedge is a "
                  "campaign job fault (job:index=N,kind=wedge); a "
                  "region simulation cannot hang", clause.c_str());
        if (spec.kind == FaultSpec::Kind::FlipByte ||
            spec.kind == FaultSpec::Kind::Crash ||
            spec.kind == FaultSpec::Kind::CorruptResult)
            fatal("--inject-fault: sim clause '%s' expects kind "
                  "throw, diverge, kill, or interrupt",
                  clause.c_str());
    } else if (site == "corrupt") {
        spec.site = FaultSpec::Site::Corrupt;
        spec.kind = FaultSpec::Kind::FlipByte;
        if (!have_byte)
            fatal("--inject-fault: corrupt clause '%s' needs byte=N "
                  "or byte=rand,seed=S", clause.c_str());
    } else if (site == "job") {
        spec.site = FaultSpec::Site::Job;
        if (!have_index)
            fatal("--inject-fault: job clause '%s' needs index=N",
                  clause.c_str());
        if (!have_kind)
            spec.kind = FaultSpec::Kind::Crash;
        if (spec.kind != FaultSpec::Kind::Crash &&
            spec.kind != FaultSpec::Kind::Wedge &&
            spec.kind != FaultSpec::Kind::CorruptResult)
            fatal("--inject-fault: job clause '%s' expects kind "
                  "crash, wedge, or corrupt-result", clause.c_str());
    } else {
        fatal("--inject-fault: unknown site '%s' (expected sim, "
              "corrupt, or job)", site.c_str());
    }
    return spec;
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    if (spec.empty())
        return plan;
    for (const std::string &clause : splitList(spec, ';')) {
        if (clause.empty())
            fatal("--inject-fault: empty clause in '%s'", spec.c_str());
        plan.clauses.push_back(parseClause(clause));
    }
    return plan;
}

std::optional<FaultSpec::Kind>
FaultPlan::simFault(uint32_t region, uint32_t attempt) const
{
    for (const FaultSpec &spec : clauses) {
        if (spec.site != FaultSpec::Site::Sim || spec.region != region)
            continue;
        if (spec.times != 0 && attempt >= spec.times)
            continue;
        return spec.kind;
    }
    return std::nullopt;
}

std::optional<FaultSpec::Kind>
FaultPlan::jobFault(uint32_t index, uint32_t attempt) const
{
    for (const FaultSpec &spec : clauses) {
        if (spec.site != FaultSpec::Site::Job || spec.region != index)
            continue;
        if (spec.times != 0 && attempt >= spec.times)
            continue;
        return spec.kind;
    }
    return std::nullopt;
}

void
FaultPlan::corrupt(std::string &bytes) const
{
    if (bytes.empty())
        return;
    for (const FaultSpec &spec : clauses) {
        if (spec.site != FaultSpec::Site::Corrupt)
            continue;
        uint64_t offset = spec.byte;
        if (spec.seed)
            offset = hashCombine(*spec.seed, bytes.size());
        bytes[static_cast<size_t>(offset % bytes.size())] ^=
            static_cast<char>(0xFF);
    }
}

} // namespace looppoint
