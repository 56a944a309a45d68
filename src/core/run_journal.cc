#include "core/run_journal.hh"

#include <sstream>

#include "util/checksum.hh"

namespace looppoint {

namespace {

constexpr const char *kJournalMagic = "looppoint-journal-v1";

} // namespace

std::string
RunKey::encode() const
{
    std::ostringstream os;
    os << "key app=" << app << " input=" << input << " threads="
       << threads << " waitpolicy=" << waitPolicy << " seed=" << seed
       << " constrained=" << (constrained ? 1 : 0) << " sim="
       << crcHex(simFingerprint);
    return os.str();
}

RunKey
makeRunKey(const std::string &app, const std::string &input,
           uint32_t threads, WaitPolicy wait_policy, uint64_t seed,
           bool constrained, const SimConfig &sim_cfg)
{
    RunKey key;
    key.app = app;
    key.input = input;
    key.threads = threads;
    key.waitPolicy = waitPolicyName(wait_policy);
    key.seed = seed;
    key.constrained = constrained;
    key.simFingerprint = crc32(sim_cfg.uarchKeyText());
    return key;
}

RunJournal::RunJournal(std::string path, RunKey key)
    : log(std::move(path), {kJournalMagic, key.encode()}, "run journal",
          "journal")
{
}

std::optional<LoadError>
RunJournal::load(bool must_exist)
{
    std::lock_guard<std::mutex> lock(mu);
    records.clear();
    return log.open(must_exist, [&](const std::string &payload) {
        auto rec = parseJournalRecord(payload);
        if (rec)
            records.push_back(std::move(*rec));
        return rec.has_value();
    });
}

std::optional<RunJournal::Record>
RunJournal::find(uint32_t region_index, const Marker &start,
                 const Marker &end, double multiplier) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &r : records) {
        if (r.regionIndex == region_index && r.start == start &&
            r.end == end && r.multiplier == multiplier)
            return r;
    }
    return std::nullopt;
}

void
RunJournal::append(const Record &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(rec);
    log.append(encodeJournalRecord(rec));
}

size_t
RunJournal::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return records.size();
}

std::vector<RunJournal::Record>
RunJournal::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return records;
}

} // namespace looppoint
