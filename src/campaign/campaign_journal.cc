#include "campaign/campaign_journal.hh"

#include <algorithm>

namespace looppoint {

namespace {

constexpr const char *kJournalMagic = "looppoint-campaign-journal-v1";

} // namespace

CampaignJournal::CampaignJournal(std::string path,
                                 std::string fingerprint)
    : log(std::move(path), {kJournalMagic, "key fp=" + fingerprint},
          "campaign journal", "campaign.journal")
{
}

std::optional<LoadError>
CampaignJournal::load(bool must_exist)
{
    std::lock_guard<std::mutex> lock(mu);
    records.clear();
    return log.open(must_exist, [&](const std::string &payload) {
        auto ev = parseCampaignEvent(payload);
        if (ev)
            records.push_back(std::move(*ev));
        return ev.has_value();
    });
}

void
CampaignJournal::append(const CampaignEvent &ev)
{
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(ev);
    log.append(encodeCampaignEvent(ev));
}

std::map<uint32_t, CampaignJournal::Ledger>
CampaignJournal::ledgers() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::map<uint32_t, Ledger> out;
    for (const auto &ev : records) {
        Ledger &l = out[ev.index];
        if (ev.event == "launch") {
            l.attempts = std::max(l.attempts, ev.attempt + 1);
        } else if (ev.event == "ok" || ev.event == "degraded") {
            l.completed = true;
            l.finalStatus = ev.event;
        } else if (ev.event == "stale") {
            // A completion whose result later failed validation: the
            // job must run again.
            l.completed = false;
            l.finalStatus.clear();
        }
    }
    return out;
}

std::vector<CampaignEvent>
CampaignJournal::events() const
{
    std::lock_guard<std::mutex> lock(mu);
    return records;
}

} // namespace looppoint
