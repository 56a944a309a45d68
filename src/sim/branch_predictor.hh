/**
 * @file
 * Pentium M-style hybrid branch predictor (paper Table I).
 *
 * The Pentium M front end combines a bimodal predictor, a global
 * predictor, and a loop detector, selected by a meta predictor. This
 * model implements all four structures with 2-bit saturating counters
 * and a per-branch loop-trip detector, which is what the simulated
 * workloads exercise: highly regular loop back edges, data-dependent
 * diamonds, and constant runtime-library branches.
 */

#ifndef LOOPPOINT_SIM_BRANCH_PREDICTOR_HH
#define LOOPPOINT_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "isa/program.hh"

namespace looppoint {

/** Aggregate branch-prediction statistics. */
struct BranchStats
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    double
    missRate() const
    {
        return branches ? static_cast<double>(mispredicts) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/** See file comment. */
class PentiumMBranchPredictor
{
  public:
    PentiumMBranchPredictor();

    /**
     * Predict and train on one dynamic branch.
     * @return true if the prediction was correct.
     */
    bool predictAndTrain(Addr pc, bool taken);

    const BranchStats &stats() const { return bpStats; }
    void resetStats() { bpStats = BranchStats{}; }

    /**
     * Flat image of the predictor's learned state (tables + global
     * history; stats excluded — detailed simulation resets them on
     * entry). Both sides derive the fixed size from the table
     * geometry, so the image is position-independent.
     */
    size_t stateBytes() const;
    void exportState(void *mem) const;
    void importState(const void *mem);

  private:
    static constexpr uint32_t kBimodalBits = 12;
    static constexpr uint32_t kGlobalBits = 12;
    static constexpr uint32_t kMetaBits = 12;
    static constexpr uint32_t kLoopBits = 9;
    static constexpr uint32_t kHistoryBits = 12;

    static bool counterTaken(uint8_t c) { return c >= 2; }
    static uint8_t
    counterUpdate(uint8_t c, bool taken)
    {
        if (taken)
            return c < 3 ? c + 1 : 3;
        return c > 0 ? c - 1 : 0;
    }

    struct LoopEntry
    {
        uint32_t tag = 0;
        uint32_t tripCount = 0;   ///< learned trip count
        uint32_t currentIter = 0; ///< iterations seen this visit
        uint8_t confidence = 0;
        bool valid = false;
        /** Explicit padding, so exportState() copies no indeterminate
         * bytes into a checkpoint image. */
        uint8_t pad[2]{};
    };
    static_assert(std::has_unique_object_representations_v<LoopEntry>,
                  "LoopEntry is exported with memcpy: no implicit "
                  "padding");

    std::vector<uint8_t> bimodal;
    std::vector<uint8_t> global;
    std::vector<uint8_t> meta; ///< 0-1 prefer bimodal, 2-3 prefer global
    std::vector<LoopEntry> loop;
    uint32_t history = 0;
    BranchStats bpStats;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_BRANCH_PREDICTOR_HH
