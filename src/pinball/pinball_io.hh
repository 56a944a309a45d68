/**
 * @file
 * Shared serialization plumbing for framed artifacts (pinballs and
 * store objects): the integrity-checked framing — magic line, format
 * version, payload length, CRC32 trailer — plus the pinball's
 * order-table codec.
 *
 * Framing (version >= 2):
 *
 *   <magic-base><version>\n         e.g. looppoint-pinball-v2
 *   version <version>\n
 *   length <payload-bytes>\n
 *   <payload>                       exactly `length` bytes
 *   checksum <crc32-hex>\n          CRC32 of the payload bytes
 *
 * Version 1 artifacts (the legacy format: magic line followed by the
 * bare payload, no length or checksum) still load: readFramedArtifact
 * recognizes the v1 magic and slurps the rest of the stream as the
 * payload, so pre-existing checkpoints and fixtures remain usable.
 */

#ifndef LOOPPOINT_PINBALL_PINBALL_IO_HH
#define LOOPPOINT_PINBALL_PINBALL_IO_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/load_result.hh"

namespace looppoint {

/** A successfully de-framed artifact: its version and payload. */
struct FramedArtifact
{
    int version = 0;
    std::string payload;
};

/** Write the version/length/checksum framing around `payload`. */
void writeFramedArtifact(std::ostream &os, const std::string &magic_base,
                         int version, const std::string &payload);

/**
 * Read framing written by writeFramedArtifact (or a bare legacy v1
 * stream). `current_version` is the newest version this build parses;
 * newer artifacts report UnknownVersion.
 */
LoadResult<FramedArtifact> readFramedArtifact(std::istream &is,
                                              const std::string &magic_base,
                                              int current_version);

/** Serialize one tid order table ("locks"/"chunks" sections). */
void saveOrderTable(std::ostream &os, const char *tag,
                    const std::vector<std::vector<uint32_t>> &table);

/**
 * Parse an order table written by saveOrderTable into `out`. Returns
 * an error (with the offending table's tag in the message) instead of
 * calling fatal().
 */
std::optional<LoadError> loadOrderTable(
    std::istream &is, const char *tag,
    std::vector<std::vector<uint32_t>> &out);

/**
 * Serialize the participating-tid roster of the sync log (version >= 2
 * bodies): `synctids <n> 0 1 ... n-1`. Loaders require the roster to
 * be exactly [0, n) in order — duplicate or unsorted tids are how a
 * tampered sync log smuggles in threads the config never declared.
 */
void saveSyncTids(std::ostream &os, uint32_t num_threads);

/** Parse and validate a saveSyncTids() roster against `num_threads`. */
std::optional<LoadError> loadSyncTids(std::istream &is,
                                      uint32_t num_threads);

/**
 * Shared hostile-input checks over a parsed sync log + icount tables:
 * thread-count mismatches between the config and the tables, per-entry
 * filtered > total, total-icount overflow, and out-of-range tids in
 * the sync-log rows. `what` names the artifact in messages.
 */
std::optional<LoadError> validateExecutionRecord(
    const char *what, uint32_t num_threads,
    const std::vector<std::vector<uint32_t>> &lock_order,
    const std::vector<std::vector<uint32_t>> &chunk_order,
    const std::vector<uint64_t> &icounts,
    const std::vector<uint64_t> &filtered_icounts);

/** Largest thread count any artifact may declare (DoS guard: the
 * loaders allocate per-thread tables before validation completes). */
inline constexpr uint32_t kMaxArtifactThreads = 4096;

/** On extraction failure: Truncated when the stream ran dry, Parse
 * otherwise. */
LoadError streamError(const std::istream &is, const std::string &what);

} // namespace looppoint

#endif // LOOPPOINT_PINBALL_PINBALL_IO_HH
