/**
 * @file
 * Structured load outcomes for checkpoint artifacts. Loaders that
 * consume bytes from outside the process (pinballs, store objects,
 * run journals) return a LoadResult instead of calling fatal(): a
 * distribution-scale deployment (paper Section II — checkpoints are
 * shared among many users and hosts) must treat malformed artifacts as
 * data, not as a reason to kill the whole run.
 */

#ifndef LOOPPOINT_UTIL_LOAD_RESULT_HH
#define LOOPPOINT_UTIL_LOAD_RESULT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace looppoint {

/** Failure classes a loader can report. */
enum class LoadErrorKind : uint8_t
{
    BadMagic,       ///< not this artifact type at all
    UnknownVersion, ///< a format version this build cannot read
    Truncated,      ///< the stream ended before the payload did
    BadChecksum,    ///< payload bytes do not match the stored CRC32
    Parse,          ///< structurally malformed payload
    Validation,     ///< parsed, but carries out-of-range values
    Io              ///< the file could not be opened or read at all
};

/** Printable name ("bad-magic", "truncated", ...). */
constexpr std::string_view
loadErrorKindName(LoadErrorKind kind)
{
    switch (kind) {
      case LoadErrorKind::BadMagic:
        return "bad-magic";
      case LoadErrorKind::UnknownVersion:
        return "unknown-version";
      case LoadErrorKind::Truncated:
        return "truncated";
      case LoadErrorKind::BadChecksum:
        return "bad-checksum";
      case LoadErrorKind::Parse:
        return "parse";
      case LoadErrorKind::Validation:
        return "validation";
      case LoadErrorKind::Io:
        return "io";
    }
    return "unknown";
}

/** One structured loader failure. */
struct LoadError
{
    LoadErrorKind kind = LoadErrorKind::Parse;
    std::string message;

    /** "truncated: icounts table ends early" */
    std::string
    describe() const
    {
        return std::string(loadErrorKindName(kind)) + ": " + message;
    }
};

/**
 * Either a successfully loaded T or a LoadError. A tiny expected<>
 * substitute: value() asserts ok() in the caller's hands, so check
 * first.
 */
template <typename T>
class LoadResult
{
  public:
    static LoadResult
    success(T value)
    {
        LoadResult r;
        r.val = std::move(value);
        return r;
    }

    static LoadResult
    failure(LoadErrorKind kind, std::string message)
    {
        LoadResult r;
        r.err = LoadError{kind, std::move(message)};
        return r;
    }

    static LoadResult
    failure(LoadError error)
    {
        LoadResult r;
        r.err = std::move(error);
        return r;
    }

    bool ok() const { return val.has_value(); }
    explicit operator bool() const { return ok(); }

    T &value() & { return *val; }
    const T &value() const & { return *val; }
    T &&value() && { return *std::move(val); }

    const LoadError &error() const { return *err; }

  private:
    std::optional<T> val;
    std::optional<LoadError> err;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_LOAD_RESULT_HH
