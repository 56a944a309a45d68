/**
 * @file
 * Minimal JSON reader/escaper for the observability subsystem.
 *
 * The tracer and the campaign supervisor *emit* JSON (Chrome
 * trace-event files, status.json and job results); this header is the
 * matching *reader*: a small recursive-descent parser used by
 * `lp_report` to load those artifacts back and by the tests to
 * round-trip-validate every emitter. It
 * accepts exactly RFC 8259 JSON (no comments, no trailing commas) and
 * rejects trailing garbage, so "parses with JsonValue" is a meaningful
 * validity check for files destined for Perfetto / chrome://tracing.
 *
 * Deliberately not a general-purpose DOM: numbers are doubles (trace
 * timestamps are microsecond doubles anyway), objects preserve key
 * order (emitters write sorted keys, and order-preserving storage
 * keeps golden-file comparisons meaningful), and the parse depth is
 * capped so hostile input cannot blow the stack.
 */

#ifndef LOOPPOINT_OBS_JSON_HH
#define LOOPPOINT_OBS_JSON_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace looppoint {

/** One parsed JSON value (see file comment). */
struct JsonValue
{
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Key order as written (emitters sort; goldens rely on it). */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Member as number/string with a default (missing or wrong kind). */
    double numberOr(std::string_view key, double def) const;
    std::string stringOr(std::string_view key,
                         const std::string &def) const;
};

/**
 * Parse one complete JSON document. Trailing non-whitespace, depth
 * beyond 128, and any syntax error fail the parse; `err` (if given)
 * receives a one-line description with the byte offset.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *err = nullptr);

/**
 * Write `s` JSON-escaped (without surrounding quotes). Control
 * characters and bytes outside printable ASCII are escaped as \u00XX
 * (Latin-1 reading), so the output is valid JSON for arbitrary bytes.
 */
void jsonEscape(std::ostream &os, std::string_view s);

/** jsonEscape into a fresh string, with surrounding quotes. */
std::string jsonQuote(std::string_view s);

} // namespace looppoint

#endif // LOOPPOINT_OBS_JSON_HH
