/**
 * @file
 * The one command-line flag parser of every tool and bench binary.
 * A program declares a table of flags whose setters write the option
 * they configure; parseFlags() applies argv to it and helpText()
 * renders --help from it.
 *
 * Syntax: `--name=value`, `--name value` or `-x value` for a flag with
 * a metavar; a boolean flag (no metavar) takes no value. A bracketed
 * metavar ("[DIR]") makes the value optional: it is then only given as
 * `--name=value`, and a bare `--name` passes "". `-h`/`--help` are
 * built in; an argument not starting with '-' is positional. Any
 * malformed argument throws UsageError (exit code 2 in every tool).
 */

#ifndef LOOPPOINT_UTIL_FLAGS_HH
#define LOOPPOINT_UTIL_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace looppoint {

/** A malformed command line: unknown flag, missing or bad value. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Applies one flag's value ("" for a boolean flag); throws any
 * std::exception to reject it. */
using FlagSetter = std::function<void(const std::string &value)>;

/** One row of a flag table. */
struct Flag
{
    std::string name;    ///< long name without the leading "--"
    char alias = 0;      ///< short alias (`-x`); 0 = none
    std::string metavar; ///< value placeholder; empty = boolean flag
    std::string help;    ///< one line; helpText() wraps it
    FlagSetter set;
};

/** A program's whole command line. */
struct CommandLine
{
    std::string name;     ///< program name, for usage and errors
    std::string synopsis; ///< after "usage: <name> "
    std::vector<Flag> flags;
    std::string epilog = {}; ///< after the flag list (exit codes, ...)
    size_t positionals = 0;  ///< exact number of positional arguments
    /** Cross-flag checks, run after every flag was applied. */
    std::function<void()> check = {};
};

/**
 * Apply argv[1..argc) to `cl`'s flags in order and run `cl.check`.
 * Returns the positional arguments, or nullopt when -h/--help was
 * given. Throws UsageError on any malformed argument, on a positional
 * count other than `cl.positionals` and on whatever a setter or the
 * check throws.
 */
std::optional<std::vector<std::string>>
parseFlags(const CommandLine &cl, int argc, const char *const *argv);

/** The --help text: synopsis, one entry per flag (and -h), epilog. */
std::string helpText(const CommandLine &cl);

/**
 * parseFlags() for main(): --help prints helpText() and exits 0, a
 * UsageError is logged as "<name>: <message>" and exits 2.
 */
std::vector<std::string> parseCommandLine(const CommandLine &cl, int argc,
                                          char **argv);

/** Decimal digits only (no sign, space or suffix), within [lo, hi]. */
uint64_t parseUnsigned(const std::string &text, uint64_t lo = 0,
                       uint64_t hi = std::numeric_limits<uint64_t>::max());

/** `sep`-separated list; "" is one empty element, like "a,,b" has. */
std::vector<std::string> splitList(const std::string &text, char sep = ',');

FlagSetter setString(std::string &dst);
/** A comma list; `check`, if given, rejects an element by throwing. */
FlagSetter setList(std::vector<std::string> &dst,
                   std::function<void(const std::string &)> check = {});
/** A u32 or u64 field: parseUnsigned() within [lo, hi]. */
template <typename T>
FlagSetter
setUnsigned(T &dst, std::type_identity_t<T> lo = 0,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    return [&dst, lo, hi](const std::string &v) {
        dst = static_cast<T>(parseUnsigned(v, lo, hi));
    };
}

/** A finite decimal number without a sign ("0.5", "60", "1e3"). */
FlagSetter setDouble(double &dst);
/** For a boolean flag: stores `value` when the flag is given. */
FlagSetter setBool(bool &dst, bool value = true);

/** For a value from a fixed set: `parse` maps a spelling to the value,
 * or to nullopt to reject it. */
template <typename T, typename Parse>
FlagSetter
setChoice(T &dst, Parse parse)
{
    return [&dst, parse](const std::string &v) {
        auto parsed = parse(v);
        if (!parsed)
            throw UsageError("unknown value '" + v + "'");
        dst = *parsed;
    };
}

} // namespace looppoint

#endif // LOOPPOINT_UTIL_FLAGS_HH
