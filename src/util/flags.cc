#include "util/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace looppoint {

namespace {

/** Help is wrapped to this many columns. */
constexpr size_t kHelpWidth = 79;

/** "-x, --name=META"; `indent` leaves room for an absent alias. */
std::string
label(const Flag &f, bool indent)
{
    std::string out = f.alias    ? std::string("-") + f.alias + ", "
                      : indent ? "    "
                               : "";
    out += "--" + f.name;
    if (!f.metavar.empty())
        out += f.metavar[0] == '[' ? "[=" + f.metavar.substr(1)
                                   : "=" + f.metavar;
    return out;
}

/** `text` wrapped to kHelpWidth, continuing lines at column `col`. */
std::string
wrap(const std::string &text, size_t col)
{
    std::istringstream words(text);
    std::string out, line, word;
    while (words >> word) {
        if (!line.empty() &&
            col + line.size() + 1 + word.size() > kHelpWidth) {
            out += line + "\n" + std::string(col, ' ');
            line.clear();
        }
        line += (line.empty() ? "" : " ") + word;
    }
    return out + line + "\n";
}

} // namespace

uint64_t
parseUnsigned(const std::string &text, uint64_t lo, uint64_t hi)
{
    // from_chars takes no sign, space or prefix for an unsigned type.
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        throw UsageError(strFormat("'%s' is not a number in [%llu, %llu]",
                                   text.c_str(),
                                   static_cast<unsigned long long>(lo),
                                   static_cast<unsigned long long>(hi)));
    return v;
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    size_t pos = 0;
    for (size_t next; (next = text.find(sep, pos)) != std::string::npos;
         pos = next + 1)
        out.push_back(text.substr(pos, next - pos));
    out.push_back(text.substr(pos));
    return out;
}

FlagSetter
setString(std::string &dst)
{
    return [&dst](const std::string &v) { dst = v; };
}

FlagSetter
setList(std::vector<std::string> &dst,
        std::function<void(const std::string &)> check)
{
    return [&dst, check](const std::string &v) {
        std::vector<std::string> items = splitList(v);
        for (const auto &item : items)
            if (check)
                check(item);
        dst = std::move(items);
    };
}

FlagSetter
setDouble(double &dst)
{
    return [&dst](const std::string &v) {
        // from_chars takes no '+', space or hex, but '-', inf and nan.
        double d = 0.0;
        const char *end = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(v.data(), end, d);
        if (ec != std::errc() || ptr != end || v[0] == '-' ||
            !std::isfinite(d))
            throw UsageError("'" + v + "' is not an unsigned number");
        dst = d;
    };
}

FlagSetter
setBool(bool &dst, bool value)
{
    return [&dst, value](const std::string &) { dst = value; };
}

std::optional<std::vector<std::string>>
parseFlags(const CommandLine &cl, int argc, const char *const *argv)
{
    std::vector<std::string> positionals;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help")
            return std::nullopt;
        if (arg.size() < 2 || arg[0] != '-') {
            positionals.push_back(arg);
            continue;
        }
        const bool is_long = arg.rfind("--", 0) == 0;
        const size_t eq = is_long ? arg.find('=') : std::string::npos;
        const bool attached = eq != std::string::npos;
        std::string value = attached ? arg.substr(eq + 1) : "";
        if (attached)
            arg.resize(eq);
        const Flag *f = nullptr;
        for (const auto &cand : cl.flags)
            if (is_long ? arg.compare(2, std::string::npos, cand.name) == 0
                        : arg.size() == 2 && cand.alias == arg[1])
                f = &cand;
        if (!f)
            throw UsageError("unknown option '" + std::string(argv[i]) +
                             "' (see --help)");
        if (f->metavar.empty()) {
            if (attached)
                throw UsageError("option " + arg + " takes no value");
        } else if (!attached && f->metavar[0] != '[') {
            if (i + 1 >= argc)
                throw UsageError("option " + arg + " requires a value");
            value = argv[++i];
        }
        try {
            f->set(value);
        } catch (const std::exception &e) {
            const std::string what = e.what();
            const std::string flag = "--" + f->name;
            throw UsageError(what.rfind(flag, 0) == 0 ? what
                                                      : flag + ": " + what);
        }
    }
    if (positionals.size() != cl.positionals)
        throw UsageError(
            cl.positionals == 0
                ? "unexpected argument '" + positionals.front() + "'"
                : strFormat("expected %zu argument(s), got %zu",
                            cl.positionals, positionals.size()));
    try {
        if (cl.check)
            cl.check();
    } catch (const std::exception &e) {
        throw UsageError(e.what());
    }
    return positionals;
}

std::string
helpText(const CommandLine &cl)
{
    std::vector<Flag> rows = cl.flags;
    const bool indent = std::any_of(rows.begin(), rows.end(),
                                    [](const Flag &f) { return f.alias; });
    rows.push_back({"help", 'h', "", "this message", nullptr});
    size_t width = 0;
    for (const auto &f : rows)
        width = std::max(width, label(f, indent).size());
    const size_t col = 2 + width + 2;

    std::string out = "usage: " + cl.name + " " + cl.synopsis + "\n";
    for (const auto &f : rows) {
        const std::string l = label(f, indent);
        out += "  " + l + std::string(col - 2 - l.size(), ' ');
        out += wrap(f.help, col);
    }
    return out + cl.epilog;
}

std::vector<std::string>
parseCommandLine(const CommandLine &cl, int argc, char **argv)
{
    try {
        auto positionals = parseFlags(cl, argc, argv);
        if (positionals)
            return *positionals;
        std::fputs(helpText(cl).c_str(), stdout);
        std::exit(0);
    } catch (const UsageError &e) {
        logError("%s: %s", cl.name.c_str(), e.what());
        std::exit(2);
    }
}

} // namespace looppoint
