#include "analysis/diagnostic.hh"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "obs/json.hh"

namespace looppoint {

std::string_view
severityName(Severity s)
{
    switch (s) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
      default: return "???";
    }
}

void
DiagnosticSink::report(Severity severity, std::string pass,
                       std::string location, std::string message)
{
    std::lock_guard<std::mutex> guard(mtx);
    list.push_back({severity, std::move(pass), std::move(location),
                    std::move(message)});
}

size_t
DiagnosticSink::count(Severity s) const
{
    std::lock_guard<std::mutex> guard(mtx);
    size_t n = 0;
    for (const auto &d : list)
        if (d.severity == s)
            ++n;
    return n;
}

std::vector<Diagnostic>
DiagnosticSink::take()
{
    std::lock_guard<std::mutex> guard(mtx);
    std::vector<Diagnostic> out = std::move(list);
    list.clear();
    return out;
}

void
printDiagnosticsText(std::ostream &os,
                     const std::vector<Diagnostic> &diags)
{
    for (const auto &d : diags) {
        os << severityName(d.severity) << " [" << d.pass << "] ";
        if (!d.location.empty())
            os << d.location << ": ";
        os << d.message << '\n';
    }
}

void
printDiagnosticsJson(std::ostream &os,
                     const std::vector<Diagnostic> &diags)
{
    os << "[\n";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << "  {\"severity\": " << jsonQuote(severityName(d.severity))
           << ", \"pass\": " << jsonQuote(d.pass)
           << ", \"location\": " << jsonQuote(d.location)
           << ", \"message\": " << jsonQuote(d.message) << '}'
           << (i + 1 < diags.size() ? "," : "") << '\n';
    }
    os << "]\n";
}

void
sortDiagnosticsCanonical(std::vector<Diagnostic> &diags)
{
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return std::tie(a.pass, a.location, a.message,
                                         a.severity) <
                                std::tie(b.pass, b.location, b.message,
                                         b.severity);
                     });
}

} // namespace looppoint
