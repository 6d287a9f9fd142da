#include "span_executor.hh"

#include <cxxabi.h>

#include <cstdlib>

namespace perfbench {

namespace {

/**
 * "hydra::net::Network::send(...)::{lambda()#1}" -> "hydra::net::Network::send":
 * the function whose code created the callback.
 */
std::string
originOf(const std::type_info &type)
{
    int status = 0;
    char *raw = abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
    std::string name = status == 0 && raw ? raw : type.name();
    std::free(raw);
    const std::string anon = "(anonymous namespace)::";
    for (std::size_t at; (at = name.find(anon)) != std::string::npos;)
        name.erase(at, anon.size());
    if (const std::size_t paren = name.find('('); paren != std::string::npos)
        name.resize(paren);
    return name;
}

} // namespace

SpanLog::SpanLog(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), spans_(capacity)
{
}

std::uint32_t
SpanLog::labelOf(const std::type_info &type)
{
    auto [it, inserted] = labelIds_.try_emplace(&type, 0);
    if (!inserted)
        return it->second;
    // Lambdas of one function share its label.
    const std::string name = originOf(type);
    std::uint32_t id = 0;
    while (id < labels_.size() && labels_[id].name != name)
        ++id;
    if (id == labels_.size())
        labels_.push_back(LabelTotals{name, 0, 0});
    return it->second = id;
}

std::uint64_t
SpanLog::callbackNs() const
{
    std::uint64_t ns = 0;
    for (const LabelTotals &totals : labels_)
        ns += totals.ns;
    return ns;
}

SpanLog::LabelTotals
SpanLog::totalsMatching(const std::string &needle) const
{
    LabelTotals sum{needle, 0, 0};
    for (const LabelTotals &totals : labels_) {
        if (totals.name.find(needle) == std::string::npos)
            continue;
        sum.count += totals.count;
        sum.ns += totals.ns;
    }
    return sum;
}

void
SpanLog::write(std::ostream &out, const std::string &construct) const
{
    for (std::size_t i = 0; i < size_; ++i) {
        const Span &span = spans_[i];
        out << construct << '\t' << labels_[span.label].name << '\t'
            << span.startNs << '\t' << span.durNs << '\n';
    }
}

} // namespace perfbench
