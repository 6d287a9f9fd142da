#include "common/flags.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hh"

namespace hydra {

Flag
switchFlag(std::string name, bool &target, bool value)
{
    return {std::move(name), "",
            [&target, value](const std::string &, std::string &) {
                target = value;
                return true;
            }};
}

Flag
stringFlag(std::string name, std::string metavar, std::string &target)
{
    return {std::move(name), std::move(metavar),
            [&target](const std::string &value, std::string &) {
                target = value;
                return true;
            }};
}

Flag
realFlag(std::string name, double &target, double lo, double hi)
{
    return {std::move(name), "X",
            [&target, lo, hi](const std::string &value, std::string &why) {
                double parsed = 0.0;
                // Written so that NaN fails the range test too.
                if (!parseDouble(value, parsed) ||
                    !(parsed >= lo && parsed <= hi)) {
                    char range[64];
                    std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
                    why = std::string("expected a number in ") + range;
                    return false;
                }
                target = parsed;
                return true;
            }};
}

bool
parseIntIn(const std::string &text, long long lo, long long hi,
           long long &out, std::string &why)
{
    long long parsed = 0;
    if (!parseInt(text, parsed) || parsed < lo || parsed > hi) {
        why = "expected an integer in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "]";
        return false;
    }
    out = parsed;
    return true;
}

Status
applyFlags(int argc, char **argv, const FlagTable &table)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto flag =
            std::find_if(table.begin(), table.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (flag == table.end())
            return {ErrorCode::InvalidArgument, name + ": unknown flag"};

        std::string value;
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            if (flag->metavar.empty())
                return {ErrorCode::InvalidArgument,
                        name + ": takes no value, got '" + value + "'"};
        } else if (!flag->metavar.empty()) {
            if (i + 1 == argc)
                return {ErrorCode::InvalidArgument,
                        name + ": missing value " + flag->metavar};
            value = argv[++i];
        }
        std::string why = "expected " + flag->metavar;
        if (!flag->set(value, why))
            return {ErrorCode::InvalidArgument,
                    name + ": " + why + ", got '" + value + "'"};
    }
    return Status::success();
}

std::string
flagUsage(const std::string &prog, const FlagTable &table)
{
    const std::string indent(7, ' ');
    std::string out = "usage: " + prog;
    std::size_t column = out.size();
    for (const Flag &flag : table) {
        const std::string item =
            " [" + flag.name +
            (flag.metavar.empty() ? "" : " " + flag.metavar) + "]";
        if (column + item.size() > 78) {
            out += "\n" + indent;
            column = indent.size();
        }
        out += item;
        column += item.size();
    }
    return out + "\n";
}

void
parseFlags(int argc, char **argv, const FlagTable &table)
{
    const Status status = applyFlags(argc, argv, table);
    if (status)
        return;
    std::fprintf(stderr, "%s: %s\n%s", argv[0],
                 status.error().message.c_str(),
                 flagUsage(argv[0], table).c_str());
    std::exit(2);
}

} // namespace hydra
