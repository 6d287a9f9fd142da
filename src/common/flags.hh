/**
 * @file
 * One table-driven command-line flag parser for the drivers
 * (hydra_sim, hydra_fleet, fleet_scale).
 *
 * A driver declares its flags as a FlagTable and hands argv to
 * parseFlags(). Every valued flag takes `--name value` and
 * `--name=value` alike; a switch takes no value. Numbers go through
 * the strict hydra::parseInt / parseDouble with explicit bounds, so
 * "abc", "10x", "", NaN and overflowing values are rejected rather
 * than read as 0 or wrapped.
 */

#ifndef HYDRA_COMMON_FLAGS_HH
#define HYDRA_COMMON_FLAGS_HH

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hh"

namespace hydra {

/** One entry of a driver's flag table. */
struct Flag
{
    /**
     * Applies the flag's value ("" for a switch). Returns false to
     * reject it; @p why arrives holding "expected METAVAR" and may be
     * replaced by a more specific reason.
     */
    using Setter =
        std::function<bool(const std::string &value, std::string &why)>;

    std::string name;    ///< with the leading "--"
    std::string metavar; ///< shown in the usage text; empty for a switch
    Setter set;
};

using FlagTable = std::vector<Flag>;

/** `--name`: stores @p value into @p target. */
Flag switchFlag(std::string name, bool &target, bool value = true);

/** `--name METAVAR`: stores the value text as given. */
Flag stringFlag(std::string name, std::string metavar, std::string &target);

/** `--name X`: a real number in [lo, hi]; NaN is out of range. */
Flag realFlag(std::string name, double &target, double lo, double hi);

/** Strict integer @p text in [lo, hi]; on failure @p why says so. */
bool parseIntIn(const std::string &text, long long lo, long long hi,
                long long &out, std::string &why);

/** `--name N`: a base-10 integer in [lo, hi]. */
template <typename T>
Flag
intFlag(std::string name, T &target, long long lo,
        long long hi = std::numeric_limits<long long>::max())
{
    return {std::move(name), "N",
            [&target, lo, hi](const std::string &value, std::string &why) {
                long long parsed = 0;
                if (!parseIntIn(value, lo, hi, parsed, why))
                    return false;
                target = static_cast<T>(parsed);
                return true;
            }};
}

/**
 * Applies argv[1..argc) to @p table. The error names the flag, the
 * reason and the offending value: "--seed: expected an integer in
 * [0, 9223372036854775807], got 'abc'".
 */
Status applyFlags(int argc, char **argv, const FlagTable &table);

/** "usage: PROG [--a N] [--b] ..." listing every entry, wrapped. */
std::string flagUsage(const std::string &prog, const FlagTable &table);

/**
 * applyFlags(), and on an error prints "PROG: <error>" and the usage
 * text to stderr and exits 2.
 */
void parseFlags(int argc, char **argv, const FlagTable &table);

} // namespace hydra

#endif // HYDRA_COMMON_FLAGS_HH
