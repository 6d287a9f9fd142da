/**
 * @file
 * The one JSON module: a streaming writer behind every exporter
 * (metrics, flight, trace, spans, SLO, introspection, fleet reports)
 * and a minimal document parser that reads them back.
 *
 * The parser covers the full value grammar, escape decoding, and a
 * tiny ordered-object DOM. Numbers parse as double, which is exact for
 * every integer the exporters emit.
 */

#ifndef HYDRA_COMMON_JSON_HH
#define HYDRA_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hh"

namespace hydra::json {

/** One parsed JSON value (a tagged union, insertion-ordered object). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Number as u64 (0 when not a number or negative). */
    std::uint64_t asU64() const;
};

/** Parse one JSON document; trailing non-space input is an error. */
Result<Value> parse(const std::string &text);

/**
 * Streaming JSON writer with automatic commas.
 *
 * Output is compact. Strings are escaped as RFC 8259 requires: quote,
 * backslash and control bytes below 0x20 (short forms for the common
 * ones); bytes >= 0x80 pass through. Integers print exactly; doubles
 * print as "%.6g", and NaN or infinity, which JSON cannot carry, as 0.
 * The writer does not check nesting: callers pair begin and end.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &out) : out_(out) {}

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** Object member name; the next call writes its value. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view text);
    Writer &value(const char *text) { return value(std::string_view(text)); }
    Writer &value(bool flag) { return raw(flag ? "true" : "false"); }
    Writer &value(double number);

    template <std::integral T>
        requires(!std::same_as<T, bool> && !std::same_as<T, char>)
    Writer &
    value(T number)
    {
        char buf[24];
        const char *end = std::to_chars(buf, buf + sizeof(buf), number).ptr;
        return raw(std::string_view(buf, end));
    }

    /** An already-encoded JSON value, written as is. */
    Writer &raw(std::string_view json);

    /** key(@p name) then value(@p v). */
    template <typename T>
    Writer &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    Writer &open(char bracket);
    Writer &close(char bracket);

    std::ostream &out_;
    /** A value, key or container after a sibling needs a ',' first. */
    bool needComma_ = false;
};

} // namespace hydra::json

#endif // HYDRA_COMMON_JSON_HH
