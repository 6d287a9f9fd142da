/**
 * @file
 * Unit tests for the common module: Result/Status, GUIDs, byte
 * serialization, statistics, strings, the deterministic RNG, and the
 * JSON writer and parser (including a seeded round-trip and mutation
 * corpus), and the command-line flag table.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/flags.hh"
#include "common/guid.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strings.hh"
#include "json_checker.hh"

namespace hydra {
namespace {

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue)
{
    Result<int> r = 42;
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.code(), ErrorCode::Ok);
}

TEST(ResultTest, HoldsError)
{
    Result<int> r = Error(ErrorCode::NotFound, "gone");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::NotFound);
    EXPECT_EQ(r.error().message, "gone");
    EXPECT_EQ(r.error().describe(), "NotFound: gone");
}

TEST(ResultTest, ValueOrFallsBack)
{
    Result<int> bad = Error(ErrorCode::Internal);
    EXPECT_EQ(bad.valueOr(7), 7);
    Result<int> good = 3;
    EXPECT_EQ(good.valueOr(7), 3);
}

TEST(ResultTest, ImplicitErrorCodeConstruction)
{
    Result<std::string> r = ErrorCode::ParseError;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::ParseError);
}

TEST(StatusTest, DefaultIsSuccess)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Ok);
}

TEST(StatusTest, CarriesError)
{
    Status s(ErrorCode::ChannelFull, "ring exhausted");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::ChannelFull);
    EXPECT_EQ(s.error().message, "ring exhausted");
}

TEST(ErrorNameTest, EveryCodeHasAName)
{
    EXPECT_EQ(errorName(ErrorCode::Ok), "Ok");
    EXPECT_EQ(errorName(ErrorCode::NoFeasibleLayout), "NoFeasibleLayout");
    EXPECT_EQ(errorName(ErrorCode::SolverLimitReached),
              "SolverLimitReached");
}

// ---------------------------------------------------------------- Guid

TEST(GuidTest, FromNameIsDeterministic)
{
    const Guid a = Guid::fromName("tivo.Decoder");
    const Guid b = Guid::fromName("tivo.Decoder");
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.isNull());
}

TEST(GuidTest, DistinctNamesDistinctGuids)
{
    EXPECT_NE(Guid::fromName("a"), Guid::fromName("b"));
    EXPECT_NE(Guid::fromName("tivo.File"), Guid::fromName("tivo.Gui"));
}

TEST(GuidTest, ParseDecimal)
{
    Guid g;
    ASSERT_TRUE(Guid::parse("7070714", g));
    EXPECT_EQ(g.value(), 7070714u);
}

TEST(GuidTest, ParseHex)
{
    Guid g;
    ASSERT_TRUE(Guid::parse("0xABCDEF", g));
    EXPECT_EQ(g.value(), 0xabcdefu);
}

TEST(GuidTest, ParseRejectsGarbage)
{
    Guid g;
    EXPECT_FALSE(Guid::parse("", g));
    EXPECT_FALSE(Guid::parse("12x4", g));
    EXPECT_FALSE(Guid::parse("hello", g));
}

TEST(GuidTest, RoundTripsThroughString)
{
    const Guid g(0x1234abcd5678ef00ull);
    Guid parsed;
    ASSERT_TRUE(Guid::parse(g.toString(), parsed));
    EXPECT_EQ(parsed, g);
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, PrimitiveRoundTrip)
{
    Bytes buffer;
    ByteWriter writer(buffer);
    writer.writeU8(0xab);
    writer.writeU16(0x1234);
    writer.writeU32(0xdeadbeef);
    writer.writeU64(0x0102030405060708ull);
    writer.writeI64(-42);
    writer.writeF64(3.14159);
    writer.writeString("hello");
    writer.writeBytes(Bytes{1, 2, 3});

    ByteReader reader(buffer);
    EXPECT_EQ(reader.readU8().value(), 0xab);
    EXPECT_EQ(reader.readU16().value(), 0x1234);
    EXPECT_EQ(reader.readU32().value(), 0xdeadbeefu);
    EXPECT_EQ(reader.readU64().value(), 0x0102030405060708ull);
    EXPECT_EQ(reader.readI64().value(), -42);
    EXPECT_DOUBLE_EQ(reader.readF64().value(), 3.14159);
    EXPECT_EQ(reader.readString().value(), "hello");
    EXPECT_EQ(reader.readBytes().value(), (Bytes{1, 2, 3}));
    EXPECT_TRUE(reader.exhausted());
}

TEST(BytesTest, UnderrunFails)
{
    Bytes buffer{1, 2};
    ByteReader reader(buffer);
    EXPECT_TRUE(reader.readU16().ok());
    EXPECT_FALSE(reader.readU32().ok());
}

TEST(BytesTest, TruncatedStringFails)
{
    Bytes buffer;
    ByteWriter writer(buffer);
    writer.writeU32(100); // claims 100 bytes follow; none do
    ByteReader reader(buffer);
    EXPECT_FALSE(reader.readString().ok());
}

TEST(BytesTest, Crc32KnownVector)
{
    const char *text = "123456789";
    const std::uint32_t crc = crc32(
        reinterpret_cast<const std::uint8_t *>(text), 9);
    EXPECT_EQ(crc, 0xcbf43926u); // standard check value
}

TEST(BytesTest, Crc32DetectsCorruption)
{
    Bytes data(100, 7);
    const std::uint32_t clean = crc32(data);
    data[50] ^= 1;
    EXPECT_NE(crc32(data), clean);
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, SummaryStatistics)
{
    SampleSet s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(s.median(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, SingleSample)
{
    SampleSet s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.median(), 3.5);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, PercentileInterpolates)
{
    SampleSet s;
    for (int i = 0; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(95), 95.0, 1e-9);
}

TEST(StatsTest, EmptySampleSetIsSafe)
{
    // Regression: these used to be assert-only guards, i.e. undefined
    // behavior on empty sets in release builds.
    SampleSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.median(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(99.0), 0.0);
}

TEST(StatsTest, PercentileClampsOutOfRange)
{
    SampleSet s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.percentile(-5.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(250.0), 2.0);
}

TEST(StatsTest, EmptyHistogramRendersAndNormalizes)
{
    Histogram h(0.0, 10.0, 4);
    EXPECT_EQ(h.totalCount(), 0u);
    const std::string art = h.render(20);
    EXPECT_FALSE(art.empty());
    EXPECT_EQ(art.find('#'), std::string::npos); // no bars drawn
}

TEST(StatsTest, DegenerateHistogramRangeIsSafe)
{
    // min == max happens whenever a bench histograms a constant
    // series; it must not divide by zero. The range widens to unit
    // width and out-of-range samples clamp as usual.
    Histogram h(5.0, 5.0, 10);
    h.add(5.0);
    h.add(4.0);
    h.add(6.0);
    EXPECT_EQ(h.totalCount(), 3u);
    EXPECT_EQ(h.bins().front().count, 2u); // 5.0 and the clamped 4.0
    EXPECT_EQ(h.bins().back().count, 1u);  // the clamped 6.0

    Histogram zero_bins(0.0, 1.0, 0);
    zero_bins.add(0.5);
    EXPECT_EQ(zero_bins.bins().size(), 1u);
    EXPECT_EQ(zero_bins.totalCount(), 1u);
}

TEST(StatsTest, HistogramBinsAndClamps)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(5.6);
    h.add(-3.0); // clamps into first bin
    h.add(99.0); // clamps into last bin
    EXPECT_EQ(h.totalCount(), 5u);
    EXPECT_EQ(h.bins()[0].count, 2u);
    EXPECT_EQ(h.bins()[5].count, 2u);
    EXPECT_EQ(h.bins()[9].count, 1u);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 5.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformIntInclusiveBounds)
{
    Rng rng(9);
    bool sawLow = false, sawHigh = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        sawLow |= v == 0;
        sawHigh |= v == 3;
    }
    EXPECT_TRUE(sawLow);
    EXPECT_TRUE(sawHigh);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect)
{
    Rng rng(11);
    SampleSet s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect)
{
    Rng rng(13);
    SampleSet s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 4.0, 0.2);
    EXPECT_GE(s.min(), 0.0);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, Trim)
{
    EXPECT_EQ(trim("  abc \t\n"), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("hydra.Runtime", "hydra."));
    EXPECT_FALSE(startsWith("hy", "hydra"));
    EXPECT_TRUE(endsWith("file.odf", ".odf"));
    EXPECT_FALSE(endsWith("odf", ".odf"));
}

TEST(StringsTest, ParseNumbers)
{
    long long i = 0;
    EXPECT_TRUE(parseInt(" 42 ", i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseInt("-7", i));
    EXPECT_EQ(i, -7);
    EXPECT_FALSE(parseInt("4x", i));
    EXPECT_FALSE(parseInt("", i));

    double d = 0.0;
    EXPECT_TRUE(parseDouble("3.5", d));
    EXPECT_DOUBLE_EQ(d, 3.5);
    EXPECT_FALSE(parseDouble("3.5z", d));
}

TEST(StringsTest, ToLower)
{
    EXPECT_EQ(toLower("AsymmetricGANG"), "asymmetricgang");
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, SinkCapturesAtOrAboveLevel)
{
    std::vector<std::string> captured;
    Log::setSink([&](LogLevel, const std::string &msg) {
        captured.push_back(msg);
    });
    const LogLevel old = Log::level();
    Log::setLevel(LogLevel::Warn);

    LOG_DEBUG << "invisible";
    LOG_WARN << "visible " << 42;

    Log::setLevel(old);
    Log::setSink(nullptr);

    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "visible 42");
}

// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalarsAndEscapes)
{
    auto doc = json::parse(
        "{\"s\":\"a\\n\\\"b\\u0041\",\"n\":42,\"neg\":-1.5,"
        "\"t\":true,\"f\":false,\"z\":null}");
    ASSERT_TRUE(doc.ok()) << doc.error().describe();
    ASSERT_TRUE(doc.value().isObject());
    EXPECT_EQ(doc.value().find("s")->string, "a\n\"bA");
    EXPECT_EQ(doc.value().find("n")->asU64(), 42u);
    EXPECT_DOUBLE_EQ(doc.value().find("neg")->number, -1.5);
    EXPECT_TRUE(doc.value().find("t")->boolean);
    EXPECT_FALSE(doc.value().find("f")->boolean);
    EXPECT_TRUE(doc.value().find("z")->isNull());
}

TEST(JsonTest, ParsesNestedArraysAndObjects)
{
    auto doc = json::parse("[{\"a\":[1,2,3]},{\"a\":[]}]");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(doc.value().isArray());
    ASSERT_EQ(doc.value().array.size(), 2u);
    const json::Value *inner = doc.value().array[0].find("a");
    ASSERT_NE(inner, nullptr);
    ASSERT_EQ(inner->array.size(), 3u);
    EXPECT_EQ(inner->array[2].asU64(), 3u);
    EXPECT_TRUE(doc.value().array[1].find("a")->array.empty());
}

TEST(JsonTest, FindOnNonObjectIsNull)
{
    auto doc = json::parse("[1]");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().find("anything"), nullptr);
    EXPECT_EQ(doc.value().array[0].asU64(), 1u);
    EXPECT_EQ(doc.value().asU64(), 0u); // not a number
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse("{").ok());
    EXPECT_FALSE(json::parse("{\"a\":}").ok());
    EXPECT_FALSE(json::parse("[1,]").ok());
    EXPECT_FALSE(json::parse("\"unterminated").ok());
    EXPECT_FALSE(json::parse("{} trailing").ok());
    EXPECT_FALSE(json::parse("nul").ok());
}

TEST(JsonWriterTest, SharedEscaperHandlesControlAndQuoteCharacters)
{
    std::ostringstream out;
    json::Writer(out).value("a\"b\\c\n\r\t\b\f\x01z");
    const std::string text = out.str();
    EXPECT_EQ(text, "\"a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0001z\"");

    testutil::JsonChecker checker(text);
    EXPECT_TRUE(checker.valid()) << text;
}

TEST(JsonWriterTest, SharedEscaperPassesHighBytesThrough)
{
    // UTF-8 multibyte sequences (bytes >= 0x80) must pass through
    // unescaped; a signed-char comparison would mangle them into
    // bogus \uffxx escapes.
    const std::string utf8 = "caf\xc3\xa9";
    std::ostringstream out;
    json::Writer(out).value(utf8);
    EXPECT_EQ(out.str(), "\"" + utf8 + "\"");
}

TEST(JsonWriterTest, CommasNumbersAndRawValues)
{
    std::ostringstream out;
    json::Writer w(out);
    w.beginObject()
        .field("u", std::numeric_limits<std::uint64_t>::max())
        .field("i", -7)
        .field("d", 0.1 + 0.2)
        .field("big", 1234567.0)
        .field("nan", std::nan(""))
        .field("inf", -std::numeric_limits<double>::infinity())
        .field("b", false)
        .key("raw")
        .raw("1.500")
        .key("a")
        .beginArray()
        .beginObject()
        .endObject()
        .beginArray()
        .endArray()
        .value("x")
        .endArray()
        .endObject();
    EXPECT_EQ(out.str(),
              "{\"u\":18446744073709551615,\"i\":-7,\"d\":0.3,"
              "\"big\":1.23457e+06,\"nan\":0,\"inf\":0,\"b\":false,"
              "\"raw\":1.500,\"a\":[{},[],\"x\"]}");
}

// Seeded round-trip and mutation corpus for the writer and parser: a
// plain loop over random documents, no fuzzing engine.
namespace jsoncorpus {

std::string
randomString(Rng &rng)
{
    std::string text;
    const auto length = rng.uniformInt(0, 12);
    for (std::int64_t i = 0; i < length; ++i) {
        switch (rng.uniformInt(0, 4)) {
          case 0:
            text.push_back(static_cast<char>(rng.uniformInt(0, 0x1f)));
            break;
          case 1: text.push_back(rng.chance(0.5) ? '"' : '\\'); break;
          case 2:
            text.push_back(static_cast<char>(rng.uniformInt(0x80, 0xff)));
            break;
          default:
            text.push_back(static_cast<char>(rng.uniformInt(0x20, 0x7e)));
        }
    }
    return text;
}

/** A random value; numbers are exact both as integers and in %.6g. */
json::Value
randomValue(Rng &rng, int depth)
{
    json::Value value;
    const std::int64_t pick = rng.uniformInt(depth >= 4 ? 2 : 0, 6);
    if (pick <= 1) {
        value.kind = pick == 0 ? json::Value::Kind::Object
                               : json::Value::Kind::Array;
        const auto members = rng.uniformInt(0, 4);
        for (std::int64_t i = 0; i < members; ++i) {
            if (pick == 0)
                value.object.emplace_back(randomString(rng),
                                          randomValue(rng, depth + 1));
            else
                value.array.push_back(randomValue(rng, depth + 1));
        }
    } else if (pick == 2) {
        value.kind = json::Value::Kind::String;
        value.string = randomString(rng);
    } else if (pick == 3) {
        value.kind = json::Value::Kind::Number;
        const std::int64_t limit = std::int64_t{1} << 53;
        value.number = static_cast<double>(rng.uniformInt(-limit, limit));
    } else if (pick == 4) {
        value.kind = json::Value::Kind::Number;
        value.number = static_cast<double>(rng.uniformInt(-9999, 9999)) / 4;
    } else if (pick == 5) {
        value.kind = json::Value::Kind::Bool;
        value.boolean = rng.chance(0.5);
    }
    return value;
}

void
write(json::Writer &w, const json::Value &value)
{
    switch (value.kind) {
      case json::Value::Kind::Null: w.raw("null"); break;
      case json::Value::Kind::Bool: w.value(value.boolean); break;
      case json::Value::Kind::Number:
        if (value.number == std::floor(value.number))
            w.value(static_cast<std::int64_t>(value.number));
        else
            w.value(value.number);
        break;
      case json::Value::Kind::String: w.value(value.string); break;
      case json::Value::Kind::Array:
        w.beginArray();
        for (const json::Value &element : value.array)
            write(w, element);
        w.endArray();
        break;
      case json::Value::Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : value.object) {
            w.key(key);
            write(w, member);
        }
        w.endObject();
        break;
    }
}

bool
equal(const json::Value &a, const json::Value &b)
{
    if (a.kind != b.kind || a.boolean != b.boolean ||
        a.number != b.number || a.string != b.string ||
        a.array.size() != b.array.size() ||
        a.object.size() != b.object.size())
        return false;
    for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!equal(a.array[i], b.array[i]))
            return false;
    for (std::size_t i = 0; i < a.object.size(); ++i)
        if (a.object[i].first != b.object[i].first ||
            !equal(a.object[i].second, b.object[i].second))
            return false;
    return true;
}

} // namespace jsoncorpus

TEST(JsonCorpusTest, SeededDocumentsRoundTripAndMutationsNeverCrash)
{
    Rng rng(17);
    int escapesCut = 0;
    for (int doc = 0; doc < 500; ++doc) {
        json::Value original;
        original.kind = rng.chance(0.5) ? json::Value::Kind::Object
                                        : json::Value::Kind::Array;
        for (std::int64_t i = rng.uniformInt(1, 5); i > 0; --i) {
            json::Value member = jsoncorpus::randomValue(rng, 1);
            if (original.isObject())
                original.object.emplace_back(jsoncorpus::randomString(rng),
                                             std::move(member));
            else
                original.array.push_back(std::move(member));
        }
        std::ostringstream out;
        json::Writer w(out);
        jsoncorpus::write(w, original);
        const std::string text = out.str();

        auto parsed = json::parse(text);
        ASSERT_TRUE(parsed.ok()) << parsed.error().describe() << "\n"
                                 << text;
        ASSERT_TRUE(jsoncorpus::equal(parsed.value(), original)) << text;

        // A strict prefix of an object or array is never a document.
        const auto last = static_cast<std::int64_t>(text.size()) - 1;
        for (int cut = 0; cut < 3; ++cut) {
            const auto length =
                static_cast<std::size_t>(rng.uniformInt(0, last));
            EXPECT_FALSE(json::parse(text.substr(0, length)).ok())
                << text.substr(0, length);
        }

        // One flipped byte anywhere: parses or fails, never crashes.
        std::string flipped = text;
        const auto at = static_cast<std::size_t>(rng.uniformInt(0, last));
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(rng.uniformInt(1, 255)));
        auto mutated = json::parse(flipped);
        if (!mutated.ok()) {
            EXPECT_FALSE(mutated.error().message.empty());
        }

        // A \u escape cut short, either at the end of the text or with
        // the rest of the document kept after it, is always an error.
        const std::size_t escape = text.find("\\u00");
        if (escape != std::string::npos) {
            ++escapesCut;
            const auto digits =
                static_cast<std::size_t>(rng.uniformInt(0, 3));
            const std::string head = text.substr(0, escape + 2 + digits);
            EXPECT_FALSE(json::parse(head).ok()) << head;
            const std::string spliced =
                head + "\"" + text.substr(escape + 6);
            EXPECT_FALSE(json::parse(spliced).ok()) << spliced;
        }
    }
    EXPECT_GT(escapesCut, 100);
}

TEST(SparklineTest, DegenerateSeriesStaySane)
{
    // hydra_top feeds whatever a flight recording holds — including
    // zero- and one-snapshot recordings — straight into sparkline().
    EXPECT_EQ(sparkline({}), "");
    EXPECT_EQ(sparkline({5.0}), "█");
    EXPECT_EQ(sparkline({0.0}), "▁");
    EXPECT_EQ(sparkline({0.0, 0.0, 0.0}), "▁▁▁");
}

TEST(SparklineTest, ScalesAgainstOwnMax)
{
    // 3.5/7 scales to level round(3.5 + 0.5) = 4 of 7.
    const std::string line = sparkline({0.0, 3.5, 7.0});
    EXPECT_EQ(line, "▁▅█");
}

TEST(SparklineTest, ClampsNegativeAndNonFinite)
{
    // Counter deltas can never be negative, but gauge series can be;
    // both must render at the baseline rather than index off the
    // glyph table.
    EXPECT_EQ(sparkline({-4.0, 2.0}), "▁█");
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(sparkline({nan, 1.0}), "▁█");
    EXPECT_EQ(sparkline({-inf, 1.0}), "▁█");
    // +inf clamps to zero too (non-finite), leaving the finite
    // samples to set the scale.
    EXPECT_EQ(sparkline({inf, 2.0}), "▁█");
}

// ----------------------------------------------------------------- Flags

/** applyFlags over {"prog", args...}. */
Status
applyArgs(std::vector<std::string> args, const FlagTable &table)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return applyFlags(static_cast<int>(argv.size()), argv.data(), table);
}

/** The error text of a failed applyArgs, or "" on success. */
std::string
flagError(std::vector<std::string> args, const FlagTable &table)
{
    const Status status = applyArgs(std::move(args), table);
    return status ? "" : status.error().message;
}

class FlagsTest : public ::testing::Test
{
  protected:
    long long n = -1;
    std::string file;
    bool on = false;
    double p = -1.0;
    const FlagTable table{intFlag("--n", n, 0, 10),
                          stringFlag("--file", "FILE", file),
                          switchFlag("--on", on),
                          realFlag("--p", p, 0.0, 1.0)};
};

TEST_F(FlagsTest, BothValueFormsSetTheSameValues)
{
    ASSERT_EQ(flagError({"--n", "7", "--file", "a=b", "--p", "0.5", "--on"},
                        table),
              "");
    EXPECT_EQ(n, 7);
    EXPECT_EQ(file, "a=b");
    EXPECT_EQ(p, 0.5);
    EXPECT_TRUE(on);

    n = -1;
    file.clear();
    p = -1.0;
    ASSERT_EQ(flagError({"--n=7", "--file=a=b", "--p=0.5"}, table), "");
    EXPECT_EQ(n, 7);
    EXPECT_EQ(file, "a=b"); // split at the first '=' only
    EXPECT_EQ(p, 0.5);
}

TEST_F(FlagsTest, MissingAndEmptyValues)
{
    EXPECT_EQ(flagError({"--n"}, table), "--n: missing value N");
    EXPECT_EQ(flagError({"--n="}, table),
              "--n: expected an integer in [0, 10], got ''");
    // An empty string is a value like any other for a string flag.
    file = "x";
    EXPECT_EQ(flagError({"--file="}, table), "");
    EXPECT_EQ(file, "");
}

TEST_F(FlagsTest, UnknownFlagsAndValuedSwitchesFail)
{
    EXPECT_EQ(flagError({"--bogus"}, table), "--bogus: unknown flag");
    EXPECT_EQ(flagError({"--bogus=1"}, table), "--bogus: unknown flag");
    EXPECT_EQ(flagError({"stray"}, table), "stray: unknown flag");
    EXPECT_EQ(flagError({"--on=1"}, table),
              "--on: takes no value, got '1'");
    EXPECT_FALSE(on);
}

TEST_F(FlagsTest, IntegerBoundsAreInclusive)
{
    EXPECT_EQ(flagError({"--n", "0"}, table), "");
    EXPECT_EQ(n, 0);
    EXPECT_EQ(flagError({"--n", "10"}, table), "");
    EXPECT_EQ(n, 10);
    const std::string expected = "expected an integer in [0, 10]";
    for (const char *bad : {"11", "-1", "abc", "1.5", "10x",
                            "18446744073709551617"}) {
        EXPECT_EQ(flagError({"--n", bad}, table),
                  "--n: " + expected + ", got '" + bad + "'");
    }
    EXPECT_EQ(n, 10);
}

TEST_F(FlagsTest, RealRejectsNaNAndOutOfRange)
{
    EXPECT_EQ(flagError({"--p", "1"}, table), "");
    EXPECT_EQ(p, 1.0);
    for (const char *bad : {"nan", "inf", "-0.1", "1.5", "x", ""}) {
        EXPECT_EQ(flagError({"--p", bad}, table),
                  std::string("--p: expected a number in [0, 1], got '") +
                      bad + "'");
    }
}

TEST_F(FlagsTest, CustomSetterReasonIsReported)
{
    std::string mode;
    const FlagTable custom{
        {"--mode", "a|b", [&](const std::string &v, std::string &) {
             mode = v;
             return v == "a" || v == "b";
         }},
        {"--spec", "SPEC", [](const std::string &, std::string &why) {
             why = "spec is broken";
             return false;
         }}};
    EXPECT_EQ(flagError({"--mode=b"}, custom), "");
    EXPECT_EQ(mode, "b");
    EXPECT_EQ(flagError({"--mode", "c"}, custom),
              "--mode: expected a|b, got 'c'");
    EXPECT_EQ(flagError({"--spec=1"}, custom),
              "--spec: spec is broken, got '1'");
}

TEST_F(FlagsTest, UsageListsEveryEntry)
{
    const std::string usage = flagUsage("prog", table);
    EXPECT_EQ(usage.rfind("usage: prog ", 0), 0u) << usage;
    for (const char *item : {"[--n N]", "[--file FILE]", "[--on]",
                             "[--p X]"})
        EXPECT_NE(usage.find(item), std::string::npos) << item;
}

TEST_F(FlagsTest, ParseFlagsExitsTwoWithErrorAndUsage)
{
    std::vector<std::string> args{"prog", "--n", "x"};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    EXPECT_EXIT(parseFlags(3, argv.data(), table),
                ::testing::ExitedWithCode(2),
                "prog: --n: expected an integer in \\[0, 10\\], got 'x'\n"
                "usage: prog \\[--n N\\]");
}

} // namespace
} // namespace hydra
