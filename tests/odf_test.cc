/**
 * @file
 * Unit tests for the XML parser and the Offcode Description File
 * model (paper Section 3.3, Fig. 4).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "odf/odf.hh"
#include "odf/xml.hh"

namespace hydra::odf {
namespace {

// ---------------------------------------------------------------- Xml

TEST(XmlTest, ParsesElementTree)
{
    auto doc = parseXml("<a><b x=\"1\"/><c>text</c></a>");
    ASSERT_TRUE(doc.ok());
    const XmlNode &root = *doc.value();
    EXPECT_EQ(root.name, "a");
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0]->name, "b");
    EXPECT_EQ(root.children[0]->attr("x"), "1");
    EXPECT_EQ(root.childText("c"), "text");
}

TEST(XmlTest, SingleAndDoubleQuotedAttributes)
{
    auto doc = parseXml("<e a=\"x y\" b='z'/>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->attr("a"), "x y");
    EXPECT_EQ(doc.value()->attr("b"), "z");
}

TEST(XmlTest, UnquotedAttributesPaperStyle)
{
    // The paper's Fig. 4 uses <reference type=Pull pri=0>.
    auto doc = parseXml("<reference type=Pull pri=0></reference>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->attr("type"), "Pull");
    EXPECT_EQ(doc.value()->attr("pri"), "0");
}

TEST(XmlTest, CommentsAndPrologSkipped)
{
    auto doc = parseXml("<?xml version=\"1.0\"?>\n"
                        "<!-- header -->\n"
                        "<root><!-- inner --><x/></root>\n"
                        "<!-- trailer -->");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->children.size(), 1u);
}

TEST(XmlTest, CdataPreserved)
{
    auto doc = parseXml("<r><![CDATA[a<b&c]]></r>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->text, "a<b&c");
}

TEST(XmlTest, EntitiesDecoded)
{
    auto doc = parseXml("<r a=\"&lt;&amp;&gt;\">x&quot;y&apos;z</r>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->attr("a"), "<&>");
    EXPECT_EQ(doc.value()->text, "x\"y'z");
}

TEST(XmlTest, MismatchedTagFailsWithLine)
{
    auto doc = parseXml("<a>\n<b>\n</a>\n");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.error().code, ErrorCode::ParseError);
    EXPECT_NE(doc.error().message.find("line 3"), std::string::npos);
}

TEST(XmlTest, UnterminatedElementFails)
{
    EXPECT_FALSE(parseXml("<a><b></b>").ok());
}

TEST(XmlTest, TrailingGarbageFails)
{
    EXPECT_FALSE(parseXml("<a/>junk").ok());
}

TEST(XmlTest, ChildrenNamedFindsAll)
{
    auto doc = parseXml("<r><i>1</i><j/><i>2</i></r>");
    ASSERT_TRUE(doc.ok());
    const auto items = doc.value()->childrenNamed("i");
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(std::string(items[1]->text), "2");
}

// ---------------------------------------------------------------- Odf

const char *kSocketOdf = R"(<offcode>
  <package>
    <bindname>hydra.net.utils.Socket</bindname>
    <GUID>7070714</GUID>
    <interface name="ISocket">
      <include>/offcodes/socket.wsdl</include>
      <method name="Send"/>
      <method name="Receive"/>
    </interface>
  </package>
  <sw-env>
    <import>
      <file>/offcodes/checksum.odf</file>
      <bindname>hydra.net.utils.Checksum</bindname>
      <reference type="Pull" pri="0">
        <GUID>6060843</GUID>
      </reference>
    </import>
    <requires memory="65536">
      <capability name="mac-ethernet"/>
    </requires>
  </sw-env>
  <targets>
    <device-class id="0x0001">
      <name>Network Device</name>
      <bus>pci</bus>
      <mac>ethernet</mac>
      <vendor>3COM</vendor>
    </device-class>
    <host-fallback/>
  </targets>
  <price bus="0.25"/>
</offcode>)";

TEST(OdfTest, ParsesPaperStyleManifest)
{
    auto doc = OdfDocument::parse(kSocketOdf);
    ASSERT_TRUE(doc.ok()) << doc.error().describe();
    const OdfDocument &odf = doc.value();

    EXPECT_EQ(odf.bindname, "hydra.net.utils.Socket");
    EXPECT_EQ(odf.guid.value(), 7070714u);

    ASSERT_EQ(odf.interfaces.size(), 1u);
    EXPECT_EQ(odf.interfaces[0].name, "ISocket");
    EXPECT_EQ(odf.interfaces[0].includePath, "/offcodes/socket.wsdl");
    ASSERT_EQ(odf.interfaces[0].methods.size(), 2u);
    EXPECT_EQ(odf.interfaces[0].methods[0], "Send");

    ASSERT_EQ(odf.imports.size(), 1u);
    EXPECT_EQ(odf.imports[0].bindname, "hydra.net.utils.Checksum");
    EXPECT_EQ(odf.imports[0].constraint, ConstraintType::Pull);
    EXPECT_EQ(odf.imports[0].guid.value(), 6060843u);

    EXPECT_EQ(odf.requiredMemoryBytes, 65536u);
    ASSERT_EQ(odf.requiredCapabilities.size(), 1u);
    EXPECT_EQ(odf.requiredCapabilities[0], "mac-ethernet");

    ASSERT_EQ(odf.targets.size(), 1u);
    EXPECT_EQ(odf.targets[0].id, 1u);
    EXPECT_EQ(odf.targets[0].vendor, "3COM");
    EXPECT_TRUE(odf.hostFallback);
    EXPECT_DOUBLE_EQ(odf.busPrice, 0.25);
}

TEST(OdfTest, GuidDefaultsToNameHash)
{
    auto doc = OdfDocument::parse(
        "<offcode><package><bindname>x.y</bindname></package>"
        "<targets><host-fallback/></targets></offcode>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().guid, Guid::fromName("x.y"));
}

TEST(OdfTest, AllConstraintTypesParse)
{
    for (const char *name : {"Link", "Pull", "Gang", "AsymmetricGang"}) {
        auto parsed = constraintFromName(name);
        ASSERT_TRUE(parsed.ok()) << name;
        EXPECT_EQ(constraintName(parsed.value()), name);
    }
    EXPECT_FALSE(constraintFromName("Bogus").ok());
}

TEST(OdfTest, ConstraintNamesCaseInsensitive)
{
    EXPECT_EQ(constraintFromName("pull").value(), ConstraintType::Pull);
    EXPECT_EQ(constraintFromName("GANG").value(), ConstraintType::Gang);
}

TEST(OdfTest, MissingPackageFails)
{
    auto doc = OdfDocument::parse("<offcode></offcode>");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.error().code, ErrorCode::ManifestInvalid);
}

TEST(OdfTest, WrongRootFails)
{
    EXPECT_FALSE(OdfDocument::parse("<component/>").ok());
}

TEST(OdfTest, NoTargetsNoFallbackFails)
{
    auto doc = OdfDocument::parse(
        "<offcode><package><bindname>x</bindname></package></offcode>");
    EXPECT_FALSE(doc.ok());
}

TEST(OdfTest, ImportWithoutBindnameFails)
{
    auto doc = OdfDocument::parse(
        "<offcode><package><bindname>x</bindname></package>"
        "<sw-env><import><file>f.odf</file></import></sw-env>"
        "<targets><host-fallback/></targets></offcode>");
    EXPECT_FALSE(doc.ok());
}

TEST(OdfTest, ImportGuidDefaultsToBindnameHash)
{
    auto doc = OdfDocument::parse(
        "<offcode><package><bindname>x</bindname></package>"
        "<sw-env><import><bindname>peer.y</bindname></import></sw-env>"
        "<targets><host-fallback/></targets></offcode>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().imports[0].guid, Guid::fromName("peer.y"));
    EXPECT_EQ(doc.value().imports[0].constraint, ConstraintType::Link);
}

TEST(OdfTest, RoundTripThroughToXml)
{
    auto original = OdfDocument::parse(kSocketOdf);
    ASSERT_TRUE(original.ok());
    auto reparsed = OdfDocument::parse(original.value().toXml());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().describe();

    EXPECT_EQ(reparsed.value().bindname, original.value().bindname);
    EXPECT_EQ(reparsed.value().guid, original.value().guid);
    EXPECT_EQ(reparsed.value().imports.size(),
              original.value().imports.size());
    EXPECT_EQ(reparsed.value().imports[0].constraint,
              original.value().imports[0].constraint);
    EXPECT_EQ(reparsed.value().targets.size(),
              original.value().targets.size());
    EXPECT_EQ(reparsed.value().targets[0].vendor,
              original.value().targets[0].vendor);
    EXPECT_DOUBLE_EQ(reparsed.value().busPrice,
                     original.value().busPrice);
    EXPECT_EQ(reparsed.value().requiredMemoryBytes,
              original.value().requiredMemoryBytes);
}

TEST(OdfTest, LoadFileMissingFails)
{
    auto doc = OdfDocument::loadFile("/nonexistent/path.odf");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.error().code, ErrorCode::NotFound);
}

TEST(OdfTest, BadPriorityFails)
{
    auto doc = OdfDocument::parse(
        "<offcode><package><bindname>x</bindname></package>"
        "<sw-env><import><bindname>p</bindname>"
        "<reference type=\"Pull\" pri=\"abc\"/></import></sw-env>"
        "<targets><host-fallback/></targets></offcode>");
    EXPECT_FALSE(doc.ok());
}

// ------------------------------------------------------------- Corpus

/** Failures from either parser carry a parse or manifest error. */
void
expectCleanOutcome(const std::string &text)
{
    auto xml = parseXml(text);
    if (!xml.ok()) {
        EXPECT_EQ(xml.error().code, ErrorCode::ParseError) << text;
        EXPECT_FALSE(xml.error().message.empty()) << text;
    }
    auto odf = OdfDocument::parse(text);
    if (!odf.ok()) {
        EXPECT_TRUE(odf.error().code == ErrorCode::ParseError ||
                    odf.error().code == ErrorCode::ManifestInvalid)
            << text << ": " << odf.error().describe();
        EXPECT_FALSE(odf.error().message.empty()) << text;
    }
}

TEST(OdfCorpusTest, SeededMutationsParseOrFailCleanly)
{
    // The XmlTest documents and the paper-style manifest.
    const std::vector<std::string> inputs{
        "<a><b x=\"1\"/><c>text</c></a>",
        "<e a=\"x y\" b='z'/>",
        "<reference type=Pull pri=0></reference>",
        "<?xml version=\"1.0\"?>\n<!-- header -->\n"
        "<root><!-- inner --><x/></root>\n<!-- trailer -->",
        "<r><![CDATA[a<b&c]]></r>",
        "<r a=\"&lt;&amp;&gt;\">x&quot;y&apos;z</r>",
        "<r><i>1</i><j/><i>2</i></r>",
        kSocketOdf};
    Rng rng(29);
    const std::string manifest = kSocketOdf;
    for (int round = 0; round < 400; ++round) {
        const std::string &text = inputs[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(inputs.size()) - 1))];
        const auto last = static_cast<std::int64_t>(text.size());

        const std::string head =
            text.substr(0, static_cast<std::size_t>(rng.uniformInt(0, last)));
        expectCleanOutcome(head);

        std::string flipped = text;
        const auto at = static_cast<std::size_t>(rng.uniformInt(0, last - 1));
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(rng.uniformInt(1, 255)));
        expectCleanOutcome(flipped);

        // Splice: a head of this input joined to a tail of the manifest.
        const std::string spliced =
            head + manifest.substr(static_cast<std::size_t>(rng.uniformInt(
                       0, static_cast<std::int64_t>(manifest.size()))));
        expectCleanOutcome(spliced);

        // The manifest's root closes on its last byte, so every strict
        // prefix is unterminated.
        const std::string cut = manifest.substr(
            0, static_cast<std::size_t>(rng.uniformInt(
                   0, static_cast<std::int64_t>(manifest.size()) - 1)));
        EXPECT_FALSE(parseXml(cut).ok()) << cut;
        EXPECT_FALSE(OdfDocument::parse(cut).ok()) << cut;
    }
}

} // namespace
} // namespace hydra::odf
