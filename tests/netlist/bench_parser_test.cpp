#include "netlist/bench_parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "netlist/bench_writer.hpp"

namespace effitest::netlist {
namespace {

// A small s27-style sequential circuit in ISCAS89 format.
constexpr const char* kSmallBench = R"(
# toy sequential benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G8  = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9  = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G3  = BUFF(G0)
G17 = NOT(G11)
)";

TEST(BenchParser, ParsesSmallCircuit) {
  const Netlist nl = parse_bench_string(kSmallBench, "toy");
  EXPECT_EQ(nl.name(), "toy");
  EXPECT_EQ(nl.primary_inputs().size(), 3u);
  EXPECT_EQ(nl.num_flip_flops(), 3u);
  EXPECT_EQ(nl.num_combinational_gates(), 11u);
  EXPECT_TRUE(nl.cell(nl.find("G17")).is_primary_output);
}

TEST(BenchParser, GateTypesAndFanins) {
  const Netlist nl = parse_bench_string(kSmallBench);
  const Cell& g8 = nl.cell(nl.find("G8"));
  EXPECT_EQ(g8.type, CellType::kAnd);
  ASSERT_EQ(g8.fanins.size(), 2u);
  EXPECT_EQ(g8.fanins[0], nl.find("G14"));
  EXPECT_EQ(g8.fanins[1], nl.find("G6"));
  const Cell& dff = nl.cell(nl.find("G5"));
  EXPECT_EQ(dff.type, CellType::kDff);
  ASSERT_EQ(dff.fanins.size(), 1u);
  EXPECT_EQ(dff.fanins[0], nl.find("G10"));
}

TEST(BenchParser, ForwardReferencesResolved) {
  // G5 = DFF(G10) appears before G10 is defined.
  EXPECT_NO_THROW(parse_bench_string(kSmallBench));
}

TEST(BenchParser, CommentsAndBlankLinesIgnored) {
  const Netlist nl = parse_bench_string(
      "# only comments\n\nINPUT(a)  # trailing comment\n\nb = BUF(a)\n");
  EXPECT_EQ(nl.num_cells(), 2u);
}

TEST(BenchParser, PositionsAssigned) {
  const Netlist nl = parse_bench_string(kSmallBench);
  // Deeper gates sit further right than primary inputs.
  const Point pi = nl.cell(nl.find("G0")).position;
  const Point deep = nl.cell(nl.find("G9")).position;
  EXPECT_GT(deep.x, pi.x);
  for (const Cell& c : nl.cells()) {
    EXPECT_GE(c.position.x, 0.0);
    EXPECT_LE(c.position.x, 1.0);
    EXPECT_GE(c.position.y, 0.0);
    EXPECT_LE(c.position.y, 1.0);
  }
}

TEST(BenchParser, UndefinedSignalThrows) {
  EXPECT_THROW(parse_bench_string("a = NOT(ghost)\n"), BenchParseError);
}

TEST(BenchParser, UnknownTypeThrows) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\nb = FROB(a)\n"), BenchParseError);
}

TEST(BenchParser, DuplicateDefinitionThrows) {
  EXPECT_THROW(
      parse_bench_string("INPUT(a)\nb = NOT(a)\nb = BUF(a)\n"),
      BenchParseError);
}

TEST(BenchParser, MalformedLineThrows) {
  EXPECT_THROW(parse_bench_string("INPUT a\n"), BenchParseError);
  EXPECT_THROW(parse_bench_string("x = NOT a)\n"), BenchParseError);
  EXPECT_THROW(parse_bench_string("x = NOT()\n"), BenchParseError);
}

TEST(BenchParser, UndefinedOutputThrows) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\nOUTPUT(ghost)\nb = NOT(a)\n"),
               BenchParseError);
}

TEST(BenchParser, ErrorCarriesLineNumber) {
  try {
    (void)parse_bench_string("INPUT(a)\nx = FROB(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line_number, 2u);
  }
}

TEST(BenchParser, MissingFileThrows) {
  EXPECT_THROW(parse_bench_file_with_placement("/nonexistent/file.bench"),
               NetlistError);
}

TEST(BenchParser, ValidatedResult) {
  const Netlist nl = parse_bench_string(kSmallBench);
  EXPECT_NO_THROW(nl.validate());
}

// Real ISCAS89 distributions are DOS-formatted: CRLF line endings,
// trailing whitespace, sometimes a ^Z end-of-file marker or a UTF-8 BOM
// from a later re-encode. None of that may leak into signal names.
std::string to_crlf(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(BenchParser, CrlfLinesParseWithCleanSignalNames) {
  const Netlist unix_nl = parse_bench_string(kSmallBench, "toy");
  const Netlist dos_nl = parse_bench_string(to_crlf(kSmallBench), "toy");
  ASSERT_EQ(dos_nl.num_cells(), unix_nl.num_cells());
  for (std::size_t i = 0; i < dos_nl.num_cells(); ++i) {
    const std::string& name = dos_nl.cell(static_cast<int>(i)).name;
    EXPECT_EQ(name, unix_nl.cell(static_cast<int>(i)).name);
    EXPECT_EQ(name.find('\r'), std::string::npos) << name;
  }
  EXPECT_EQ(dos_nl.num_flip_flops(), unix_nl.num_flip_flops());
  EXPECT_TRUE(dos_nl.cell(dos_nl.find("G17")).is_primary_output);
}

TEST(BenchParser, TrailingWhitespaceAndPaddedArgsStripped) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)  \t\r\nOUTPUT(b)\t \r\nb = NOT( a )\t\r\n");
  EXPECT_EQ(nl.num_cells(), 2u);
  EXPECT_GE(nl.find("a"), 0);
  EXPECT_GE(nl.find("b"), 0);
}

TEST(BenchParser, DosEofMarkerIgnored) {
  const Netlist nl = parse_bench_string(
      "INPUT(a)\r\nOUTPUT(b)\r\nb = NOT(a)\r\n\x1a", "doseof");
  EXPECT_EQ(nl.num_cells(), 2u);
}

TEST(BenchParser, Utf8BomStripped) {
  const Netlist nl = parse_bench_string(
      "\xef\xbb\xbfINPUT(a)\nOUTPUT(b)\nb = NOT(a)\n", "bom");
  EXPECT_EQ(nl.num_cells(), 2u);
  EXPECT_GE(nl.find("a"), 0);
}

TEST(BenchParser, CrlfPlacementSidecarParses) {
  const Netlist nl = parse_bench_with_placement(
      "INPUT(a)\r\nOUTPUT(b)\r\nb = NOT(a)\r\n"
      "#!place a 0.25 0.75\r\n#!place b 0.5 0.5\r\n",
      "dosplace");
  EXPECT_DOUBLE_EQ(nl.cell(nl.find("a")).position.x, 0.25);
  EXPECT_DOUBLE_EQ(nl.cell(nl.find("a")).position.y, 0.75);
}

// Fuzz-found defects, pinned. Each case used to be accepted silently (or
// rejected without a line number) before the corpus-replay fuzz harness
// (tests/fuzz/fuzz_bench_parser) surfaced it.

TEST(BenchParser, ReversedParensAreRejectedNotMisparsed) {
  // close < open made the substr length wrap: "a = )AND(b" parsed the
  // argument list from the wrong slice instead of erroring.
  try {
    (void)parse_bench_string("INPUT(b)\na = )AND(b\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line_number, 2u);
    EXPECT_NE(std::string(e.what()).find("expected name = TYPE(args)"),
              std::string::npos)
        << e.what();
  }
}

TEST(BenchParser, EmptyLhsCarriesLineNumber) {
  // "= AND(a,b)" produced a nameless cell and failed later with a generic
  // NetlistError; now the parse rejects it where it happens.
  try {
    (void)parse_bench_string("INPUT(a)\nINPUT(b)\n= AND(a, b)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line_number, 3u);
    EXPECT_NE(std::string(e.what()).find("missing signal name"),
              std::string::npos)
        << e.what();
  }
}

TEST(BenchParser, TrailingTextAfterCloseParenIsRejected) {
  // Trailing junk was silently dropped — a mangled (e.g. line-merged) file
  // parsed as if nothing were wrong.
  EXPECT_THROW((void)parse_bench_string("INPUT(a) INPUT(b)\n"),
               BenchParseError);
  try {
    (void)parse_bench_string("INPUT(a)\nx = NOT(a) junk\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line_number, 2u);
    EXPECT_NE(std::string(e.what()).find("unexpected text after ')'"),
              std::string::npos)
        << e.what();
  }
}

TEST(BenchParser, DuplicateInputCarriesLineNumber) {
  // A repeated INPUT(a) hit Netlist::add_cell's generic duplicate error
  // with no line info; the parser now reports it like any gate duplicate.
  try {
    (void)parse_bench_string("INPUT(a)\nINPUT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line_number, 2u);
    EXPECT_NE(std::string(e.what()).find("duplicate definition of a"),
              std::string::npos)
        << e.what();
  }
}

// Robustness sweep: mangled inputs must raise a structured error (never
// crash or silently mis-parse).
class BenchParserFuzzTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchParserFuzzTest, MalformedInputsThrowCleanly) {
  EXPECT_THROW(
      {
        try {
          (void)parse_bench_string(GetParam());
        } catch (const BenchParseError&) {
          throw;
        } catch (const NetlistError&) {
          throw;
        }
      },
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BenchParserFuzzTest,
    ::testing::Values(
        "G1 = (G0)\n",                       // missing type
        "INPUT(a)\na = NOT(a)\n",            // duplicate & self definition
        "INPUT(a)\nx = DFF(a, a)\n",         // DFF arity
        "INPUT(a)\n= NOT(a)\n",              // missing lhs
        "OUTPUT()\n",                        // empty output
        "INPUT(a)\nx = AND(a)\n",            // AND arity
        "INPUT(a)\nx = NOT(a\n",             // unclosed paren
        "x = NOT(y)\ny = NOT(x)\n",          // combinational cycle
        "INPUT(a)\nx = NOT(,)\n",            // empty args
        "garbage line\n"));                  // no structure at all

}  // namespace
}  // namespace effitest::netlist
