#include "netlist/bench_writer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"

namespace effitest::netlist {
namespace {

std::string bench_text(const Netlist& netlist) {
  std::ostringstream os;
  write_bench(netlist, os);
  return os.str();
}

Netlist small() {
  Netlist nl("small");
  const int a = nl.add_cell("a", CellType::kInput, {}, Point{0.1, 0.2});
  const int b = nl.add_cell("b", CellType::kInput, {}, Point{0.3, 0.4});
  const int g1 = nl.add_cell("g1", CellType::kNand, {a, b}, Point{0.5, 0.5});
  const int ff = nl.add_cell("ff", CellType::kDff, {g1}, Point{0.6, 0.6});
  const int g2 = nl.add_cell("g2", CellType::kNot, {ff}, Point{0.7, 0.7});
  nl.mark_primary_output(g2);
  return nl;
}

TEST(BenchWriter, EmitsAllSections) {
  const std::string text = bench_text(small());
  EXPECT_EQ(text.rfind("# small\n# 2 inputs, 1 flip-flops, 2 gates\n", 0), 0u);
  EXPECT_NE(text.find("INPUT(a)"), std::string::npos);
  EXPECT_NE(text.find("INPUT(b)"), std::string::npos);
  EXPECT_NE(text.find("OUTPUT(g2)"), std::string::npos);
  EXPECT_NE(text.find("g1 = NAND(a, b)"), std::string::npos);
  EXPECT_NE(text.find("ff = DFF(g1)"), std::string::npos);
  EXPECT_NE(text.find("g2 = NOT(ff)"), std::string::npos);
  EXPECT_NE(text.find("#!place g1"), std::string::npos);
}

TEST(BenchWriter, RoundTripPreservesStructure) {
  const Netlist original = small();
  const Netlist parsed =
      parse_bench_string(bench_text(original), "small");
  EXPECT_EQ(parsed.num_cells(), original.num_cells());
  EXPECT_EQ(parsed.num_flip_flops(), original.num_flip_flops());
  EXPECT_EQ(parsed.num_combinational_gates(),
            original.num_combinational_gates());
  for (const Cell& c : original.cells()) {
    const int id = parsed.find(c.name);
    ASSERT_GE(id, 0) << c.name;
    EXPECT_EQ(parsed.cell(id).type, c.type) << c.name;
    EXPECT_EQ(parsed.cell(id).fanins.size(), c.fanins.size()) << c.name;
    EXPECT_EQ(parsed.cell(id).is_primary_output, c.is_primary_output);
  }
}

TEST(BenchWriter, PlacementRoundTrip) {
  const Netlist original = small();
  const Netlist parsed =
      parse_bench_with_placement(bench_text(original), "small");
  for (const Cell& c : original.cells()) {
    const Cell& p = parsed.cell(parsed.find(c.name));
    EXPECT_NEAR(p.position.x, c.position.x, 1e-9) << c.name;
    EXPECT_NEAR(p.position.y, c.position.y, 1e-9) << c.name;
  }
}

TEST(BenchWriter, GeneratedCircuitRoundTrips) {
  GeneratorSpec spec;
  spec.num_flip_flops = 40;
  spec.num_gates = 400;
  spec.num_buffers = 2;
  spec.num_critical_paths = 12;
  spec.seed = 3;
  const GeneratedCircuit gen = generate_circuit(spec);
  const std::string text = bench_text(gen.netlist);
  const Netlist parsed = parse_bench_with_placement(text, "roundtrip");
  EXPECT_EQ(parsed.num_cells(), gen.netlist.num_cells());
  EXPECT_NO_THROW(parsed.validate());
  // Spot-check positions survive (needed to reproduce the timing model).
  for (int ff : gen.buffered_ffs) {
    const Cell& orig = gen.netlist.cell(ff);
    const Cell& back = parsed.cell(parsed.find(orig.name));
    EXPECT_NEAR(back.position.x, orig.position.x, 1e-9);
  }
}

TEST(BenchWriter, MalformedPlacementLineThrows) {
  EXPECT_THROW(
      parse_bench_with_placement("INPUT(a)\nb = NOT(a)\n#!place b oops\n"),
      NetlistError);
  EXPECT_THROW(
      parse_bench_with_placement("INPUT(a)\nb = NOT(a)\n#!place ghost 0 0\n"),
      NetlistError);
}

TEST(BenchWriter, FileIo) {
  const Netlist original = small();
  const std::string path = "/tmp/effitest_writer_test.bench";
  write_bench_file(original, path);
  const Netlist parsed = parse_bench_file_with_placement(path);
  EXPECT_EQ(parsed.num_cells(), original.num_cells());
  EXPECT_THROW(write_bench_file(original, "/nonexistent/dir/x.bench"),
               NetlistError);
}

}  // namespace
}  // namespace effitest::netlist
