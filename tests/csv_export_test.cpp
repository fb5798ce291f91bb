// Tests for the CSV exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/thrifty.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "instrument/csv_export.hpp"

namespace thrifty {
namespace {

using graph::CsrGraph;

TEST(CsvExport, IterationRowsMatchRecords) {
  gen::RmatParams params;
  params.scale = 11;  // n + m above support::kSerialCutoff
  params.edge_factor = 8;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  core::CcOptions options;
  options.instrument = true;
  const auto result = core::thrifty_cc(g, options);

  std::ostringstream out;
  instrument::write_iterations_csv(out, result.stats);
  const std::string csv = out.str();
  // Header + one line per iteration.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(result.stats.iterations.size()) + 1);
  EXPECT_NE(csv.find("thrifty,0,Initial-Push"), std::string::npos);
}

TEST(CsvExport, SummaryRowsOnePerRun) {
  gen::RmatParams params;
  params.scale = 11;  // n + m above support::kSerialCutoff
  params.edge_factor = 8;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  core::CcOptions options;
  options.instrument = true;
  std::vector<instrument::RunStats> runs;
  runs.push_back(core::thrifty_cc(g, options).stats);
  runs.push_back(core::thrifty_cc(g, options).stats);
  std::ostringstream out;
  instrument::write_summary_csv(out, runs);
  const std::string csv = out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("thrifty,"), std::string::npos);
}

}  // namespace
}  // namespace thrifty
