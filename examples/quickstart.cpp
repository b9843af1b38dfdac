// Quickstart: mine maximal quasi-cliques from a small graph in ~20 lines.
//
// Uses the paper's own illustrative graph (Figure 4, vertices a..i): with
// gamma = 0.6 and tau_size = 4 the unique maximal quasi-clique containing
// {a,b,c,d} is {a,b,c,d,e}.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "graph/generators.h"
#include "quick/maximality_filter.h"
#include "quick/quasi_clique.h"
#include "quick/serial_miner.h"

int main() {
  using namespace qcm;

  // 1. A graph: 9 vertices a..i (ids 0..8), 16 edges.
  Graph graph = PaperFigure4Graph();
  std::printf("Graph: %u vertices, %lu edges\n", graph.NumVertices(),
              static_cast<unsigned long>(graph.NumEdges()));

  // 2. Mining parameters: each member must connect to >= 60% of the other
  //    members, and results must have at least 4 vertices.
  MiningOptions options;
  options.gamma = 0.6;
  options.min_size = 4;

  // 3. Mine. The sink collects candidates; FilterMaximal removes the
  //    non-maximal ones (the paper's postprocessing step).
  VectorSink sink;
  SerialMiner miner(options);
  auto report = miner.Run(graph, &sink);
  if (!report.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  auto maximal = FilterMaximal(sink.results());

  // 4. Print results (vertex ids 0..8 = a..i).
  std::printf("Maximal 0.6-quasi-cliques with >= 4 vertices:\n");
  for (const VertexSet& s : maximal) {
    std::printf("  {");
    for (size_t i = 0; i < s.size(); ++i) {
      std::printf("%s%c", i ? ", " : " ", 'a' + static_cast<char>(s[i]));
    }
    std::printf(" }\n");
  }
  std::printf("Search explored %lu set-enumeration nodes.\n",
              static_cast<unsigned long>(report->stats.nodes_explored));
  return 0;
}
