/**
 * @file
 * NoC latency explorer: prints the 21364-style torus hop matrix and
 * the end-to-end message latencies between every pair of nodes —
 * where the Figure 3 remote latencies come from, physically.
 *
 * Usage: noc_latency [num_nodes]
 */

#include <iostream>

#include "examples/args.hh"
#include "src/noc/network.hh"
#include "src/stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace isim;

    // The matrices print one column per node; 64 is the largest
    // torus the NoC ablation sweeps.
    const auto nodes = static_cast<unsigned>(
        positiveArg(argc, argv, 1, "num_nodes", 8, 64));

    const TorusTopology topo(nodes);
    const Network net(topo, LinkParams{});

    std::cout << nodes << "-node torus: " << topo.width() << "x"
              << topo.height() << ", diameter " << topo.diameter()
              << ", average hops " << formatNum(topo.averageHops(), 2)
              << "\n\n";

    std::vector<std::string> headers = {"hops"};
    for (NodeId b = 0; b < nodes; ++b)
        headers.push_back("n" + std::to_string(b));
    Table t(headers);
    for (NodeId a = 0; a < nodes; ++a) {
        auto row = t.row();
        row.cell("n" + std::to_string(a));
        for (NodeId b = 0; b < nodes; ++b)
            row.count(topo.hops(a, b));
    }
    t.print(std::cout);

    std::cout << "\nOne-way latency for a 64-byte data message "
                 "(cycles @1GHz):\n\n";
    Table l(headers);
    for (NodeId a = 0; a < nodes; ++a) {
        auto row = l.row();
        row.cell("n" + std::to_string(a));
        for (NodeId b = 0; b < nodes; ++b)
            row.count(net.oneWay(a, b, 64));
    }
    l.print(std::cout);

    std::cout << "\nControl message (8B): average one-way "
              << net.oneWayAverage(8) << " cycles; data (64B): "
              << net.oneWayAverage(64) << " cycles.\n";
    return 0;
}
