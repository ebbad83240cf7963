/**
 * @file
 * impbench entry point: parses the benchmark arguments, runs one
 * workload and prints its metrics, ending with one JSON line.
 *
 *   impbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--work-dir DIR] [--spans-out FILE] [--tiny]
 *            [--inject-bad-row] [--write-expected]
 *
 * Run it through impbench/run.py, which builds it first.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "impbench: " << why
              << "\nusage: impbench --workload fig9_16c|uniproc_ooo|"
                 "tlb_replay|service [--seed N] [--seconds S] "
                 "[--trace 0|1] [--work-dir DIR] [--spans-out FILE] "
                 "[--tiny] [--inject-bad-row] [--write-expected]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using impbench::Options;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--work-dir")
            opt.workDir = value();
        else if (a == "--spans-out")
            opt.spansOut = value();
        else if (a == "--tiny")
            opt.tiny = true;
        else if (a == "--inject-bad-row")
            opt.injectBadRow = true;
        else if (a == "--write-expected")
            opt.writeExpected = true;
        else
            usage("unknown argument " + a);
    }
    if (opt.seconds <= 0)
        usage("--seconds must be positive");

    try {
        impbench::Outcome out;
        if (opt.workload == "service")
            out = impbench::runService(opt);
        else if (opt.workload == "fig9_16c" ||
                 opt.workload == "uniproc_ooo" ||
                 opt.workload == "tlb_replay")
            out = impbench::runSimWorkload(opt);
        else
            usage("unknown workload '" + opt.workload + "'");
        impbench::printResult(opt, out);
    } catch (const std::exception &e) {
        // No result line: a run that could not finish reports nothing.
        std::cerr << "impbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
