/**
 * @file
 * Unit tests for the report writers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/report.hpp"

namespace impsim {
namespace {

SimStats
sampleStats()
{
    SimStats s;
    s.cycles = 1000;
    s.core.instructions = 2500;
    s.core.loadLatencySum = 900;
    s.core.loadLatencyCount = 300;
    s.l1.hits = 900;
    s.l1.misses = 100;
    s.l1.missesByType[static_cast<int>(AccessType::Indirect)] = 60;
    s.l1.missesByType[static_cast<int>(AccessType::Stream)] = 30;
    s.l1.missesByType[static_cast<int>(AccessType::Other)] = 10;
    s.l1.prefIssued = 50;
    s.l1.prefIssuedIndirect = 40;
    s.l1.prefUsefulFirstTouch = 35;
    s.l1.prefUnused = 5;
    s.noc.bytes = 4096;
    s.dram.bytesRead = 2048;
    return s;
}

/** The first word of each line of section @p title in @p report. */
std::vector<std::string>
sectionNames(const std::string &report, const std::string &title)
{
    std::vector<std::string> names;
    std::istringstream lines(report);
    std::string line;
    bool inside = false;
    while (std::getline(lines, line)) {
        if (line.rfind("-- ", 0) == 0)
            inside = line == "-- " + title + " --";
        else if (inside)
            names.push_back(line.substr(0, line.find(' ')));
    }
    return names;
}

template <typename S>
std::vector<std::string>
rowNames()
{
    std::vector<std::string> names;
    S::forEachCounter(
        [&](const char *name, auto, Merge) { names.push_back(name); });
    return names;
}

/** Checks that section @p title lists each row of @p S exactly once. */
template <typename S>
void
expectRowsOnce(const std::string &report, const std::string &title)
{
    std::vector<std::string> names = sectionNames(report, title);
    for (const std::string &row : rowNames<S>())
        EXPECT_EQ(std::count(names.begin(), names.end(), row), 1)
            << "-- " << title << " -- row " << row;
}

TEST(Report, EveryCounterRowAppearsOnceInItsSection)
{
    SimStats s = sampleStats();
    for (bool tlb : {false, true}) {
        s.tlb.enabled = tlb;
        std::ostringstream os;
        writeReport(os, "unit/test", s);
        const std::string t = os.str();
        EXPECT_EQ(t.rfind("==== unit/test ====\ncycles                1000\n"
                          "-- core --\ninstructions          2500\n",
                          0),
                  0u)
            << t;
        expectRowsOnce<CoreStats>(t, "core");
        expectRowsOnce<CacheStats>(t, "l1");
        expectRowsOnce<CacheStats>(t, "l2");
        expectRowsOnce<NocStats>(t, "noc");
        expectRowsOnce<DramStats>(t, "dram");
        if (tlb)
            expectRowsOnce<TlbStats>(t, "tlb");
        else
            EXPECT_EQ(t.find("-- tlb --"), std::string::npos) << t;
    }
}

TEST(Report, CsvRowMatchesHeaderArity)
{
    auto count = [](const std::string &s) {
        std::size_t n = 1;
        for (char c : s)
            n += c == ',' ? 1 : 0;
        return n;
    };
    for (bool with_tlb : {false, true}) {
        std::ostringstream h, r;
        writeCsvHeader(h, with_tlb);
        writeCsvRow(r, "a/b", sampleStats(), with_tlb);
        EXPECT_EQ(count(h.str()), count(r.str())) << with_tlb;
    }
}

TEST(Report, CsvEscapesNothingButIsStable)
{
    std::ostringstream r1, r2;
    writeCsvRow(r1, "x", sampleStats());
    writeCsvRow(r2, "x", sampleStats());
    EXPECT_EQ(r1.str(), r2.str());
    EXPECT_EQ(r1.str().front(), 'x');
    EXPECT_EQ(r1.str().back(), '\n');
}

/** The backquoted spans of @p line, in order. */
std::vector<std::string>
codeSpans(const std::string &line)
{
    std::vector<std::string> spans;
    std::size_t open = line.find('`');
    while (open != std::string::npos) {
        std::size_t close = line.find('`', open + 1);
        if (close == std::string::npos)
            break;
        spans.push_back(line.substr(open + 1, close - open - 1));
        open = line.find('`', close + 1);
    }
    return spans;
}

TEST(ReportDocs, OutputReferenceListsEveryColumnAndRow)
{
    std::ifstream in(std::string(IMPSIM_SOURCE_DIR) + "/docs/outputs.md");
    ASSERT_TRUE(in);
    // Each table's first-column names, under every backquoted name of
    // the heading above it ("csv" for the CSV column table).
    std::map<std::string, std::vector<std::string>> tables;
    std::vector<std::string> heading;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind('#', 0) == 0) {
            heading = line == "## CSV columns"
                          ? std::vector<std::string>{"csv"}
                          : codeSpans(line);
        } else if (line.rfind("| `", 0) == 0) {
            for (const std::string &h : heading)
                tables[h].push_back(codeSpans(line).at(0));
        }
    }

    std::ostringstream header;
    writeCsvHeader(header, true);
    std::string text = header.str();
    text.pop_back(); // the newline
    std::vector<std::string> columns;
    std::istringstream cells(text);
    for (std::string cell; std::getline(cells, cell, ',');)
        columns.push_back(cell);
    EXPECT_EQ(tables["csv"], columns);

    EXPECT_EQ(tables["core"], rowNames<CoreStats>());
    EXPECT_EQ(tables["l1"], rowNames<CacheStats>());
    EXPECT_EQ(tables["l2"], rowNames<CacheStats>());
    EXPECT_EQ(tables["noc"], rowNames<NocStats>());
    EXPECT_EQ(tables["dram"], rowNames<DramStats>());
    EXPECT_EQ(tables["tlb"], rowNames<TlbStats>());
}

} // namespace
} // namespace impsim
