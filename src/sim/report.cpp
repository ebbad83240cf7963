/**
 * @file
 * Report writers.
 */
#include "sim/report.hpp"

#include <ostream>
#include <type_traits>

namespace impsim {

namespace {

/**
 * Writes one `name value` line, the value in a column of its own; a
 * per-access-type array prints as `stream=N indirect=N other=N`.
 */
template <typename T>
void
writeLine(std::ostream &os, const std::string &name, const T &value)
{
    constexpr std::size_t kNameWidth = 22;
    const std::size_t pad =
        name.size() < kNameWidth ? kNameWidth - name.size() : 1;
    os << name << std::string(pad, ' ');
    if constexpr (std::is_arithmetic_v<T>) {
        os << value;
    } else {
        for (int t = 0; t < kNumAccessTypes; ++t) {
            os << (t == 0 ? "" : " ")
               << accessTypeName(static_cast<AccessType>(t)) << '='
               << value[t];
        }
    }
    os << '\n';
}

/** Writes a `-- title --` section with one line per counter row. */
template <typename S>
void
writeSection(std::ostream &os, const char *title, const S &s)
{
    os << "-- " << title << " --\n";
    S::forEachCounter([&](const char *name, auto member, Merge) {
        writeLine(os, name, s.*member);
    });
}

} // namespace

void
writeReport(std::ostream &os, const std::string &label, const SimStats &s)
{
    os << "==== " << label << " ====\n";
    writeLine(os, "cycles", s.cycles);
    writeSection(os, "core", s.core);
    writeLine(os, "ipc", s.ipc());
    writeLine(os, "avgLoadLatency", s.avgLoadLatency());
    writeSection(os, "l1", s.l1);
    writeLine(os, "coverage", s.l1.coverage());
    writeLine(os, "accuracy", s.l1.accuracy());
    writeSection(os, "l2", s.l2);
    writeLine(os, "coverage", s.l2.coverage());
    writeLine(os, "accuracy", s.l2.accuracy());
    writeSection(os, "noc", s.noc);
    writeSection(os, "dram", s.dram);
    if (s.tlb.enabled) {
        writeSection(os, "tlb", s.tlb);
        writeLine(os, "l1Mpki", s.tlb.l1Mpki(s.core.instructions));
        writeLine(os, "l2Mpki", s.tlb.l2Mpki(s.core.instructions));
        writeLine(os, "avgWalkCycles", s.tlb.avgWalkCycles());
    }
}

void
writeCsvHeader(std::ostream &os, bool with_tlb)
{
    os << "label,cycles,instructions,ipc,avg_load_latency,"
          "l1_hits,l1_misses,l1_miss_indirect,l1_miss_stream,"
          "l1_miss_other,pref_issued,pref_indirect,coverage,accuracy,"
          "l2_pref_issued,l2_pref_useful,l2_coverage,"
          "noc_bytes,noc_queue_cycles,dram_bytes,dram_queue_cycles";
    if (with_tlb) {
        os << ",tlb_l1_mpki,tlb_l2_mpki,tlb_walks,tlb_walk_cycles,"
              "tlb_stall_cycles,pf_cross_dropped";
    }
    os << "\n";
}

void
writeCsvRow(std::ostream &os, const std::string &label, const SimStats &s,
            bool with_tlb)
{
    os << label << ',' << s.cycles << ',' << s.core.instructions << ','
       << s.ipc() << ',' << s.avgLoadLatency() << ',' << s.l1.hits
       << ',' << s.l1.misses << ','
       << s.l1.missesByType[static_cast<int>(AccessType::Indirect)]
       << ','
       << s.l1.missesByType[static_cast<int>(AccessType::Stream)] << ','
       << s.l1.missesByType[static_cast<int>(AccessType::Other)] << ','
       << s.l1.prefIssued << ',' << s.l1.prefIssuedIndirect << ','
       << s.l1.coverage() << ',' << s.l1.accuracy() << ','
       << s.l2.prefIssued << ',' << s.l2.prefUsefulFirstTouch << ','
       << s.l2.coverage() << ','
       << s.noc.bytes << ',' << s.noc.queueCycles << ','
       << s.dram.bytes() << ',' << s.dram.queueCycles;
    if (with_tlb) {
        // A TLB-off run inside a mixed sweep emits zeros here, so
        // every row has the same arity as the widened header.
        os << ',' << s.tlb.l1Mpki(s.core.instructions) << ','
           << s.tlb.l2Mpki(s.core.instructions) << ',' << s.tlb.walks
           << ',' << s.tlb.walkCycles << ',' << s.tlb.stallCycles << ','
           << s.tlb.pfCrossDropped;
    }
    os << "\n";
}

} // namespace impsim
