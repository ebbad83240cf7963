/**
 * @file
 * Human-readable and CSV reporting of simulation results.
 */
#ifndef IMPSIM_SIM_REPORT_HPP
#define IMPSIM_SIM_REPORT_HPP

#include <iosfwd>
#include <string>

#include "common/stats.hpp"

namespace impsim {

/**
 * Writes the plain-text report to @p os: `cycles`, then per stats
 * struct a section of its counters and ratios (docs/outputs.md).
 * @param label heading, e.g. "spmv/IMP/64c"
 */
void writeReport(std::ostream &os, const std::string &label,
                 const SimStats &s);

/**
 * Writes the CSV header matching writeCsvRow. @p with_tlb appends the
 * TLB column group; pass true iff any run in the experiment has the
 * TLB model enabled, so TLB-off outputs stay byte-identical to
 * pre-TLB builds.
 */
void writeCsvHeader(std::ostream &os, bool with_tlb = false);

/** Writes one CSV row for a run (@p with_tlb as for the header). */
void writeCsvRow(std::ostream &os, const std::string &label,
                 const SimStats &s, bool with_tlb = false);

} // namespace impsim

#endif // IMPSIM_SIM_REPORT_HPP
