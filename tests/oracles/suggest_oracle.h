#ifndef AUTOBI_TESTS_ORACLES_SUGGEST_ORACLE_H_
#define AUTOBI_TESTS_ORACLES_SUGGEST_ORACLE_H_

#include <vector>

#include "core/auto_bi.h"

namespace autobi {

// The frozen flat PredictJoinsForNewTable: scores its own join graph from
// GenerateCandidates(tables, options.candidates), forces the confirmed joins
// to probability ~1, then runs one unpartitioned SolveKmcaCc (threads = 0)
// and SolveEmsGreedy over the whole forced graph. It reads only
// options.candidates, solver, penalty_probability, enforce_fk_once and tau;
// mode, the ablation switches, threads and cache are ignored, and EMS always
// runs. The differential reference for the pipeline form in core/suggest.h
// under default options. Nothing under src/ links it.
std::vector<Join> PredictJoinsForNewTableFlat(const std::vector<Table>& tables,
                                              const BiModel& confirmed,
                                              const LocalModel& model,
                                              const AutoBiOptions& options = {});

}  // namespace autobi

#endif  // AUTOBI_TESTS_ORACLES_SUGGEST_ORACLE_H_
