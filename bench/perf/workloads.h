#ifndef ELSA_BENCH_PERF_WORKLOADS_H_
#define ELSA_BENCH_PERF_WORKLOADS_H_

/**
 * @file
 * The four host-performance workloads (README.md says why each was
 * chosen). Every input derives from `seed`; `smoke` shrinks a
 * workload to one item of minimal size for a fast end-to-end check.
 */

#include <cstdint>
#include <memory>
#include <string>

#include "harness.h"

namespace elsa::perf {

/** BERT-large at n = 512, every recorder off. */
std::unique_ptr<Workload> makeAttnLong(std::uint64_t seed, bool smoke);

/** SASRec at n = 128 with every recorder on and stats attached. */
std::unique_ptr<Workload> makeAttnShortObserved(std::uint64_t seed,
                                                bool smoke);

/** ElsaSystem::evaluateAllModes for BERT-large and SASRec. */
std::unique_ptr<Workload> makeFig11Sweep(std::uint64_t seed, bool smoke);

/** The canonical serve overload scenario, six cells. */
std::unique_ptr<Workload> makeServeOverload(std::uint64_t seed,
                                            bool smoke);

/** The workload of that name; elsa::Error when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool smoke);

} // namespace elsa::perf

#endif // ELSA_BENCH_PERF_WORKLOADS_H_
