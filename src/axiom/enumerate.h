/**
 * @file
 * Candidate-execution enumeration (Sec. 5.1.2 of the paper).
 *
 * Each thread is executed symbolically: loads branch over the set of
 * values any store in the test can write to that location (computed
 * to a fixpoint), dependencies are tracked by tainting register values
 * with the load events they derive from, and predication/branches
 * contribute control dependencies. Thread traces are then combined,
 * and every read-from assignment and per-location coherence order
 * consistent with the traces yields one candidate execution.
 */

#ifndef GPULITMUS_AXIOM_ENUMERATE_H
#define GPULITMUS_AXIOM_ENUMERATE_H

#include <vector>

#include "axiom/execution.h"
#include "litmus/test.h"

namespace gpulitmus::axiom {

struct EnumeratorOptions
{
    /** Per-thread step budget; paths exceeding it are dropped (the
     * paper's tests are loop-free, this guards imported tests). */
    int maxStepsPerThread = 256;
    /** Cap on distinct candidate values per location. */
    int maxValuesPerLoc = 16;
    /** Hard cap on generated candidates (safety valve). */
    uint64_t maxCandidates = 1ULL << 20;

    bool operator==(const EnumeratorOptions &other) const = default;
};

/**
 * Enumerate the well-formed candidate executions of a test: rf maps
 * every read to a matching write, co totally orders writes per
 * location after the init write, and read-modify-writes are atomic.
 */
std::vector<Execution> enumerateExecutions(
    const litmus::Test &test, const EnumeratorOptions &opts = {});

} // namespace gpulitmus::axiom

#endif // GPULITMUS_AXIOM_ENUMERATE_H
