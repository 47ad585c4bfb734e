/**
 * @file
 * Outcome histograms: the per-test result of running a litmus test
 * many times, as the paper reports ("obs/100k").
 */

#ifndef GPULITMUS_LITMUS_OUTCOME_H
#define GPULITMUS_LITMUS_OUTCOME_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "litmus/test.h"

namespace gpulitmus::litmus {

/**
 * Histogram of observed final states for one test. Only the registers
 * and locations the final condition mentions contribute to the outcome
 * key (matching the real litmus tool's output).
 */
class Histogram
{
  public:
    explicit Histogram(const Test &test);

    /** Record one run's final state. */
    void record(const FinalState &state) { record(state, 1); }

    /**
     * Record `times` runs that all ended in `state`: one key render
     * and one condition evaluation for the lot. Identical to calling
     * record(state) `times` times; a no-op when `times` is 0.
     */
    void record(const FinalState &state, uint64_t times);

    /** Number of runs whose final state satisfied the condition body. */
    uint64_t observed() const { return observed_; }

    /** Total recorded runs. */
    uint64_t total() const { return total_; }

    /** Per-outcome counts, keyed by rendered outcome. */
    const std::map<std::string, uint64_t> &counts() const
    {
        return counts_;
    }

    /**
     * Verdict string in litmus style: "Ok" when the quantifier is
     * satisfied by the observations, "No" otherwise.
     */
    std::string verdict() const;

    /** Multi-line report: histogram plus observed count. */
    std::string str() const;

    /** Render an outcome key for a state (observed regs/locs only). */
    std::string keyFor(const FinalState &state) const;

    /**
     * Re-point at a content-identical Test instance. Campaign results
     * are self-contained (they own the test the histogram references);
     * the single-shot harness wrapper rebinds the returned histogram
     * to the caller's instance so it stays valid on its own.
     */
    void rebind(const Test &test) { test_ = &test; }

    /**
     * Install recorded counts wholesale — the deserialisation path of
     * the persistent result store (serve/store.h). The keys must be
     * keyFor renderings for this histogram's test, and `observed`
     * must be the condition-satisfying count of those very runs; the
     * store guarantees both by keying records on the full test text.
     * Replaces any previously recorded state.
     */
    void restore(std::map<std::string, uint64_t> counts,
                 uint64_t observed, uint64_t total);

  private:
    const Test *test_;
    std::vector<RegKey> regs_;
    std::vector<std::string> locs_;
    std::map<std::string, uint64_t> counts_;
    uint64_t observed_ = 0;
    uint64_t total_ = 0;
};

} // namespace gpulitmus::litmus

#endif // GPULITMUS_LITMUS_OUTCOME_H
