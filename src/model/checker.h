/**
 * @file
 * The model checker: enumerate a test's candidate executions, filter
 * them through a .cat model, and report which final states the model
 * allows — the herd workflow of Sec. 5.4.
 */

#ifndef GPULITMUS_MODEL_CHECKER_H
#define GPULITMUS_MODEL_CHECKER_H

#include <set>
#include <string>
#include <vector>

#include "axiom/enumerate.h"
#include "cat/cat.h"
#include "litmus/outcome.h"

namespace gpulitmus::model {

/** Result of checking one test against one model. */
struct Verdict
{
    std::string testName;
    std::string modelName;

    uint64_t numCandidates = 0;
    uint64_t numAllowed = 0;

    /** Outcome keys (Histogram::keyFor format) of allowed states. */
    std::set<std::string> allowedKeys;
    /** Outcome keys of candidates the model forbids (and no allowed
     * candidate produces). */
    std::set<std::string> forbiddenKeys;

    /** Does some allowed execution satisfy the condition body? */
    bool conditionSatisfiable = false;

    /**
     * Litmus-style verdict on the quantified condition: for exists,
     * "Ok" iff satisfiable; for ~exists, "Ok" iff unsatisfiable; for
     * forall, "Ok" iff every allowed state satisfies the body.
     */
    std::string verdict;

    /** One allowed execution satisfying the condition (witness). */
    std::optional<axiom::Execution> witness;
    /** One forbidden execution satisfying the condition, with the
     * name of the check that kills it. */
    std::optional<axiom::Execution> forbiddenWitness;
    std::string forbiddingCheck;

    /** The test is outside the model's scope (inModelScope): the
     * backend returned without enumerating; every count is zero and
     * `verdict` says so. Conformance joins skip such verdicts. */
    bool outOfScope = false;
};

/**
 * Evaluates tests against a .cat model.
 *
 * Candidate-execution enumeration — the hot path of a validation
 * sweep — is memoised process-wide by (test text digest, enumerator
 * options), so checking one test against N models enumerates its
 * executions once. The memo also keeps each execution's outcome key
 * and condition flag, so the N checks render each key once. It is
 * shared by every Checker instance and is safe to hit from campaign
 * worker threads. Each check evaluates the model with its own
 * cat::Model::Scratch (see cat.h), so a Checker is thread-safe too.
 */
class Checker
{
  public:
    explicit Checker(const cat::Model &model,
                     axiom::EnumeratorOptions opts = {});

    Verdict check(const litmus::Test &test) const;
    /** check() with the test's identity already at hand (keys the
     * enumeration memo without re-serialising). */
    Verdict check(const litmus::Test &test,
                  const litmus::TestText &text) const;

    /** Shorthand: does the model allow the condition body? */
    bool allows(const litmus::Test &test) const;

    const cat::Model &model() const { return *model_; }

  private:
    const cat::Model *model_;
    axiom::EnumeratorOptions opts_;
};

/** Entries in the process-wide enumeration memo (for tests and
 * instrumentation). */
size_t enumerationCacheSize();
/** Drop every memoised enumeration. */
void clearEnumerationCache();

/**
 * The model's experimental scope (Sec. 5.5 / Sec. 2.3): it covers
 * loop-free programs over accesses with the .cg operator only. Tests
 * touching .ca (L1) or volatile accesses are outside it — no fence
 * restores .ca ordering on Fermi — and so are programs with branches
 * (spin-loop scenarios): the axiomatic side enumerates finite
 * executions, and the paper distills loops away (Tab. 5) before any
 * model evaluation. Both are excluded from validation, exactly as in
 * the paper.
 */
bool inModelScope(const litmus::Test &test);

/** Soundness of a model w.r.t. observations (Sec. 5.4): every
 * behaviour the hardware (simulator) exhibits must be allowed. */
struct SoundnessReport
{
    bool sound = true;
    /** Observed outcome keys the model forbids. */
    std::vector<std::string> violations;
};

SoundnessReport checkSoundness(const Verdict &verdict,
                               const litmus::Histogram &observed);

} // namespace gpulitmus::model

#endif // GPULITMUS_MODEL_CHECKER_H
