#include "model/checker.h"

#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "common/log.h"

namespace gpulitmus::model {

namespace {

/**
 * A test's candidate executions plus what every model check reads of
 * each besides its relations: the outcome key (Histogram::keyFor) and
 * whether the final state satisfies the condition. Computed once per
 * enumeration, so the models checked against one test share them.
 */
struct Candidates
{
    std::vector<axiom::Execution> executions;
    /** Distinct outcome keys, in first-seen order. */
    std::vector<std::string> keys;
    /** Per execution: index into keys. */
    std::vector<uint32_t> keyIndex;
    /** Per execution: does it satisfy the condition body? */
    std::vector<uint8_t> satisfies;

    Candidates(const litmus::Test &test,
               std::vector<axiom::Execution> execs)
        : executions(std::move(execs))
    {
        litmus::Histogram keyer(test);
        std::unordered_map<std::string, uint32_t> seen;
        keyIndex.reserve(executions.size());
        satisfies.reserve(executions.size());
        for (const auto &ex : executions) {
            auto [it, fresh] =
                seen.try_emplace(keyer.keyFor(ex.finalState),
                                 static_cast<uint32_t>(keys.size()));
            if (fresh)
                keys.push_back(it->first);
            keyIndex.push_back(it->second);
            satisfies.push_back(test.condition.eval(ex.finalState));
        }
    }
};

/**
 * Process-wide memo of candidate-execution enumerations, keyed by
 * test text digest and enumerator options. Enumeration dominates a
 * validation sweep's model-side cost; a test checked against N models
 * (or revisited across campaign cells) enumerates once. Bounded by a
 * coarse clear-at-capacity policy — sweeps visit tests with strong
 * locality (every model of one test back to back), so even a small
 * memo captures nearly all reuse.
 */
class EnumerationCache
{
  public:
    std::shared_ptr<const Candidates>
    get(const litmus::Test &test, const litmus::TestText &text,
        const axiom::EnumeratorOptions &opts)
    {
        // Keyed by the text digest plus the option values; a hit must
        // also match the full text and options, so distinct tests can
        // never collide into each other's candidate sets.
        const uint64_t key = keyFor(text.digest, opts);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it != map_.end() && it->second.text == text.text &&
                it->second.opts == opts)
                return it->second.execs;
        }
        // Enumerate outside the lock; a concurrent duplicate is
        // wasted work, not an error.
        auto execs = std::make_shared<const Candidates>(
            test, axiom::enumerateExecutions(test, opts));
        std::lock_guard<std::mutex> lock(mutex_);
        if (map_.size() >= kMaxEntries)
            map_.clear();
        map_.insert_or_assign(key, Entry{text.text, opts, execs});
        return execs;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    struct Entry
    {
        std::string text; ///< collision guard
        axiom::EnumeratorOptions opts;
        std::shared_ptr<const Candidates> execs;
    };

    static uint64_t
    keyFor(uint64_t digest, const axiom::EnumeratorOptions &opts)
    {
        Hash128 h;
        h.put64(digest);
        h.put64(static_cast<uint64_t>(opts.maxStepsPerThread));
        h.put64(static_cast<uint64_t>(opts.maxValuesPerLoc));
        h.put64(opts.maxCandidates);
        return h.digest().lo;
    }

    // Candidate sets can be large (up to maxCandidates executions);
    // the access pattern is back-to-back per test (every model of one
    // test, then the next test), so a small bound captures nearly all
    // reuse even with a worker pool interleaving a few tests.
    static constexpr size_t kMaxEntries = 64;
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, Entry> map_;
};

EnumerationCache &
enumerationCache()
{
    static EnumerationCache cache;
    return cache;
}

} // namespace

size_t
enumerationCacheSize()
{
    return enumerationCache().size();
}

void
clearEnumerationCache()
{
    enumerationCache().clear();
}

bool
inModelScope(const litmus::Test &test)
{
    for (const auto &th : test.program.threads) {
        for (const auto &in : th.instrs) {
            if (in.isMemAccess() &&
                (in.cacheOp == ptx::CacheOp::Ca || in.isVolatile))
                return false;
            // Branches mean loops (spin-lock scenarios): the
            // axiomatic side enumerates finite executions only, so
            // looped programs are outside the model scope — the
            // paper distills them away (Tab. 5) before evaluation.
            if (in.op == ptx::Opcode::Bra)
                return false;
        }
    }
    return true;
}

Checker::Checker(const cat::Model &model, axiom::EnumeratorOptions opts)
    : model_(&model), opts_(opts)
{
}

Verdict
Checker::check(const litmus::Test &test) const
{
    return check(test, litmus::TestText(test));
}

Verdict
Checker::check(const litmus::Test &test,
               const litmus::TestText &text) const
{
    Verdict v;
    v.testName = test.name;
    v.modelName = model_->name();

    auto shared = enumerationCache().get(test, text, opts_);
    const Candidates &cands = *shared;
    v.numCandidates = cands.executions.size();

    cat::Model::Scratch scratch;
    std::vector<uint8_t> keyAllowed(cands.keys.size(), 0);
    bool forall_ok = true;
    for (size_t i = 0; i < cands.executions.size(); ++i) {
        const axiom::Execution &ex = cands.executions[i];
        const int failed = model_->firstFailure(ex, scratch);
        const bool satisfies = cands.satisfies[i];
        if (failed < 0) {
            ++v.numAllowed;
            keyAllowed[cands.keyIndex[i]] = 1;
            if (satisfies) {
                v.conditionSatisfiable = true;
                if (!v.witness)
                    v.witness = ex;
            } else {
                forall_ok = false;
            }
        } else if (satisfies && !v.forbiddenWitness) {
            v.forbiddenWitness = ex;
            v.forbiddingCheck = model_->checkName(failed);
        }
    }

    // Forbidden keys: keys seen only on forbidden candidates.
    for (size_t k = 0; k < cands.keys.size(); ++k)
        (keyAllowed[k] ? v.allowedKeys : v.forbiddenKeys)
            .insert(cands.keys[k]);

    switch (test.quantifier) {
      case litmus::Quantifier::Exists:
        v.verdict = v.conditionSatisfiable ? "Ok" : "No";
        break;
      case litmus::Quantifier::NotExists:
        v.verdict = v.conditionSatisfiable ? "No" : "Ok";
        break;
      case litmus::Quantifier::Forall:
        v.verdict = forall_ok ? "Ok" : "No";
        break;
    }
    return v;
}

bool
Checker::allows(const litmus::Test &test) const
{
    return check(test).conditionSatisfiable;
}

SoundnessReport
checkSoundness(const Verdict &verdict,
               const litmus::Histogram &observed)
{
    SoundnessReport report;
    for (const auto &[key, count] : observed.counts()) {
        if (count == 0)
            continue;
        if (!verdict.allowedKeys.count(key)) {
            report.sound = false;
            report.violations.push_back(key);
        }
    }
    return report;
}

} // namespace gpulitmus::model
