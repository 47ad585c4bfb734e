#include "model/checker.h"

#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "common/log.h"

namespace gpulitmus::model {

namespace {

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
    std::shared_ptr<const std::vector<axiom::Execution>>
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
        auto execs =
            std::make_shared<const std::vector<axiom::Execution>>(
                axiom::enumerateExecutions(test, opts));
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
        std::shared_ptr<const std::vector<axiom::Execution>> execs;
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

    litmus::Histogram keyer(test);

    auto shared = enumerationCache().get(test, text, opts_);
    const std::vector<axiom::Execution> &executions = *shared;
    v.numCandidates = executions.size();

    bool forall_ok = true;
    for (auto &ex : executions) {
        cat::ModelResult res = model_->evaluate(ex);
        std::string key = keyer.keyFor(ex.finalState);
        bool satisfies = test.condition.eval(ex.finalState);
        if (res.allowed) {
            ++v.numAllowed;
            v.allowedKeys.insert(key);
            if (satisfies) {
                v.conditionSatisfiable = true;
                if (!v.witness)
                    v.witness = ex;
            } else {
                forall_ok = false;
            }
        } else if (satisfies && !v.forbiddenWitness) {
            v.forbiddenWitness = ex;
            v.forbiddingCheck = res.firstFailure();
        }
    }

    // Forbidden keys: keys seen only on forbidden candidates.
    for (auto &ex : executions) {
        std::string key = keyer.keyFor(ex.finalState);
        if (!v.allowedKeys.count(key))
            v.forbiddenKeys.insert(key);
    }

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
