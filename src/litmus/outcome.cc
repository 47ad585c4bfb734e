#include "litmus/outcome.h"

#include <cstdio>

#include "common/log.h"

namespace gpulitmus::litmus {

Histogram::Histogram(const Test &test)
    : test_(&test), regs_(test.observedRegs()),
      locs_(test.observedLocs())
{
}

std::string
Histogram::keyFor(const FinalState &state) const
{
    // Called once per distinct outcome by the sampling harness and
    // the explorer (both dedup runs by outcome digest first) and once
    // per execution by the model checker: append in place, no
    // temporaries.
    std::string key;
    key.reserve(16 * (regs_.size() + locs_.size()));
    char buf[24];
    auto append_int = [&](int64_t v) {
        key.append(buf, static_cast<size_t>(std::snprintf(
                            buf, sizeof buf, "%lld",
                            static_cast<long long>(v))));
    };
    for (const auto &[tid, reg] : regs_) {
        append_int(tid);
        key += ':';
        key += reg;
        key += '=';
        append_int(state.reg(tid, reg));
        key += "; ";
    }
    for (const auto &loc : locs_) {
        key += loc;
        key += '=';
        append_int(state.loc(loc));
        key += "; ";
    }
    if (!key.empty())
        key.resize(key.size() - 1); // drop trailing space
    return key;
}

void
Histogram::record(const FinalState &state, uint64_t times)
{
    if (times == 0)
        return;
    total_ += times;
    counts_[keyFor(state)] += times;
    if (test_->condition.eval(state))
        observed_ += times;
}

void
Histogram::restore(std::map<std::string, uint64_t> counts,
                   uint64_t observed, uint64_t total)
{
    counts_ = std::move(counts);
    observed_ = observed;
    total_ = total;
}

std::string
Histogram::verdict() const
{
    switch (test_->quantifier) {
      case Quantifier::Exists:
        return observed_ > 0 ? "Ok" : "No";
      case Quantifier::NotExists:
        return observed_ == 0 ? "Ok" : "No";
      case Quantifier::Forall:
        return observed_ == total_ ? "Ok" : "No";
    }
    panic("unknown quantifier");
}

std::string
Histogram::str() const
{
    std::string out = "Test " + test_->name + "\n";
    out += "Histogram (" + std::to_string(counts_.size()) +
           " states)\n";
    for (const auto &[key, count] : counts_) {
        out += "  " + std::to_string(count) + "  " + key + "\n";
    }
    out += toString(test_->quantifier) + " (" +
           test_->condition.str() + ")  observed " +
           std::to_string(observed_) + "/" + std::to_string(total_) +
           "  " + verdict() + "\n";
    return out;
}

} // namespace gpulitmus::litmus
