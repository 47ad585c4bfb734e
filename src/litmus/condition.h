/**
 * @file
 * Final-condition predicates for litmus tests.
 *
 * A condition is a boolean combination of atoms "t:reg = value" and
 * "loc = value", quantified with exists / ~exists / forall, exactly as
 * in the litmus format (Fig. 12, line 12 of the paper).
 */

#ifndef GPULITMUS_LITMUS_CONDITION_H
#define GPULITMUS_LITMUS_CONDITION_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "litmus/state.h"

namespace gpulitmus::litmus {

/** Quantifier applied to the predicate over all executions. */
enum class Quantifier {
    Exists,    ///< "exists (...)": is the outcome observable?
    NotExists, ///< "~exists (...)": forbidden outcome
    Forall,    ///< "forall (...)": must hold in every execution
};

/** Boolean predicate AST over final states. */
class Condition
{
  public:
    enum class Kind { True, RegEq, LocEq, And, Or, Not };

    Condition() : kind_(Kind::True) {}

    static Condition regEq(int tid, std::string reg, int64_t value);
    static Condition locEq(std::string loc, int64_t value);
    static Condition conj(Condition a, Condition b);
    static Condition disj(Condition a, Condition b);
    static Condition negate(Condition a);

    /** Evaluate against a final state. */
    bool eval(const FinalState &state) const;

    /**
     * All (tid, reg) atoms mentioned, used to build outcome keys.
     */
    void collectRegs(std::vector<RegKey> &out) const;

    /** All location atoms mentioned. */
    void collectLocs(std::vector<std::string> &out) const;

    /** Render, e.g. "0:r1=1 /\\ 1:r2=0". */
    std::string str() const;

    Kind kind() const { return kind_; }

    /** Structural equality (children compared by value). */
    bool operator==(const Condition &other) const;

  private:
    Kind kind_;
    // RegEq / LocEq payload
    int tid_ = 0;
    std::string name_;
    int64_t value_ = 0;
    // And / Or / Not children
    std::vector<std::shared_ptr<const Condition>> children_;
};

/**
 * Parse a condition body such as "0:r1=1 /\\ (1:r2=0 \\/ x=2)".
 * Returns nullopt on malformed input.
 */
std::optional<Condition> parseCondition(const std::string &text);

/**
 * Parse a full final-condition line including the quantifier, e.g.
 * "exists (0:r2=0 /\\ 1:r2=0)".
 */
std::optional<std::pair<Quantifier, Condition>>
parseQuantifiedCondition(const std::string &text);

std::string toString(Quantifier q);

} // namespace gpulitmus::litmus

#endif // GPULITMUS_LITMUS_CONDITION_H
