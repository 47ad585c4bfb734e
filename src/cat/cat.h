/**
 * @file
 * A .cat model DSL (Alglave et al., "Herding cats", TOPLAS 2014)
 * sufficient for the paper's models (Fig. 15 and 16):
 *
 *   let com = rf | co | fr
 *   let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
 *   acyclic (po-loc-llh | com) as sc-per-loc-llh
 *   let rmo(fence) = dp | fence | rfe | co | fr
 *   ...
 *
 * Supported: let bindings (optionally parameterised), the operators
 * | & \ ; + * ? ^-1, parentheses, the event-class filters WW / WR /
 * RW / RR, and the checks acyclic / irreflexive / empty with "as"
 * names. Comments are (* ... *) or // to end of line.
 *
 * Model::parse compiles the statements once into a flat program over
 * numbered relation slots: the base relations, each let and each
 * operator result get a fixed slot, every call of a parameterised let
 * is inlined at its call site (its body sees the names in scope there,
 * with the parameters bound over them), and the filters become
 * restrict operations. Everything a model could get wrong is a
 * CatError from parse, never a failure mid-evaluation: an undefined
 * name, a call with the wrong number of arguments, a filter with more
 * than one, a duplicate parameter, recursion, and programs nested too
 * deeply or too large after inlining.
 */

#ifndef GPULITMUS_CAT_CAT_H
#define GPULITMUS_CAT_CAT_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "axiom/execution.h"

namespace gpulitmus::cat {

/** Outcome of a single model check on one candidate execution. */
struct CheckResult
{
    std::string name;  ///< the "as" name (or the check expression)
    std::string kind;  ///< acyclic / irreflexive / empty
    bool passed = false;
    /** A witness cycle (event ids) when an acyclic check fails. */
    std::vector<int> cycle;
};

/** Outcome of evaluating a whole model on one candidate. */
struct ModelResult
{
    bool allowed = false; ///< all checks passed
    std::vector<CheckResult> checks;

    /** Name of the first failed check, empty when allowed. */
    std::string firstFailure() const;
};

/** Parse / evaluation diagnostics. */
struct CatError
{
    std::string message;
    int line = 0;
};

/** A compiled .cat model. Immutable once parsed: one Model may be
 * evaluated from many threads at once, each with its own Scratch. */
class Model
{
  public:
    /**
     * Working storage for evaluations: one relation per program slot
     * for the execution at hand. Reuse one across the executions of a
     * check (it only grows); never share one between threads.
     */
    class Scratch
    {
        friend class Model;
        std::vector<uint64_t> rows_;
    };

    /** Parse and compile source text; nullopt + error (with its line)
     * on bad syntax or an unresolvable model. */
    static std::optional<Model> parse(const std::string &source,
                                      const std::string &name = "",
                                      CatError *error = nullptr);

    /** Like parse but calls fatal() on error (for built-in models). */
    static Model parseOrDie(const std::string &source,
                            const std::string &name = "");

    /** Evaluate all checks of the model on a candidate execution. */
    ModelResult evaluate(const axiom::Execution &ex) const;

    /**
     * Index (into checkNames()) of the first check the execution
     * fails, or -1 when the model allows it. Stops at that check and
     * finds no witness cycle: the question a model checker asks of
     * every candidate.
     */
    int firstFailure(const axiom::Execution &ex, Scratch &scratch) const;

    /**
     * Evaluate a named relation (either primitive or defined by a
     * let) in the context of an execution. Useful for inspection and
     * tests. nullopt if undefined or parameterised. A name let-bound
     * twice gives its first definition.
     */
    std::optional<axiom::Relation>
    relation(const std::string &name, const axiom::Execution &ex) const;

    const std::string &name() const { return name_; }

    /** Names of the checks in order. */
    std::vector<std::string> checkNames() const;

    /** Name of check `index` (checkNames()[index]). */
    const std::string &checkName(int index) const;

  private:
    struct Impl;
    std::shared_ptr<const Impl> impl_;
    std::string name_;
};

} // namespace gpulitmus::cat

#endif // GPULITMUS_CAT_CAT_H
