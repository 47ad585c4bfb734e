/**
 * @file
 * Candidate executions: a set of events plus the primitive relations
 * of the paper's model (po, dp components, fence relations, scope
 * relations, rf, co) and everything derived from them (fr, rfe, ...).
 */

#ifndef GPULITMUS_AXIOM_EXECUTION_H
#define GPULITMUS_AXIOM_EXECUTION_H

#include <string>
#include <vector>

#include "axiom/event.h"
#include "axiom/relation.h"
#include "litmus/state.h"

namespace gpulitmus::axiom {

/**
 * One candidate execution of a litmus test. Built by the enumerator;
 * the .cat evaluator (cat/cat.h) derives its base relations from the
 * primitive ones here.
 */
struct Execution
{
    std::vector<Event> events;

    // Primitive relations.
    Relation po;        ///< program order (total per thread)
    Relation rf;        ///< read-from (write -> read)
    Relation co;        ///< coherence (total per location over writes)
    Relation addr;      ///< address dependencies
    Relation data;      ///< data dependencies
    Relation ctrl;      ///< control dependencies
    Relation membarCta; ///< pairs separated by a membar.cta exactly
    Relation membarGl;  ///< pairs separated by a membar.gl exactly
    Relation membarSys; ///< pairs separated by a membar.sys exactly
    Relation scopeCta;  ///< events of threads in the same CTA
    Relation scopeGl;   ///< events of threads on the same GPU
    Relation scopeSys;  ///< universal scope relation

    litmus::FinalState finalState;

    int numEvents() const { return static_cast<int>(events.size()); }

    // Event-class masks.
    EventSet reads() const;
    EventSet writes() const;
    EventSet fences() const;
    EventSet all() const;

    /** Same-location (irreflexive) relation over memory events. */
    Relation sameLoc() const;

    /** po restricted to same-location pairs. */
    Relation poLoc() const;

    /** from-read: r -> all writes coherence-after r's source. */
    Relation fr() const;

    /** External (cross-thread) part of a relation. */
    Relation external(const Relation &r) const;
    /** Internal (same-thread) part of a relation. */
    Relation internal(const Relation &r) const;

    /** rmw pairs (atomic read -> its paired write). */
    Relation rmw() const;

    /**
     * Atomicity of read-modify-writes: no write intervenes (in co)
     * between an atomic's source and its own write. This is enforced
     * as a well-formedness condition of candidates because PTX
     * guarantees it independent of the memory model (the paper's
     * model omits atomics; see Sec. 2.3).
     */
    bool rmwAtomic() const;

    /** Render events and communication edges (Fig. 14 style). */
    std::string str() const;
};

} // namespace gpulitmus::axiom

#endif // GPULITMUS_AXIOM_EXECUTION_H
