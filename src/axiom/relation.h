/**
 * @file
 * Dense relation algebra over event ids.
 *
 * Candidate executions of litmus tests have few events (the engine
 * caps at 64), so relations are bit matrices with one uint64_t row per
 * event. The operations mirror the .cat language: union, intersection,
 * difference, sequential composition, inverse, closures, and the
 * acyclicity / irreflexivity / emptiness checks.
 */

#ifndef GPULITMUS_AXIOM_RELATION_H
#define GPULITMUS_AXIOM_RELATION_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gpulitmus::axiom {

/** A set of events as a bit mask (executions have at most 64). */
using EventSet = uint64_t;

constexpr int kMaxEvents = 64;

class Relation
{
  public:
    Relation() : n_(0) {}
    explicit Relation(int n);

    static Relation identity(int n);
    static Relation universal(int n);
    static Relation fromPairs(int n,
                              const std::vector<std::pair<int, int>> &ps);
    /** The relation whose row i (successors of event i, as a bit
     * mask) is rows[i], for i < n. */
    static Relation fromRows(int n, const uint64_t *rows);

    int size() const { return n_; }

    bool get(int i, int j) const;
    /** Successors of event i as a bit mask. */
    uint64_t row(int i) const { return rows_[static_cast<size_t>(i)]; }
    void set(int i, int j, bool v = true);

    Relation operator|(const Relation &other) const;
    Relation operator&(const Relation &other) const;
    /** Set difference (the .cat "\" operator). */
    Relation minus(const Relation &other) const;
    /** Sequential composition (the .cat ";" operator). */
    Relation seq(const Relation &other) const;
    Relation inverse() const;
    /** Transitive closure (the .cat "+" operator). */
    Relation plus() const;
    /** Reflexive-transitive closure (the .cat "*" operator). */
    Relation star() const;
    /** Reflexive closure (the .cat "?" operator). */
    Relation maybe() const;

    /** Keep only pairs with domain in a and range in b. */
    Relation restrict(EventSet a, EventSet b) const;

    bool empty() const;
    bool irreflexive() const;
    /** True if the relation has no cycle (reflexive pairs count). */
    bool acyclic() const;

    /** One witness cycle (event ids), empty if acyclic. */
    std::vector<int> findCycle() const;

    uint64_t pairCount() const;
    std::vector<std::pair<int, int>> pairs() const;

    bool operator==(const Relation &other) const = default;

    std::string str() const;

  private:
    void checkCompatible(const Relation &other) const;

    int n_;
    std::vector<uint64_t> rows_;
};

} // namespace gpulitmus::axiom

#endif // GPULITMUS_AXIOM_RELATION_H
