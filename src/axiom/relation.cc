#include "axiom/relation.h"

#include <algorithm>

#include "common/log.h"

namespace gpulitmus::axiom {

Relation::Relation(int n) : n_(n), rows_(static_cast<size_t>(n), 0)
{
    if (n < 0 || n > kMaxEvents)
        panic("relation size %d out of range", n);
}

Relation
Relation::identity(int n)
{
    Relation r(n);
    for (int i = 0; i < n; ++i)
        r.set(i, i);
    return r;
}

Relation
Relation::universal(int n)
{
    Relation r(n);
    uint64_t mask = n == 64 ? ~0ULL : ((1ULL << n) - 1);
    for (int i = 0; i < n; ++i)
        r.rows_[i] = mask;
    return r;
}

Relation
Relation::fromPairs(int n, const std::vector<std::pair<int, int>> &ps)
{
    Relation r(n);
    for (const auto &[i, j] : ps)
        r.set(i, j);
    return r;
}

Relation
Relation::fromRows(int n, const uint64_t *rows)
{
    Relation r(n);
    r.rows_.assign(rows, rows + n);
    return r;
}

bool
Relation::get(int i, int j) const
{
    return (rows_[static_cast<size_t>(i)] >> j) & 1;
}

void
Relation::set(int i, int j, bool v)
{
    if (i < 0 || i >= n_ || j < 0 || j >= n_)
        panic("relation index (%d, %d) out of range for size %d", i, j,
              n_);
    if (v)
        rows_[static_cast<size_t>(i)] |= 1ULL << j;
    else
        rows_[static_cast<size_t>(i)] &= ~(1ULL << j);
}

void
Relation::checkCompatible(const Relation &other) const
{
    if (n_ != other.n_)
        panic("relation size mismatch: %d vs %d", n_, other.n_);
}

Relation
Relation::operator|(const Relation &other) const
{
    checkCompatible(other);
    Relation r(n_);
    for (int i = 0; i < n_; ++i)
        r.rows_[i] = rows_[i] | other.rows_[i];
    return r;
}

Relation
Relation::operator&(const Relation &other) const
{
    checkCompatible(other);
    Relation r(n_);
    for (int i = 0; i < n_; ++i)
        r.rows_[i] = rows_[i] & other.rows_[i];
    return r;
}

Relation
Relation::minus(const Relation &other) const
{
    checkCompatible(other);
    Relation r(n_);
    for (int i = 0; i < n_; ++i)
        r.rows_[i] = rows_[i] & ~other.rows_[i];
    return r;
}

Relation
Relation::seq(const Relation &other) const
{
    checkCompatible(other);
    Relation r(n_);
    for (int i = 0; i < n_; ++i) {
        uint64_t row = rows_[i];
        uint64_t out = 0;
        while (row) {
            int k = __builtin_ctzll(row);
            row &= row - 1;
            out |= other.rows_[k];
        }
        r.rows_[i] = out;
    }
    return r;
}

Relation
Relation::inverse() const
{
    Relation r(n_);
    for (int i = 0; i < n_; ++i) {
        for (int j = 0; j < n_; ++j) {
            if (get(i, j))
                r.set(j, i);
        }
    }
    return r;
}

Relation
Relation::plus() const
{
    // Repeated squaring-ish Warshall.
    Relation r = *this;
    for (int k = 0; k < n_; ++k) {
        for (int i = 0; i < n_; ++i) {
            if (r.get(i, k))
                r.rows_[i] |= r.rows_[k];
        }
    }
    return r;
}

Relation
Relation::star() const
{
    return plus() | identity(n_);
}

Relation
Relation::maybe() const
{
    return *this | identity(n_);
}

Relation
Relation::restrict(EventSet a, EventSet b) const
{
    Relation r(n_);
    for (int i = 0; i < n_; ++i) {
        if ((a >> i) & 1)
            r.rows_[i] = rows_[i] & b;
    }
    return r;
}

bool
Relation::empty() const
{
    for (int i = 0; i < n_; ++i) {
        if (rows_[i])
            return false;
    }
    return true;
}

bool
Relation::irreflexive() const
{
    for (int i = 0; i < n_; ++i) {
        if (get(i, i))
            return false;
    }
    return true;
}

bool
Relation::acyclic() const
{
    return plus().irreflexive();
}

std::vector<int>
Relation::findCycle() const
{
    Relation closure = plus();
    for (int i = 0; i < n_; ++i) {
        if (!closure.get(i, i))
            continue;
        // Shortest path from i back to i via BFS with parent links.
        std::vector<int> parent(static_cast<size_t>(n_), -2);
        std::vector<int> queue;
        for (int k = 0; k < n_; ++k) {
            if (get(i, k) && parent[k] == -2) {
                parent[k] = i;
                queue.push_back(k);
            }
        }
        for (size_t qi = 0; qi < queue.size(); ++qi) {
            int m = queue[qi];
            if (m == i)
                break;
            for (int k = 0; k < n_; ++k) {
                if (get(m, k) && parent[k] == -2) {
                    parent[k] = m;
                    queue.push_back(k);
                }
            }
        }
        // Reconstruct i -> ... -> i; the closure guarantees i was
        // re-reached.
        std::vector<int> rev;
        int cur = i;
        do {
            cur = parent[cur];
            if (cur < 0)
                panic("cycle reconstruction lost the path");
            rev.push_back(cur);
        } while (cur != i);
        return std::vector<int>(rev.rbegin(), rev.rend());
    }
    return {};
}

uint64_t
Relation::pairCount() const
{
    uint64_t count = 0;
    for (int i = 0; i < n_; ++i)
        count += static_cast<uint64_t>(__builtin_popcountll(rows_[i]));
    return count;
}

std::vector<std::pair<int, int>>
Relation::pairs() const
{
    std::vector<std::pair<int, int>> out;
    for (int i = 0; i < n_; ++i) {
        for (int j = 0; j < n_; ++j) {
            if (get(i, j))
                out.emplace_back(i, j);
        }
    }
    return out;
}

std::string
Relation::str() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[i, j] : pairs()) {
        if (!first)
            out += ", ";
        first = false;
        out += "(" + std::to_string(i) + "," + std::to_string(j) + ")";
    }
    out += "}";
    return out;
}

} // namespace gpulitmus::axiom
