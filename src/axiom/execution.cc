#include "axiom/execution.h"

#include "common/log.h"

namespace gpulitmus::axiom {

std::string
Event::str() const
{
    std::string label(1, static_cast<char>('a' + (id % 26)));
    std::string out = label + ": ";
    switch (kind) {
      case Kind::Fence:
        out += "F." + ptx::toString(fenceScope);
        return out;
      case Kind::Read:
        out += "R";
        break;
      case Kind::Write:
        out += "W";
        break;
    }
    if (isAtomic)
        out += "*";
    if (cacheOp != ptx::CacheOp::None)
        out += "." + ptx::toString(cacheOp);
    if (isVolatile)
        out += ".vol";
    out += " " + loc + "=" + std::to_string(value);
    if (isInit())
        out += " (init)";
    else
        out += " [T" + std::to_string(tid) + "]";
    return out;
}

EventSet
Execution::reads() const
{
    EventSet s = 0;
    for (const auto &e : events) {
        if (e.isRead())
            s |= 1ULL << e.id;
    }
    return s;
}

EventSet
Execution::writes() const
{
    EventSet s = 0;
    for (const auto &e : events) {
        if (e.isWrite())
            s |= 1ULL << e.id;
    }
    return s;
}

EventSet
Execution::fences() const
{
    EventSet s = 0;
    for (const auto &e : events) {
        if (e.isFence())
            s |= 1ULL << e.id;
    }
    return s;
}

EventSet
Execution::all() const
{
    int n = numEvents();
    return n == 64 ? ~0ULL : ((1ULL << n) - 1);
}

Relation
Execution::sameLoc() const
{
    Relation r(numEvents());
    for (const auto &a : events) {
        for (const auto &b : events) {
            if (a.id != b.id && !a.isFence() && !b.isFence() &&
                a.loc == b.loc)
                r.set(a.id, b.id);
        }
    }
    return r;
}

Relation
Execution::poLoc() const
{
    return po & sameLoc();
}

Relation
Execution::fr() const
{
    // fr = rf^-1 ; co, minus identity (a read is not fr-before the
    // very write it reads from).
    Relation f = rf.inverse().seq(co);
    return f.minus(Relation::identity(numEvents()));
}

Relation
Execution::external(const Relation &r) const
{
    Relation out(numEvents());
    for (const auto &[i, j] : r.pairs()) {
        if (events[i].tid != events[j].tid)
            out.set(i, j);
    }
    return out;
}

Relation
Execution::internal(const Relation &r) const
{
    return r.minus(external(r));
}

Relation
Execution::rmw() const
{
    Relation r(numEvents());
    for (const auto &e : events) {
        if (e.isRead() && e.rmwPartner >= 0)
            r.set(e.id, e.rmwPartner);
    }
    return r;
}

bool
Execution::rmwAtomic() const
{
    // empty (rmw & (fre ; coe)): no external write sneaks in between
    // the read and the write of an atomic.
    Relation fre = external(fr());
    Relation coe = external(co);
    return (rmw() & fre.seq(coe)).empty();
}

std::string
Execution::str() const
{
    std::string out;
    for (const auto &e : events)
        out += "  " + e.str() + "\n";
    auto emit = [&](const char *name, const Relation &r) {
        for (const auto &[i, j] : r.pairs()) {
            out += "  ";
            out += static_cast<char>('a' + (i % 26));
            out += " -";
            out += name;
            out += "-> ";
            out += static_cast<char>('a' + (j % 26));
            out += "\n";
        }
    };
    emit("rf", rf);
    emit("co", co);
    emit("fr", fr());
    return out;
}

} // namespace gpulitmus::axiom
