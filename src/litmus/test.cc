#include "litmus/test.h"

#include <set>
#include <utility>

#include "common/log.h"
#include "common/strutil.h"
#include "ptx/parser.h"

namespace gpulitmus::litmus {

std::string
toString(MemSpace s)
{
    return s == MemSpace::Global ? "global" : "shared";
}

const LocationDef *
Test::findLocation(const std::string &name) const
{
    for (const auto &l : locations) {
        if (l.name == name)
            return &l;
    }
    return nullptr;
}

int64_t
Test::addressOf(const std::string &name) const
{
    for (size_t i = 0; i < locations.size(); ++i) {
        if (locations[i].name == name) {
            int64_t base = locations[i].space == MemSpace::Global
                               ? globalBase
                               : sharedBase;
            return base + locStride * static_cast<int64_t>(i);
        }
    }
    panic("test '%s' has no location '%s'", this->name.c_str(),
          name.c_str());
}

std::optional<std::string>
Test::locationAt(int64_t addr) const
{
    for (size_t i = 0; i < locations.size(); ++i) {
        if (addressOf(locations[i].name) == addr)
            return locations[i].name;
    }
    return std::nullopt;
}

std::optional<MemSpace>
Test::spaceOf(int64_t addr) const
{
    auto loc = locationAt(addr);
    if (!loc)
        return std::nullopt;
    return findLocation(*loc)->space;
}

std::string
Test::str() const
{
    std::string out = arch + " " + name + "\n";
    out += "{";
    bool first = true;
    for (const auto &l : locations) {
        if (!first)
            out += " ";
        first = false;
        out += toString(l.space) + " " + l.name + "=" +
               std::to_string(l.init) + ";";
    }
    for (const auto &r : regInits) {
        out += " " + std::to_string(r.tid) + ":" + r.reg + "=";
        out += r.isLocAddress ? r.loc : std::to_string(r.value);
        out += ";";
    }
    out += "}\n";
    out += program.str();
    out += "ScopeTree(" + scopeTree.str() + ")\n";
    out += toString(quantifier) + " (" + condition.str() + ")\n";
    return out;
}

TestText::TestText(const Test &test)
    : text(test.str()), digest(fnv1a(text))
{
}

std::vector<RegKey>
Test::observedRegs() const
{
    std::vector<RegKey> regs;
    condition.collectRegs(regs);
    return regs;
}

std::vector<std::string>
Test::observedLocs() const
{
    std::vector<std::string> locs;
    condition.collectLocs(locs);
    return locs;
}

void
Test::validate() const
{
    if (program.numThreads() == 0)
        fatal("test '%s' has no threads", name.c_str());
    if (scopeTree.numThreads() != program.numThreads())
        fatal("test '%s': scope tree covers %d threads but program has "
              "%d",
              name.c_str(), scopeTree.numThreads(),
              program.numThreads());

    std::set<std::string> loc_names;
    for (const auto &l : locations) {
        if (!loc_names.insert(l.name).second)
            fatal("test '%s': duplicate location '%s'", name.c_str(),
                  l.name.c_str());
    }

    for (const auto &r : regInits) {
        if (r.tid < 0 || r.tid >= program.numThreads())
            fatal("test '%s': register init for bad thread %d",
                  name.c_str(), r.tid);
        if (r.isLocAddress && !loc_names.count(r.loc))
            fatal("test '%s': register %s bound to unknown location "
                  "'%s'",
                  name.c_str(), r.reg.c_str(), r.loc.c_str());
    }

    for (int t = 0; t < program.numThreads(); ++t) {
        for (const auto &i : program.threads[t].instrs) {
            if (i.isMemAccess() && i.addr.isSym() &&
                !loc_names.count(i.addr.sym)) {
                fatal("test '%s': T%d accesses unknown location '%s'",
                      name.c_str(), t, i.addr.sym.c_str());
            }
            if (i.op == ptx::Opcode::Bra)
                program.threads[t].labelTarget(i.target);
        }
    }
}

TestBuilder::TestBuilder(std::string name)
{
    test_.name = std::move(name);
}

TestBuilder &
TestBuilder::global(const std::string &loc, int64_t init)
{
    test_.locations.push_back({loc, MemSpace::Global, init});
    return *this;
}

TestBuilder &
TestBuilder::shared(const std::string &loc, int64_t init)
{
    test_.locations.push_back({loc, MemSpace::Shared, init});
    return *this;
}

TestBuilder &
TestBuilder::thread(const std::string &ptx_text)
{
    ptx::ParseError err;
    auto prog = ptx::parseThread(ptx_text, &err);
    if (!prog)
        fatal("test '%s': %s", test_.name.c_str(), err.message.c_str());
    test_.program.threads.push_back(std::move(*prog));
    return *this;
}

TestBuilder &
TestBuilder::thread(ptx::ThreadProgram prog)
{
    test_.program.threads.push_back(std::move(prog));
    return *this;
}

TestBuilder &
TestBuilder::regVal(int tid, const std::string &reg, int64_t value)
{
    test_.regInits.push_back({tid, reg, false, "", value});
    return *this;
}

TestBuilder &
TestBuilder::regLoc(int tid, const std::string &reg,
                    const std::string &loc)
{
    test_.regInits.push_back({tid, reg, true, loc, 0});
    return *this;
}

TestBuilder &
TestBuilder::intraWarp()
{
    test_.scopeTree =
        ScopeTree::intraWarp(test_.program.numThreads());
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::intraCta()
{
    test_.scopeTree = ScopeTree::intraCta(test_.program.numThreads());
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::interCta()
{
    test_.scopeTree = ScopeTree::interCta(test_.program.numThreads());
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::scope(ScopeTree tree)
{
    test_.scopeTree = std::move(tree);
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::exists(const std::string &cond)
{
    auto c = parseCondition(cond);
    if (!c)
        fatal("test '%s': bad condition '%s'", test_.name.c_str(),
              cond.c_str());
    test_.quantifier = Quantifier::Exists;
    test_.condition = std::move(*c);
    return *this;
}

TestBuilder &
TestBuilder::notExists(const std::string &cond)
{
    exists(cond);
    test_.quantifier = Quantifier::NotExists;
    return *this;
}

TestBuilder &
TestBuilder::forall(const std::string &cond)
{
    exists(cond);
    test_.quantifier = Quantifier::Forall;
    return *this;
}

Test
TestBuilder::build()
{
    if (!scope_set_) {
        // Default: the paper's most common configuration, one thread
        // per CTA.
        test_.scopeTree =
            ScopeTree::interCta(test_.program.numThreads());
    }
    test_.validate();
    return std::move(test_);
}

} // namespace gpulitmus::litmus
