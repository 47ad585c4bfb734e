/**
 * @file
 * The litmus test representation: locations with regions and initial
 * values, register initialisation (including registers holding
 * location addresses), the per-thread programs, the scope tree, and
 * the quantified final condition. Mirrors the GPU litmus format of
 * Fig. 12 in the paper.
 */

#ifndef GPULITMUS_LITMUS_TEST_H
#define GPULITMUS_LITMUS_TEST_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "litmus/condition.h"
#include "litmus/scope_tree.h"
#include "ptx/program.h"

namespace gpulitmus::litmus {

/** Memory regions from the test's memory map (Sec. 2.2). */
enum class MemSpace { Global, Shared };

std::string toString(MemSpace s);

/** One shared location of a test. */
struct LocationDef
{
    std::string name;
    MemSpace space = MemSpace::Global;
    int64_t init = 0;

    bool operator==(const LocationDef &other) const = default;
};

/** Initialisation of one register of one thread. */
struct RegInit
{
    int tid = 0;
    std::string reg;
    bool isLocAddress = false; ///< register holds the address of loc
    std::string loc;           ///< when isLocAddress
    int64_t value = 0;         ///< otherwise

    bool operator==(const RegInit &other) const = default;
};

/** A complete GPU litmus test. */
struct Test
{
    std::string name;
    std::string arch = "GPU_PTX";
    std::vector<LocationDef> locations;
    std::vector<RegInit> regInits;
    ptx::Program program;
    ScopeTree scopeTree;
    Quantifier quantifier = Quantifier::Exists;
    Condition condition;

    /** Look up a location definition by name; nullptr if absent. */
    const LocationDef *findLocation(const std::string &name) const;

    /**
     * Deterministic fake address for a location: global locations live
     * at globalBase + 64 * index, shared at sharedBase + 64 * index.
     */
    static constexpr int64_t globalBase = 0x10000;
    static constexpr int64_t sharedBase = 0x20000;
    static constexpr int64_t locStride = 64;

    int64_t addressOf(const std::string &name) const;

    /** Inverse of addressOf; empty if the address is no location. */
    std::optional<std::string> locationAt(int64_t addr) const;

    /** Space of the location containing this address. */
    std::optional<MemSpace> spaceOf(int64_t addr) const;

    /** Whole-test pretty printer in the Fig. 12 litmus format. */
    std::string str() const;

    /**
     * Registers that make up the observable outcome of a run: all
     * registers mentioned in the final condition, plus all locations
     * mentioned there.
     */
    std::vector<RegKey> observedRegs() const;
    std::vector<std::string> observedLocs() const;

    /** Validate internal consistency (thread counts, labels, locs). */
    void validate() const;

    /** Structural equality; equal tests have equal str(). */
    bool operator==(const Test &other) const = default;
};

/**
 * A test's identity for keying: its serialised text (Test::str()) and
 * the 64-bit FNV-1a digest of that text. Job keys, the simulator's
 * machine cache, the enumeration memo and the conformance join all
 * derive from one instance per test instead of re-serialising it.
 */
struct TestText
{
    explicit TestText(const Test &test);

    std::string text;
    uint64_t digest;
};

/**
 * Fluent builder used by the built-in test library, the generator and
 * the CUDA mapping layer.
 *
 *   Test t = TestBuilder("mp")
 *       .global("x", 0).global("y", 0)
 *       .thread("st.cg [x],1; st.cg [y],1")
 *       .thread("ld.cg r1,[y]; ld.cg r2,[x]")
 *       .interCta()
 *       .exists("1:r1=1 /\\ 1:r2=0")
 *       .build();
 */
class TestBuilder
{
  public:
    explicit TestBuilder(std::string name);

    TestBuilder &global(const std::string &loc, int64_t init = 0);
    TestBuilder &shared(const std::string &loc, int64_t init = 0);

    /** Append a thread from semicolon/newline-separated PTX text. */
    TestBuilder &thread(const std::string &ptx_text);

    /** Append a pre-built thread program. */
    TestBuilder &thread(ptx::ThreadProgram prog);

    /** Initialise a register with a plain value. */
    TestBuilder &regVal(int tid, const std::string &reg, int64_t value);

    /** Initialise a register with a location's address. */
    TestBuilder &regLoc(int tid, const std::string &reg,
                        const std::string &loc);

    TestBuilder &intraWarp();
    TestBuilder &intraCta();
    TestBuilder &interCta();
    TestBuilder &scope(ScopeTree tree);

    TestBuilder &exists(const std::string &cond);
    TestBuilder &notExists(const std::string &cond);
    TestBuilder &forall(const std::string &cond);

    /** Finalise; panics on inconsistent tests. Moves the test out:
     * call once, as the last use of the builder. */
    Test build();

  private:
    Test test_;
    bool scope_set_ = false;
};

} // namespace gpulitmus::litmus

#endif // GPULITMUS_LITMUS_TEST_H
