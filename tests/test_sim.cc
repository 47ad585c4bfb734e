/**
 * @file
 * Unit tests for the chip registry and the operational machine:
 * determinism, incantation column encoding, per-chip weak-behaviour
 * signatures, fence semantics, and per-location coherence invariants
 * under randomised stress (property sweeps).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "litmus/library.h"
#include "litmus/outcome.h"
#include "sim/machine.h"

namespace gpulitmus::sim {
namespace {

namespace pl = litmus::paperlib;

uint64_t
countWeak(const ChipProfile &chip, const litmus::Test &test,
          Incantations inc, uint64_t iters, uint64_t seed = 7)
{
    MachineOptions opts;
    opts.inc = inc;
    Machine machine(chip, test, opts);
    Rng rng(seed);
    uint64_t weak = 0;
    for (uint64_t i = 0; i < iters; ++i)
        weak += test.condition.eval(machine.run(rng));
    return weak;
}

TEST(Chips, RegistryMatchesTable1)
{
    EXPECT_EQ(allChips().size(), 8u);
    EXPECT_EQ(resultChips().size(), 7u); // GTX 280 omitted
    EXPECT_EQ(chip("Titan").chipName, "GTX Titan");
    EXPECT_EQ(chip("TesC").arch, "Fermi");
    EXPECT_EQ(chip("HD7970").arch, "GCN 1.0");
    EXPECT_TRUE(chip("HD6570").isAmd());
    EXPECT_TRUE(chip("GTX7").isNvidia());
    EXPECT_EQ(chip("GTX6").sdk, "5.0"); // Tab. 4
}

TEST(Chips, CoRRSignature)
{
    // Fermi and Kepler allow the load-load hazard; Maxwell, Tesla and
    // AMD do not (Fig. 1).
    EXPECT_TRUE(chip("GTX5").allowCoRR);
    EXPECT_TRUE(chip("TesC").allowCoRR);
    EXPECT_TRUE(chip("GTX6").allowCoRR);
    EXPECT_TRUE(chip("Titan").allowCoRR);
    EXPECT_FALSE(chip("GTX7").allowCoRR);
    EXPECT_FALSE(chip("GTX280").allowCoRR);
    EXPECT_FALSE(chip("HD6570").allowCoRR);
    EXPECT_FALSE(chip("HD7970").allowCoRR);
}

TEST(Incantations, ColumnRoundTrip)
{
    for (int col = 1; col <= 16; ++col)
        EXPECT_EQ(Incantations::fromColumn(col).column(), col);
}

TEST(Incantations, Column16IsAll)
{
    Incantations inc = Incantations::fromColumn(16);
    EXPECT_TRUE(inc.memoryStress);
    EXPECT_TRUE(inc.bankConflicts);
    EXPECT_TRUE(inc.threadSync);
    EXPECT_TRUE(inc.threadRandomisation);
    EXPECT_EQ(Incantations::fromColumn(1).str(), "none");
}

TEST(Incantations, PaperColumnComparisons)
{
    // Columns 12 and 16 differ only by bank conflicts; 15 and 16 by
    // thread randomisation; 10 and 12 by thread synchronisation.
    auto c12 = Incantations::fromColumn(12);
    auto c16 = Incantations::fromColumn(16);
    EXPECT_NE(c12.bankConflicts, c16.bankConflicts);
    EXPECT_EQ(c12.memoryStress, c16.memoryStress);
    auto c15 = Incantations::fromColumn(15);
    EXPECT_NE(c15.threadRandomisation, c16.threadRandomisation);
    EXPECT_EQ(c15.bankConflicts, c16.bankConflicts);
    auto c10 = Incantations::fromColumn(10);
    EXPECT_NE(c10.threadSync, c12.threadSync);
    EXPECT_EQ(c10.threadRandomisation, c12.threadRandomisation);
}

TEST(Machine, DeterministicGivenSeed)
{
    litmus::Test test = pl::mp();
    Machine m1(chip("Titan"), test, {});
    Machine m2(chip("Titan"), test, {});
    Rng r1(99), r2(99);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(m1.run(r1), m2.run(r2));
}

TEST(Machine, SequentialExecutionIsCorrect)
{
    // Single thread, no concurrency: the machine must compute the
    // architecturally-correct result under any incantations.
    litmus::Test test = litmus::TestBuilder("seq")
                            .global("x", 5)
                            .thread("ld.cg r1,[x]; add r2,r1,10;"
                                    "st.cg [x],r2; ld.cg r3,[x]")
                            .intraCta()
                            .exists("0:r3=15 /\\ x=15")
                            .build();
    for (int col = 1; col <= 16; ++col) {
        MachineOptions opts;
        opts.inc = Incantations::fromColumn(col);
        Machine machine(chip("TesC"), test, opts);
        Rng rng(static_cast<uint64_t>(col));
        for (int i = 0; i < 50; ++i) {
            litmus::FinalState st = machine.run(rng);
            EXPECT_EQ(st.reg(0, "r3"), 15);
            EXPECT_EQ(st.loc("x"), 15);
        }
    }
}

TEST(Machine, GuardsAndBranches)
{
    litmus::Test test =
        litmus::TestBuilder("spin")
            .global("m", 0)
            .thread("LOOP: atom.cas r0,[m],0,1; setp.ne p0,r0,0;"
                    "@p0 bra LOOP; ld.cg r1,[m]")
            .intraCta()
            .exists("0:r1=1")
            .build();
    Machine machine(chip("Titan"), test, {});
    Rng rng(3);
    litmus::FinalState st = machine.run(rng);
    EXPECT_EQ(st.reg(0, "r1"), 1);
    EXPECT_EQ(st.loc("m"), 1);
}

TEST(Machine, NoWeakBehaviourWithoutIncantations)
{
    // Tab. 6 column 1 on Nvidia: nothing is observed.
    for (const char *t : {"mp", "sb", "lb"}) {
        litmus::Test test = t == std::string("mp") ? pl::mp()
                            : t == std::string("sb") ? pl::sb()
                                                     : pl::lb();
        EXPECT_EQ(countWeak(chip("Titan"), test,
                            Incantations::none(), 3000),
                  0u)
            << t;
    }
}

TEST(Machine, WeakBehavioursUnderFullIncantations)
{
    EXPECT_GT(countWeak(chip("Titan"), pl::mp(),
                        Incantations::all(), 5000),
              0u);
    EXPECT_GT(countWeak(chip("Titan"), pl::sb(),
                        Incantations::all(), 5000),
              0u);
    EXPECT_GT(countWeak(chip("Titan"), pl::coRR(),
                        Incantations::all(), 5000),
              0u);
    EXPECT_GT(countWeak(chip("HD7970"), pl::lb(),
                        Incantations::all(), 5000),
              0u);
}

TEST(Machine, MaxwellIsStrong)
{
    for (const litmus::Test &test :
         {pl::mp(), pl::sb(), pl::lb(), pl::coRR(), pl::mpVolatile(),
          pl::casSl(false)}) {
        EXPECT_EQ(countWeak(chip("GTX7"), test, Incantations::all(),
                            4000),
                  0u)
            << test.name;
    }
}

TEST(Machine, GlFencesRestoreMpSbLb)
{
    using ptx::Scope;
    for (const char *c : {"TesC", "GTX6", "Titan", "HD7970"}) {
        EXPECT_EQ(countWeak(chip(c), pl::mp(Scope::Gl),
                            Incantations::all(), 4000),
                  0u)
            << c;
        EXPECT_EQ(countWeak(chip(c), pl::sb(Scope::Gl),
                            Incantations::all(), 4000),
                  0u)
            << c;
        EXPECT_EQ(countWeak(chip(c), pl::lb(Scope::Gl),
                            Incantations::all(), 4000),
                  0u)
            << c;
    }
}

TEST(Machine, CtaFenceLeaksInterCtaOnTitan)
{
    // Sec. 6: lb+membar.ctas is observed inter-CTA...
    EXPECT_GT(countWeak(chip("Titan"), pl::lbMembarCtas(),
                        Incantations::all(), 60000),
              0u);
    // ...but the same fences forbid the intra-CTA variant (the model
    // forbids it, so the simulator must too).
    EXPECT_EQ(countWeak(chip("Titan"),
                        pl::lb(ptx::Scope::Cta, false),
                        Incantations::all(), 20000),
              0u);
}

TEST(Machine, CasSlRequiresStoreBufferOrAtomPass)
{
    EXPECT_EQ(countWeak(chip("GTX5"), pl::casSl(false),
                        Incantations::all(), 20000),
              0u);
    EXPECT_GT(countWeak(chip("Titan"), pl::casSl(false),
                        Incantations::all(), 60000),
              0u);
    EXPECT_GT(countWeak(chip("HD7970"), pl::casSl(false),
                        Incantations::all(), 60000),
              0u);
}

TEST(Machine, FencesFixTheProgrammingAssumptionTests)
{
    for (const char *c : {"TesC", "GTX6", "Titan", "HD7970"}) {
        EXPECT_EQ(countWeak(chip(c), pl::casSl(true),
                            Incantations::all(), 10000),
                  0u)
            << c;
        EXPECT_EQ(countWeak(chip(c), pl::dlbLb(true),
                            Incantations::all(), 10000),
                  0u)
            << c;
        EXPECT_EQ(countWeak(chip(c), pl::dlbMp(true),
                            Incantations::all(), 10000),
                  0u)
            << c;
    }
}

/**
 * Property sweep: per-location sequential consistency minus the
 * load-load hazard must hold in every simulated final state — a
 * single-location test can only ever end with the last coherence
 * value, and a same-thread read after a same-thread write must not
 * read an older value.
 */
class CoherenceInvariant
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
};

TEST_P(CoherenceInvariant, WriteReadSameThreadNeverStale)
{
    auto [chip_name, column] = GetParam();
    litmus::Test test =
        litmus::TestBuilder("wr-own")
            .global("x", 0)
            .thread("st.cg [x],1; ld.ca r1,[x]; ld.cg r2,[x]")
            .thread("st.cg [x],2")
            .interCta()
            .exists("0:r1=0 \\/ 0:r2=0")
            .build();
    MachineOptions opts;
    opts.inc = Incantations::fromColumn(column);
    Machine machine(chip(chip_name), test, opts);
    Rng rng(static_cast<uint64_t>(column) * 977);
    for (int i = 0; i < 3000; ++i) {
        litmus::FinalState st = machine.run(rng);
        // After writing 1, this thread may read 1 or 2, never 0.
        EXPECT_NE(st.reg(0, "r1"), 0);
        EXPECT_NE(st.reg(0, "r2"), 0);
        // Final value is one of the two writes.
        EXPECT_TRUE(st.loc("x") == 1 || st.loc("x") == 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChipsAndColumns, CoherenceInvariant,
    ::testing::Combine(::testing::Values("GTX5", "TesC", "Titan",
                                         "GTX7", "HD7970"),
                       ::testing::Values(1, 6, 9, 12, 16)));

/** Same-thread same-location stores must never be reordered. */
class CoherenceWW
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
};

TEST_P(CoherenceWW, ProgramOrderOfWritesRespected)
{
    auto [chip_name, column] = GetParam();
    litmus::Test test = litmus::TestBuilder("coww")
                            .global("x", 0)
                            .thread("st.cg [x],1; st.cg [x],2")
                            .thread("ld.cg r1,[x]")
                            .interCta()
                            .exists("x=1")
                            .build();
    MachineOptions opts;
    opts.inc = Incantations::fromColumn(column);
    Machine machine(chip(chip_name), test, opts);
    Rng rng(static_cast<uint64_t>(column) * 1237);
    for (int i = 0; i < 3000; ++i) {
        litmus::FinalState st = machine.run(rng);
        EXPECT_EQ(st.loc("x"), 2) << "same-address stores reordered";
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChipsAndColumns, CoherenceWW,
    ::testing::Combine(::testing::Values("GTX5", "TesC", "Titan",
                                         "GTX7", "HD6570", "HD7970"),
                       ::testing::Values(1, 6, 9, 12, 16)));

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

/**
 * Samples every choice from an Rng exactly as RngChoice would (one
 * draw per decision, identical draw order), records every answer,
 * and captures a machine snapshot at the snapAt-th schedule pick.
 * The recorded tail then drives resume() for the roundtrip check.
 */
struct RecordingChoice final : ChoiceProvider
{
    Rng rng;
    Machine *machine;
    Machine::Snapshot snap;
    int snapAt;
    int schedules = 0;
    bool captured = false;
    size_t capturedAt = 0; ///< answer index at the snapshot
    std::vector<uint64_t> answers;

    RecordingChoice(uint64_t seed, Machine *m, int snap_at)
        : rng(seed), machine(m), snapAt(snap_at)
    {
    }

    uint64_t
    pick(ChoiceKind, uint64_t n) override
    {
        uint64_t v = rng.below(n);
        answers.push_back(v);
        return v;
    }

    bool
    chance(ChoiceKind, double p, bool) override
    {
        bool v = rng.chance(p);
        answers.push_back(v);
        return v;
    }

    size_t
    pickActor(const ActorOption *, size_t n) override
    {
        if (schedules++ == snapAt) {
            machine->snapshot(snap);
            captured = true;
            capturedAt = answers.size();
        }
        uint64_t v = rng.below(n);
        answers.push_back(v);
        return v;
    }

    int
    delayBump() override
    {
        int v = 2 + static_cast<int>(rng.below(4));
        answers.push_back(static_cast<uint64_t>(v));
        return v;
    }
};

/** Replays a recorded answer tail verbatim. */
struct ReplayTail final : ChoiceProvider
{
    const std::vector<uint64_t> *answers;
    size_t next;

    ReplayTail(const std::vector<uint64_t> &a, size_t from)
        : answers(&a), next(from)
    {
    }

    uint64_t pick(ChoiceKind, uint64_t) override { return take(); }
    bool chance(ChoiceKind, double, bool) override { return take() != 0; }
    size_t pickActor(const ActorOption *, size_t) override
    {
        return static_cast<size_t>(take());
    }
    int delayBump() override { return static_cast<int>(take()); }

    uint64_t
    take()
    {
        EXPECT_LT(next, answers->size()) << "replay tail exhausted";
        return (*answers)[next++];
    }
};

TEST(Snapshot, ResumeReproducesTheInterruptedRun)
{
    // Snapshot at the k-th scheduling step mid-run, then resume from
    // it replaying the recorded choice tail: the final state must be
    // identical to the uninterrupted run's. Exercised across tests,
    // columns and snapshot depths.
    struct Case
    {
        litmus::Test test;
        int column;
    };
    const Case cases[] = {
        {pl::mp(), 16},
        {pl::sb(), 16},
        {pl::coRR(), 16},
        {pl::casSl(false), 12},
        {pl::mp(), 6},
    };
    for (const auto &c : cases) {
        for (int snap_at : {0, 2, 7, 19}) {
            MachineOptions opts;
            opts.inc = Incantations::fromColumn(c.column);
            Machine machine(chip("Titan"), c.test, opts);
            RecordingChoice recorder(0x5eed + snap_at, &machine,
                                     snap_at);
            litmus::FinalState full = machine.run(recorder);
            if (!recorder.captured)
                continue; // run ended before snap_at schedules
            ReplayTail tail(recorder.answers, recorder.capturedAt);
            litmus::FinalState resumed =
                machine.resume(recorder.snap, tail);
            EXPECT_EQ(full, resumed)
                << c.test.name << " column " << c.column
                << " snapAt " << snap_at;
        }
    }
}

/** Samples a run and records the machine's (encoding, digest) pair
 * at every scheduling point — where the explorer hashes — and once
 * more at the end, checking each incremental digest against a
 * from-scratch recomputation. Optionally snapshots at the
 * `snapAt`-th point. */
struct StateProbe final : ChoiceProvider
{
    Rng rng;
    const Machine *machine;
    int snapAt = -1;
    int schedules = 0;
    Machine::Snapshot snap;
    size_t snapState = 0; ///< index into states at the snapshot
    bool captured = false;
    std::vector<std::pair<std::string, Digest128>> states;

    StateProbe(uint64_t seed, const Machine *m) : rng(seed), machine(m)
    {
    }

    uint64_t pick(ChoiceKind, uint64_t n) override { return rng.below(n); }
    bool chance(ChoiceKind, double p, bool) override
    {
        return rng.chance(p);
    }

    size_t
    pickActor(const ActorOption *, size_t n) override
    {
        record();
        if (schedules++ == snapAt) {
            machine->snapshot(snap);
            snapState = states.size() - 1;
            captured = true;
        }
        return static_cast<size_t>(rng.below(n));
    }

    void
    record()
    {
        std::string enc;
        machine->encodeState(enc);
        Hash128 h;
        machine->hashState(h);
        Hash128 fresh;
        machine->hashStateFromScratch(fresh);
        EXPECT_EQ(h.digest(), fresh.digest())
            << "stale cached component digest";
        states.emplace_back(std::move(enc), h.digest());
    }
};

TEST(Snapshot, HashStateMatchesEncodedStateEquality)
{
    // hashState and encodeState cover the same canonical state:
    // equal encodings must give equal digests and distinct encodings
    // distinct digests, and the incremental digest must equal a
    // from-scratch one. Checked at every scheduling point of sampled
    // runs (where the explorer hashes), at run ends, and along runs
    // resumed from a snapshot — whose first state must also reproduce
    // the snapshotted state's encoding and digest exactly.
    struct Case
    {
        litmus::Test test;
        int column;
    };
    const Case cases[] = {
        {pl::mp(), 16},
        {pl::sb(), 16},
        {pl::coRR(), 16},
        {pl::casSl(false), 12},
        {pl::mp(), 6},
    };
    std::map<std::string, Digest128> byEncoding;
    std::map<std::pair<uint64_t, uint64_t>, std::string> byDigest;
    auto check = [&](const std::string &enc, const Digest128 &d) {
        auto [it, fresh] = byEncoding.emplace(enc, d);
        if (!fresh) {
            EXPECT_EQ(it->second, d) << "equal encodings, digests differ";
            return;
        }
        auto [dit, dfresh] = byDigest.emplace(std::pair{d.lo, d.hi}, enc);
        EXPECT_TRUE(dfresh || dit->second == enc)
            << "digest collision between distinct encodings";
    };
    size_t resumed = 0;
    for (const auto &c : cases) {
        MachineOptions opts;
        opts.inc = Incantations::fromColumn(c.column);
        Machine machine(chip("Titan"), c.test, opts);
        for (int i = 0; i < 150; ++i) {
            StateProbe probe(1000 + static_cast<uint64_t>(i), &machine);
            probe.snapAt = i % 9;
            machine.run(probe);
            probe.record();
            for (const auto &[enc, d] : probe.states)
                check(enc, d);
            if (!probe.captured)
                continue;
            StateProbe tail(0xbeef + static_cast<uint64_t>(i), &machine);
            machine.resume(probe.snap, tail);
            tail.record();
            ASSERT_FALSE(tail.states.empty());
            EXPECT_EQ(tail.states.front(), probe.states[probe.snapState])
                << c.test.name << " run " << i;
            for (const auto &[enc, d] : tail.states)
                check(enc, d);
            ++resumed;
        }
    }
    EXPECT_GT(byEncoding.size(), 100u);
    EXPECT_GT(resumed, 100u);
}

TEST(Snapshot, OutcomeDigestMatchesFinalStateEquality)
{
    litmus::Test mp = pl::mp();
    MachineOptions opts;
    opts.inc = Incantations::all();
    Machine machine(chip("Titan"), mp, opts);
    Rng rng(7);
    std::map<litmus::FinalState, Digest128> seen;
    for (int i = 0; i < 300; ++i) {
        RngChoice cp(rng);
        ASSERT_TRUE(machine.runLight(cp));
        litmus::FinalState st = machine.finalState();
        Digest128 d = machine.outcomeDigest();
        auto it = seen.find(st);
        if (it != seen.end()) {
            EXPECT_EQ(it->second, d);
        } else {
            for (const auto &[other, digest] : seen)
                EXPECT_FALSE(digest == d)
                    << "outcome-digest collision";
            seen.emplace(st, d);
        }
    }
    EXPECT_GT(seen.size(), 2u);
}

TEST(Snapshot, SetOptionsReparameterisesWithoutRecompiling)
{
    // One machine serving two incantation columns must match fresh
    // machines built per column, draw for draw.
    litmus::Test mp = pl::mp();
    MachineOptions col16;
    col16.inc = Incantations::fromColumn(16);
    MachineOptions col1;
    col1.inc = Incantations::fromColumn(1);

    Machine shared(chip("Titan"), mp, col16);
    Machine fresh16(chip("Titan"), mp, col16);
    Machine fresh1(chip("Titan"), mp, col1);

    Rng a(42), b(42);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(shared.run(a), fresh16.run(b));

    shared.setOptions(col1);
    Rng c(43), d(43);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(shared.run(c), fresh1.run(d));

    shared.setOptions(col16);
    Rng e(44), f(44);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(shared.run(e), fresh16.run(f));
}

} // namespace
} // namespace gpulitmus::sim
