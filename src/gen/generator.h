/**
 * @file
 * The diy-style litmus test generator (Sec. 4.1): non-SC executions
 * are encoded as cycles over relaxation edges; every cycle yields one
 * litmus test whose final condition asks for exactly that execution.
 *
 * The GPU extension over the CPU edge vocabulary: communication edges
 * carry a scope annotation (intra-CTA or inter-CTA), which determines
 * the generated scope tree, and fence edges carry a PTX scope
 * (membar.cta / .gl / .sys). Dependencies are manufactured with the
 * and-with-high-bit scheme of Fig. 13b so that -O3 cannot remove them
 * (Sec. 4.5).
 */

#ifndef GPULITMUS_GEN_GENERATOR_H
#define GPULITMUS_GEN_GENERATOR_H

#include <optional>
#include <string>
#include <vector>

#include "litmus/test.h"
#include "ptx/types.h"

namespace gpulitmus::gen {

/** Memory-access direction at an edge endpoint. */
enum class Dir { W, R };

/** Scope annotation for communication (cross-thread) edges. */
enum class ScopeAnn { IntraCta, InterCta };

/** Dependency kinds (Sec. 4.5). */
enum class DepKind { Addr, Data, Ctrl };

/** One candidate edge of a cycle. */
struct Edge
{
    enum class Type {
        Rfe,   ///< write -> read, different thread, same location
        Fre,   ///< read -> write, different thread, same location
        Wse,   ///< write -> write, different thread, same location
               ///  (external coherence edge, a.k.a. coe)
        Po,    ///< program order, same thread
        Dp,    ///< dependency, same thread, different location
        Fence, ///< fenced program order, same thread
    };

    Type type = Type::Po;

    // Endpoint directions; fixed for communication edges.
    Dir from = Dir::W;
    Dir to = Dir::R;

    /** For Po: same location (Pos) or different (Pod). Dp and Fence
     * edges always change location here. */
    bool sameLoc = false;

    ScopeAnn scope = ScopeAnn::InterCta; ///< for communication edges
    ptx::Scope fenceScope = ptx::Scope::Gl; ///< for Fence
    DepKind dep = DepKind::Addr;            ///< for Dp

    bool isComm() const
    {
        return type == Type::Rfe || type == Type::Fre ||
               type == Type::Wse;
    }

    /** diy-style name, e.g. "Rfe-cta", "PodWR", "DpdR",
     * "Fenc.gl-sWR". */
    std::string name() const;
};

/** The candidate-edge pool used for generation. */
std::vector<Edge> defaultPool(bool with_scopes = true,
                              bool with_deps = true);

struct GeneratorOptions
{
    int minEdges = 3;
    int maxEdges = 6;
    /** Stop after this many distinct tests. */
    size_t maxTests = 20000;
    /** Cap on threads per test. */
    int maxThreads = 4;
    /** Cap on locations per test. */
    int maxLocations = 4;
    /**
     * Steer fuzzing toward weak behaviour: score each candidate with
     * the static race analyzer (analysis/race.h) and order the
     * output by descending predicted-racy-pair count, so downstream
     * exploration spends its budget on programs that can actually
     * exhibit reorderings. Off by default: unsteered output order is
     * pinned by tests.
     */
    bool steer = false;
};

/** A generated test with its defining cycle. */
struct GeneratedTest
{
    std::string cycleName;
    litmus::Test test;
    /** Racy-pair count predicted by the static analyzer; -1 when
     * steering was off and the test is unscored. */
    int predictedRacyPairs = -1;
};

/**
 * Enumerate cycles over the pool and synthesise a litmus test for
 * each valid one, one test per cycle up to rotation.
 *
 * Precondition: the pool's entries have pairwise distinct
 * Edge::name()s (every defaultPool() variant does). Rotations are
 * then told apart by pool index alone, and one test per rotation
 * class is one test per cycle name.
 *
 * Output order: cycles of minEdges..maxEdges edges, depth first with
 * children in pool order, so cycles of one length come in
 * lexicographic order of their pool indices. Each class is
 * represented by the first rotation the search closes on a
 * communication edge, and the output stops after maxTests tests.
 * With opts.steer the same tests are then stably sorted by
 * descending predicted racy pairs. The result is empty when maxEdges
 * is below max(minEdges, 1).
 */
std::vector<GeneratedTest> generate(const std::vector<Edge> &pool,
                                    const GeneratorOptions &opts = {});

/**
 * Synthesise the litmus test for one explicit cycle. Returns nullopt
 * when the cycle is not well formed (direction or location mismatch,
 * no closing communication edge, thread/location caps exceeded, a
 * closing scope that contradicts the scope tree, unsatisfiable read
 * values or coherence order, nothing to ask for). Every check runs
 * before any text of the test is built.
 */
std::optional<litmus::Test>
synthesise(const std::vector<Edge> &cycle, const std::string &name,
           const GeneratorOptions &opts = {});

} // namespace gpulitmus::gen

#endif // GPULITMUS_GEN_GENERATOR_H
