#include "mc/explorer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/log.h"
#include "litmus/outcome.h"
#include "mc/shardmap.h"
#include "mc/statetable.h"
#include "mc/worksteal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpulitmus::mc {

namespace {

/**
 * Outcome-key weights, indexed by interned outcome id. The search
 * folds reachability counts up the spine on every cut and pop;
 * keeping them as flat integer vectors (the interner owns the one
 * copy of each outcome string) makes that folding allocation-free
 * arithmetic instead of string-keyed map merges. Ids are dense and
 * few (a litmus test has a handful of distinct outcomes), so the
 * vectors stay tiny.
 */
using Weights = std::vector<uint64_t>;

void
foldWeights(Weights &dst, WeightSpan src)
{
    if (src.size == 0)
        return;
    if (!src.ids) {
        if (dst.size() < src.size)
            dst.resize(src.size, 0);
        for (size_t i = 0; i < src.size; ++i)
            dst[i] += src.counts[i];
        return;
    }
    if (dst.size() <= src.ids[src.size - 1])
        dst.resize(src.ids[src.size - 1] + 1, 0);
    for (size_t i = 0; i < src.size; ++i)
        dst[src.ids[i]] += src.counts[i];
}

WeightSpan
spanOf(const Weights &w)
{
    return {w.data(), nullptr, w.size()};
}

void
foldWeights(Weights &dst, const Weights &src)
{
    foldWeights(dst, spanOf(src));
}

void
bumpWeight(Weights &dst, uint32_t id)
{
    if (dst.size() <= id)
        dst.resize(id + 1, 0);
    ++dst[id];
}

/** Outcome-string interner: one stored string per distinct outcome,
 * dense ids for the hot-path accounting. */
struct KeyInterner
{
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<const std::string *> names; ///< id -> stored key

    uint32_t
    intern(std::string &&key)
    {
        auto [it, fresh] = ids.emplace(
            std::move(key), static_cast<uint32_t>(names.size()));
        if (fresh)
            names.push_back(&it->first);
        return it->second;
    }
};

/** One materialised node of the choice tree (a position in the
 * current DFS trace). Node slots are pooled: the trace vector never
 * shrinks, popped slots are reset and reused, so the per-replay push/
 * pop churn allocates nothing once the containers are warm. */
struct Node
{
    sim::ChoiceKind kind = sim::ChoiceKind::Schedule;
    uint32_t arity = 0;
    uint32_t chosen = 0;
    /** Alternatives not yet explored, in exploration order. */
    std::vector<uint32_t> pending;

    bool isSchedule = false;
    /** State-cache key; valid when hasKey (caching on). `key` is the
     * (state, sleep) digest — or, in debug mode, `stringKey` is the
     * full encoding and `key` is unused. */
    bool hasKey = false;
    Digest128 key;
    std::string stringKey;
    /** Machine checkpoint at this schedule point; valid when
     * hasSnap (checkpointing on). */
    bool hasSnap = false;
    sim::Machine::Snapshot snap;
    /** Sleeping actor ids at node entry (indexed by actor id). */
    std::vector<uint8_t> sleepIn;
    /** Actor table snapshot (schedule nodes only). */
    std::vector<sim::ActorOption> actors;
    /** Actor ids of alternatives already fully explored here. */
    std::vector<int> doneIds;

    /** Reachable finals accumulated across this node's subtree. */
    Weights finals;
    /** Shallowest trace depth a grey cut in this subtree escaped to
     * (SIZE_MAX: none) — the Tarjan-style completeness watermark. */
    size_t taint = SIZE_MAX;

    void
    reset(sim::ChoiceKind k, uint32_t n)
    {
        kind = k;
        arity = n;
        chosen = 0;
        pending.clear();
        isSchedule = false;
        hasKey = false;
        stringKey.clear();
        hasSnap = false;
        sleepIn.clear();
        actors.clear();
        doneIds.clear();
        finals.clear();
        taint = SIZE_MAX;
    }
};

/** A state-memo record in transport and debug-key form. The digest-
 * keyed memo packs the same fields into StateTable slots. */
struct VisitEntry
{
    bool black = false; ///< subtree fully explored; finals memoised
    size_t greyDepth = 0;
    /** Fetch-counter digest at the visit. The state encoding excludes
     * the counters (they only feed the runaway-loop guard), so a
     * revisit whose digest differs is equal in behaviour *except* for
     * its distance to that guard: the cut still terminates the
     * search, but the result demotes from exact to bounded. */
    uint64_t executedSig = 0;
    Weights finals;
};

// ---------------------------------------------------------------------
// Parallel exploration: optimistic exploration, deterministic commit.
//
// shards > 1 splits the frontier at the shallowest spine node with
// unexplored alternatives into 1 + |pending| independent subtrees:
// subtree 0 continues the in-flight traversal (it inherits the deep
// spine), subtree k explores the k-th remaining alternative with the
// sleep-set doneIds sequence the sequential search would have had.
// Workers pull subtrees from Chase-Lev deques and explore each one
// *optimistically*: private state cache, read-only spine-grey seed
// table, and read-only lookups into the committed ShardMap, recording
// every digest that missed. The driving thread then *commits* results
// strictly in subtree-id order:
//
//  - If none of a subtree's recorded misses is present in the
//    committed map (and it did not abort), its cache-hit pattern is
//    exactly the sequential one — commits only ever add states a
//    sequential search would already have closed — so its result and
//    statistics are the sequential ones, bit for bit. Commit: publish
//    its black states, fold finals/taint/stats in order.
//  - Otherwise the subtree is REDONE on the driving thread against
//    the now-frozen committed prefix, which *is* the sequential
//    search for that subtree (mc_shard_collisions_total counts
//    these). Measured corpus-wide, cross-subtree hits are rare
//    (~0.1% of lookups), so redos are the exception.
//
// Budgets are one shared pool (maxReplays × shards drawn by a single
// atomic), and a redo runs under the exact remaining allowance, so a
// bounded shards=N result equals a sequential run with the same total
// budget. The merged traversal is therefore invariant in the shard
// count, the worker count and the thread interleaving — the
// differential battery in tests/test_mc_diff.cc pins this.
// ---------------------------------------------------------------------

/** Outcome-key interner + condition flags, shared by every walker so
 * ids are global and subtree weight vectors fold without remapping.
 * Locked only on a fresh outcome digest (cold path). */
struct SharedKeys
{
    std::mutex mu;
    KeyInterner interner;
    std::vector<uint8_t> satFlags; ///< by outcome id
};

/** Read-only record of a grey spine state ([0..split] prefix): any
 * subtree reaching one is in a cycle to a live ancestor. */
struct SeedEntry
{
    size_t greyDepth = 0;
    uint64_t sig = 0;
};

/** Everything the parallel phase shares across threads. Workers read
 * seeds and the committed maps and draw from the replay pool; only
 * the commit (driving) thread writes the committed maps. */
struct SharedCtx
{
    DigestShardMap committed;
    StringShardMap committedStr; ///< debug-key mode twin
    std::unordered_map<Digest128, SeedEntry, Digest128::Hasher> seeds;
    std::unordered_map<std::string, SeedEntry> seedsStr;
    size_t seedCount = 0;
    /** Shared replay pool: one fetch_add per admitted replay,
     * capReplays = maxReplays × shards. */
    std::atomic<uint64_t> pool{0};
    uint64_t capReplays = 0;
    /** Bounded verdict reached (or teardown): workers abandon their
     * subtrees; their results are discarded. */
    std::atomic<bool> stop{false};
    bool debugKeys = false;

    size_t
    committedCount() const
    {
        return debugKeys ? committedStr.size() : committed.size();
    }
};

/** Deterministic stats merge: subtree stats fold into the driver's in
 * subtree-id order — never completion order — so the merged counters
 * (resumes, replayedChoices, peakDepth, all of them) are the
 * sequential traversal's, bit for bit. */
void
mergeStats(ExploreStats &dst, const ExploreStats &src)
{
    dst.replays += src.replays;
    dst.choicePoints += src.choicePoints;
    dst.stateCuts += src.stateCuts;
    dst.sleepSkips += src.sleepSkips;
    dst.distinctStates += src.distinctStates;
    dst.peakDepth = std::max(dst.peakDepth, src.peakDepth);
    dst.resumes += src.resumes;
    dst.replayedChoices += src.replayedChoices;
}

/** One subtree of the split frontier: inputs built by the driver
 * before workers start, outputs written by exactly one worker and
 * read by the driver after `done` (release/acquire pair). */
struct SubtreeTask
{
    // ---- inputs ----
    /** The split node, configured for this subtree (chosen = the
     * alternative, pending emptied, doneIds = the sequential
     * prefix). */
    Node clone;
    /** Subtree 0 only: the in-flight spine below the split node. */
    std::vector<Node> deepSpine;
    /** Subtree 0 only: grey entries for the deep spine, pre-seeded
     * into the worker's private cache. */
    std::vector<std::pair<Digest128, VisitEntry>> seedGreys;
    std::vector<std::pair<std::string, VisitEntry>> seedGreysStr;

    // ---- outputs ----
    std::atomic<bool> done{false};
    bool aborted = false;
    ExploreStats stats;
    bool loopDedup = false;
    bool truncatedLeaf = false;
    Weights finals;
    size_t taint = SIZE_MAX;
    std::vector<Digest128> missedKeys;
    std::vector<std::string> missedStrs;
    std::vector<std::pair<Digest128, DigestShardMap::Entry>> blacks;
    std::vector<std::pair<std::string, StringShardMap::Entry>>
        blacksStr;
    size_t peakPrivate = 0;
};

// ---------------------------------------------------------------------
// Walker: one DFS traversal context doubling as the machine's choice
// provider. The sequential search is one walker; the parallel phase
// runs one per worker thread (own machine, own private cache) plus
// the driver's, all sharing SharedKeys — and, when parallel, a
// SharedCtx.
// ---------------------------------------------------------------------

struct Walker final : sim::ChoiceProvider
{
    const ExploreOptions *opts;
    const litmus::Test *test;
    sim::Machine machine;
    litmus::Histogram keyer; ///< outcome-key renderer only
    SharedKeys *keys;        ///< global outcome ids + sat flags
    SharedCtx *shared = nullptr; ///< null: pure sequential

    /** Pooled node slots; the live DFS spine is trace[0..traceLen). */
    std::vector<Node> trace;
    size_t traceLen = 0;
    Weights rootFinals;
    /** Leaf memo: final-state digest -> interned outcome id. Repeat
     * outcomes (the overwhelming majority of leaves) skip the
     * final-state materialisation, key rendering and condition
     * evaluation entirely. Unused in debug mode, which collects
     * every leaf the PR-3 way. */
    std::unordered_map<Digest128, uint32_t, Digest128::Hasher>
        outcomeIds;
    /** The state memo. Digest-keyed flat table on the fast path;
     * string-keyed (full encodings, kept for cross-checking) in
     * debug mode. Only the one matching opts->debugStateKeys is ever
     * populated. */
    StateTable visited;
    std::unordered_map<std::string, VisitEntry> visitedStr;
    ExploreStats stats;

    /** Pending cut, set by pickActor when it aborts a replay whose
     * continuation is memoised (exception-free: the machine returns
     * out of the run on the kAbortRun sentinel). `cutMemo` views the
     * visited entry's finals — stable until the next memo mutation,
     * consumed immediately after the run returns. */
    bool cutPending = false;
    WeightSpan cutMemo;
    size_t cutTaint = SIZE_MAX;

    size_t depth = 0; ///< next choice index within the current replay
    size_t nIds = 0;  ///< actor-id space: threads + SM drain actors
    std::vector<uint8_t> curSleep;
    std::string scratch;            ///< debug-mode string encoding
    std::vector<uint32_t> candsScratch;
    std::vector<uint8_t> sleepScratch;
    /** A state cut merged states at different fetch counts (a spin
     * loop): "exact" demotes to "exact for terminating executions"
     * (ExploreResult::fairComplete). */
    bool loopDedup = false;
    /** A replay actually ran into the runaway guard and recorded a
     * truncated final state: even the fair-schedule claim is gone. */
    bool truncatedLeaf = false;

    // ---- traversal-mode parameterisation ----------------------------
    /** Replay/state caps for this walker. Sequential: the per-shard
     * option values. Driver (parallel): the shared totals. Redo: the
     * exact remaining allowance. Workers ignore capReplays and draw
     * the shared pool instead. */
    uint64_t capReplays = 0;
    uint64_t capStates = 0;
    /** Worker mode: admit replays via the shared pool, honour stop,
     * record cache misses for commit-time conflict detection. */
    bool isWorker = false;
    /** Driver-in-parallel mode: also tick the shared pool so workers
     * see phase-1 consumption. */
    bool drawPool = false;
    /** Budget/stop tripped (the walker's subtree is incomplete). */
    bool aborted = false;
    /** Backtrack floor: index of the subtree root, which is never
     * popped — its accumulated finals/taint are the subtree result.
     * SIZE_MAX: none (sequential; drain at the real root). */
    size_t floorKeep = SIZE_MAX;
    /** Digests that missed every cache level, in first-miss order. */
    bool recordMisses = false;
    std::vector<Digest128> missedKeys;
    std::vector<std::string> missedStrs;
    /** High-water mark of the private cache, for the commit-time
     * state-budget check. */
    size_t peakPrivate = 0;
    /** Copy-out scratch for committed-map hits (the map may rehash
     * under the commit thread while we hold the result). */
    DigestShardMap::Entry committedScratch;
    StringShardMap::Entry committedScratchStr;

    Walker(const sim::ChipProfile &chip, const litmus::Test &t,
           const ExploreOptions *o, SharedKeys *k, SharedCtx *s)
        : opts(o), test(&t), machine(chip, t, o->machine), keyer(t),
          keys(k), shared(s)
    {
        nIds = static_cast<size_t>(t.program.numThreads()) +
               static_cast<size_t>(chip.numSMs);
        curSleep.assign(nIds, 0);
        capReplays = o->maxReplays;
        capStates = o->maxStates;
    }

    Node &
    pushNode(sim::ChoiceKind kind, uint32_t arity)
    {
        if (traceLen == trace.size())
            trace.emplace_back();
        Node &node = trace[traceLen++];
        node.reset(kind, arity);
        stats.peakDepth = std::max(stats.peakDepth, traceLen);
        return node;
    }

    // ---- ChoiceProvider ---------------------------------------------

    /** The actor table only matters when the upcoming schedule point
     * materialises a fresh node; replayed prefixes use their stored
     * snapshot, so skip the build. */
    bool wantsActors() const override { return depth >= traceLen; }
    int delayBump() override { return 0; }

    uint64_t
    pick(sim::ChoiceKind kind, uint64_t n) override
    {
        // Timing-only / symmetric kinds are pinned: exhaustive
        // scheduling subsumes start skew, and CTA->SM placements are
        // interchangeable (homogeneous SMs, always distinct).
        if (kind == sim::ChoiceKind::Placement ||
            kind == sim::ChoiceKind::StartSkew)
            return 0;
        if (n <= 1)
            return 0;
        return takeSimple(kind, static_cast<uint32_t>(n));
    }

    bool
    chance(sim::ChoiceKind kind, double p, bool relevant) override
    {
        // Irrelevant choices cannot affect reachability; drain
        // laziness is "the scheduler did not pick the drain actor",
        // which the schedule choice already enumerates.
        if (!relevant || kind == sim::ChoiceKind::DrainLazy)
            return false;
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return takeSimple(kind, 2) != 0;
    }

    uint32_t
    takeSimple(sim::ChoiceKind kind, uint32_t arity)
    {
        size_t d = depth++;
        if (d < traceLen) {
            const Node &node = trace[d];
            if (node.kind != kind || node.isSchedule)
                panic("mc replay diverged at depth %zu: expected %s,"
                      " machine asked %s",
                      d, sim::toString(node.kind),
                      sim::toString(kind));
            ++stats.replayedChoices;
            return node.chosen;
        }
        ++stats.choicePoints;
        Node &node = pushNode(kind, arity);
        node.pending.reserve(arity - 1);
        for (uint32_t v = 1; v < arity; ++v)
            node.pending.push_back(v);
        return 0;
    }

    /** Abandon the current replay: record the cut for explore() and
     * hand the machine the abort sentinel. */
    size_t
    cutRun(WeightSpan memo, size_t taint_depth)
    {
        cutPending = true;
        cutMemo = memo;
        cutTaint = taint_depth;
        return sim::ChoiceProvider::kAbortRun;
    }

    size_t
    pickActor(const sim::ActorOption *actors, size_t n) override
    {
        size_t d = depth++;
        if (d < traceLen) {
            Node &node = trace[d];
            if (!node.isSchedule)
                panic("mc replay diverged at depth %zu: stored %s,"
                      " machine asked schedule",
                      d, sim::toString(node.kind));
            ++stats.replayedChoices;
            updateSleepAfter(node);
            return node.chosen;
        }
        ++stats.choicePoints;

        Digest128 key{};
        bool has_key = false;
        if (opts->stateCache) {
            // Sleep sets change which subtrees get explored, so
            // cache hits are only sound between points with the same
            // sleep discipline: the key covers the (state, sleep)
            // pair. Fast path: stream the state into a 128-bit
            // digest, no string materialised. Debug path: the PR-3
            // string key, byte for byte.
            uint64_t sig = machine.executedSignature();
            bool hit = false, hitBlack = false;
            size_t hitDepth = 0;
            uint64_t hitSig = 0;
            WeightSpan hitFinals;
            if (opts->debugStateKeys) {
                scratch.clear();
                machine.encodeState(scratch);
                if (opts->sleepSets)
                    scratch.append(curSleep.begin(), curSleep.end());
                auto it = visitedStr.find(scratch);
                if (it != visitedStr.end()) {
                    const VisitEntry &e = it->second;
                    hit = true;
                    hitBlack = e.black;
                    hitDepth = e.greyDepth;
                    hitSig = e.executedSig;
                    hitFinals = spanOf(e.finals);
                }
            } else {
                Hash128 h;
                machine.hashState(h);
                if (opts->sleepSets)
                    hashSleep(h);
                key = h.digest();
                if (const StateTable::Slot *e = visited.find(key)) {
                    hit = true;
                    hitBlack = e->black();
                    hitDepth = e->greyDepth();
                    hitSig = e->executedSig;
                    if (hitBlack)
                        hitFinals = visited.finals(*e);
                }
            }
            if (hit) {
                ++stats.stateCuts;
                // Equal state, different fetch counters (a loop):
                // the continuations differ only in the runaway
                // guard's distance, so cut — the search terminates —
                // but the exactness claim is gone.
                if (hitSig != sig)
                    loopDedup = true;
                if (hitBlack)
                    return cutRun(hitFinals, SIZE_MAX);
                return cutRun({}, hitDepth);
            }
            if (shared) {
                // Level 2: grey spine seeds — a cycle to an ancestor
                // that is live in every traversal of this subtree.
                const SeedEntry *seed = nullptr;
                if (opts->debugStateKeys) {
                    auto sit = shared->seedsStr.find(scratch);
                    if (sit != shared->seedsStr.end())
                        seed = &sit->second;
                } else {
                    auto sit = shared->seeds.find(key);
                    if (sit != shared->seeds.end())
                        seed = &sit->second;
                }
                if (seed) {
                    ++stats.stateCuts;
                    if (seed->sig != sig)
                        loopDedup = true;
                    return cutRun({}, seed->greyDepth);
                }
                // Level 3: the committed map — black states from
                // already-committed subtrees, i.e. states the
                // sequential search would have closed before reaching
                // this one. The entry is copied out under the shard
                // lock (the commit thread may rehash at any moment).
                bool chit;
                if (opts->debugStateKeys)
                    chit = shared->committedStr.lookup(
                        scratch, committedScratchStr);
                else
                    chit = shared->committed.lookup(key,
                                                    committedScratch);
                if (chit) {
                    uint64_t csig = opts->debugStateKeys
                                        ? committedScratchStr.executedSig
                                        : committedScratch.executedSig;
                    const Weights &cfinals =
                        opts->debugStateKeys ? committedScratchStr.finals
                                             : committedScratch.finals;
                    ++stats.stateCuts;
                    if (csig != sig)
                        loopDedup = true;
                    return cutRun(spanOf(cfinals), SIZE_MAX);
                }
                // A miss that later turns out to be committed means
                // this subtree's optimistic view diverged from the
                // sequential one: the commit protocol will redo it.
                if (recordMisses) {
                    if (opts->debugStateKeys)
                        missedStrs.push_back(scratch);
                    else
                        missedKeys.push_back(key);
                }
            }
            if (opts->debugStateKeys)
                visitedStr.emplace(scratch,
                                   VisitEntry{false, d, sig, {}});
            else
                visited.insertGrey(key, d, sig);
            peakPrivate = std::max(peakPrivate, memoSize());
            has_key = true;
        }

        candsScratch.clear();
        for (size_t i = 0; i < n; ++i) {
            if (!actors[i].enabled)
                continue;
            if (opts->sleepSets &&
                curSleep[static_cast<size_t>(actors[i].id)]) {
                ++stats.sleepSkips;
                continue;
            }
            candsScratch.push_back(static_cast<uint32_t>(i));
        }
        if (candsScratch.empty()) {
            // Every enabled actor is asleep: all continuations from
            // here are covered by the sibling subtrees that put them
            // to sleep.
            if (has_key) {
                if (opts->debugStateKeys)
                    visitedStr.erase(scratch);
                else
                    visited.erase(key);
            }
            return cutRun({}, SIZE_MAX);
        }

        Node &node = pushNode(sim::ChoiceKind::Schedule,
                              static_cast<uint32_t>(n));
        node.isSchedule = true;
        node.actors.assign(actors, actors + n);
        node.sleepIn.assign(curSleep.begin(), curSleep.end());
        node.hasKey = has_key;
        node.key = key;
        if (has_key && opts->debugStateKeys)
            node.stringKey = scratch;
        node.chosen = candsScratch[0];
        node.pending.assign(candsScratch.begin() + 1,
                            candsScratch.end());
        if (opts->checkpoints && !node.pending.empty()) {
            // The machine is still at the top of this step (the pick
            // mutates nothing before returning), so the snapshot
            // resumes exactly here. Only branchy nodes checkpoint —
            // a singleton node can never be a divergence point, and
            // resuming from the nearest branchy ancestor replays the
            // few singleton steps in between. Slot pooling recycles
            // the snapshot's storage with the node.
            machine.snapshot(node.snap);
            node.hasSnap = true;
        }
        updateSleepAfter(node);
        return node.chosen;
    }

    // ---- memo plumbing ----------------------------------------------

    size_t
    memoSize() const
    {
        return opts->debugStateKeys ? visitedStr.size() : visited.size();
    }

    Weights
    copyFinals(const StateTable::Slot &s) const
    {
        Weights w;
        foldWeights(w, visited.finals(s));
        return w;
    }

    /** Fold the sleep set into a state digest, eight actor flags per
     * absorbed word. The flag count is fixed per exploration, so the
     * packing is injective. */
    void
    hashSleep(Hash128 &h) const
    {
        const size_t n = curSleep.size();
        for (size_t i = 0; i < n; i += 8) {
            uint64_t word = 0;
            std::memcpy(&word, curSleep.data() + i,
                        std::min<size_t>(8, n - i));
            h.put64(word);
        }
    }

    // ---- sleep-set plumbing -----------------------------------------

    const sim::ActorOption *
    findActor(const Node &node, int id) const
    {
        for (const auto &a : node.actors) {
            if (a.id == id)
                return &a;
        }
        return nullptr;
    }

    /** Set curSleep to the child sleep set of `node` descended via
     * node.chosen: (sleepIn ∪ explored siblings) minus everything
     * dependent on the chosen slot. */
    void
    updateSleepAfter(const Node &node)
    {
        if (!opts->sleepSets) {
            return;
        }
        const sim::ActorOption &a = node.actors[node.chosen];
        if (node.doneIds.empty()) {
            // Fast path: nobody newly asleep. The child set is the
            // entry set minus dependants of the chosen slot; when the
            // entry set is empty (the common case off the first
            // branch), the child set is too.
            bool any = false;
            for (uint8_t s : node.sleepIn)
                any = any || s;
            if (!any) {
                std::fill(curSleep.begin(), curSleep.end(), 0);
                return;
            }
        }
        sleepScratch.assign(node.sleepIn.begin(), node.sleepIn.end());
        sleepScratch.resize(nIds, 0);
        for (int id : node.doneIds)
            sleepScratch[static_cast<size_t>(id)] = 1;
        sleepScratch[static_cast<size_t>(a.id)] = 0;
        for (size_t id = 0; id < nIds; ++id) {
            if (!sleepScratch[id])
                continue;
            const sim::ActorOption *u =
                findActor(node, static_cast<int>(id));
            if (!u || !sim::independentActors(*u, a))
                sleepScratch[id] = 0;
        }
        std::swap(curSleep, sleepScratch);
    }

    // ---- subtree accounting -----------------------------------------

    void
    contribute(WeightSpan w)
    {
        foldWeights(traceLen == 0 ? rootFinals
                                  : trace[traceLen - 1].finals,
                    w);
    }

    void
    contributeOne(uint32_t id)
    {
        bumpWeight(traceLen == 0 ? rootFinals
                                 : trace[traceLen - 1].finals,
                   id);
    }

    void
    taintDeepest(size_t greyDepth)
    {
        if (traceLen > 0)
            trace[traceLen - 1].taint =
                std::min(trace[traceLen - 1].taint, greyDepth);
    }

    /** Pop the deepest node, folding its finals (and, when it cannot
     * be declared complete, its taint) into its parent. `blacken`
     * is false during a budget abort: nothing gets memoised then. */
    void
    popTop(bool blacken)
    {
        Node &top = trace[traceLen - 1];
        --traceLen;
        size_t my_depth = traceLen;

        if (top.isSchedule && top.hasKey) {
            bool closed = blacken && top.taint >= my_depth;
            if (closed) {
                if (opts->debugStateKeys) {
                    auto it = visitedStr.find(top.stringKey);
                    if (it != visitedStr.end()) {
                        it->second.black = true;
                        it->second.finals = top.finals;
                    }
                } else if (StateTable::Slot *e =
                               visited.find(top.key)) {
                    visited.blacken(*e, top.finals);
                }
                ++stats.distinctStates;
            } else {
                // Part of a cycle to a live ancestor (or aborted):
                // its finals are incomplete, so forget the state and
                // let a future visit re-explore it.
                if (opts->debugStateKeys)
                    visitedStr.erase(top.stringKey);
                else
                    visited.erase(top.key);
            }
        }

        if (traceLen == 0) {
            foldWeights(rootFinals, top.finals);
        } else {
            Node &p = trace[traceLen - 1];
            foldWeights(p.finals, top.finals);
            if (top.taint < my_depth)
                p.taint = std::min(p.taint, top.taint);
        }
    }

    /** Advance to the next unexplored alternative; true = drained. */
    bool
    backtrack()
    {
        while (traceLen > 0) {
            Node &top = trace[traceLen - 1];
            if (!top.pending.empty()) {
                if (top.isSchedule)
                    top.doneIds.push_back(
                        top.actors[top.chosen].id);
                top.chosen = top.pending.front();
                top.pending.erase(top.pending.begin());
                return false;
            }
            // Subtree mode: the split node is never popped — its
            // accumulated finals/taint are the subtree's result,
            // folded into the driver's spine at commit time.
            if (traceLen - 1 == floorKeep)
                return true;
            popTop(true);
        }
        return true;
    }

    // ---- the search -------------------------------------------------

    /** Interned outcome id of the machine's just-finished leaf,
     * memoised by final-state digest on the fast path. Debug mode
     * materialises every leaf (the PR-3 behaviour), so the two modes
     * cross-check the digest memo as well as the state keys. */
    uint32_t
    leafOutcomeId()
    {
        auto record = [&]() {
            litmus::FinalState st = machine.finalState();
            std::string k = keyer.keyFor(st);
            bool sat = test->condition.eval(st);
            // Outcome ids are global across walkers so weight vectors
            // fold without remapping; the lock is cold (first sight
            // of each outcome digest only). Id *numbering* is
            // race-order dependent and deliberately so: results are
            // re-keyed by string at assembly, so numbering never
            // shows.
            std::lock_guard<std::mutex> lock(keys->mu);
            uint32_t id = keys->interner.intern(std::move(k));
            if (sat) {
                if (keys->satFlags.size() <= id)
                    keys->satFlags.resize(id + 1, 0);
                keys->satFlags[id] = 1;
            }
            return id;
        };
        if (opts->debugStateKeys)
            return record();
        auto [it, fresh] =
            outcomeIds.try_emplace(machine.outcomeDigest(), 0);
        if (fresh)
            it->second = record();
        return it->second;
    }

    // ---- the search loop --------------------------------------------

    /** States charged against the budget right now: the private memo
     * plus (parallel) everything committed or seeded — exactly the
     * single-map size the sequential search would carry at the same
     * point. */
    size_t
    statesNow() const
    {
        size_t states = memoSize();
        if (shared)
            states += shared->committedCount() + shared->seedCount;
        return states;
    }

    /** Budget/stop admission for the next replay. Workers draw the
     * shared atomic pool (optimistic: over-draw by later-discarded
     * subtrees wastes speculative work, never budget — the commit
     * side accounts exactly). Every other mode checks its private
     * caps, which the redo path sets to the exact remaining
     * allowance. */
    bool
    admitReplay()
    {
        if (isWorker) {
            if (shared->stop.load(std::memory_order_acquire))
                return false;
            if (opts->stateCache && statesNow() >= capStates)
                return false;
            return shared->pool.fetch_add(
                       1, std::memory_order_relaxed) <
                   shared->capReplays;
        }
        if (stats.replays >= capReplays)
            return false;
        if (opts->stateCache && statesNow() >= capStates)
            return false;
        return true;
    }

    /**
     * The DFS loop: admit, replay (resuming from the deepest
     * checkpoint on the spine), contribute the leaf or cut,
     * backtrack. Returns true when the (sub)tree is drained; false
     * when it stopped early — after one replay+backtrack round in
     * `oneStep` mode (the driver's pre-split phase), or on a failed
     * admission, which sets `aborted`.
     */
    bool
    runLoop(bool oneStep)
    {
        // Telemetry observes the search; it never steers it. The
        // per-replay counter and the heartbeat callback fire on the
        // replay cadence only — traversal, pruning and results are
        // bit-identical with them on or off (tests pin this).
        // Workers tick the replay counter too (it counts raw work,
        // including speculation the commit later discards) but never
        // heartbeat: the callback is a driver-thread liveness
        // channel.
        const bool obs_on = obs::enabled();
        obs::Counter &replay_counter =
            obs::counter("mc_replays_total");
        for (;;) {
            if (!admitReplay()) {
                aborted = true;
                return false;
            }
            ++stats.replays;
            if (obs_on)
                replay_counter.add();
            if (!isWorker && opts->heartbeat &&
                opts->heartbeatEvery &&
                stats.replays % opts->heartbeatEvery == 0)
                opts->heartbeat(stats);
            std::fill(curSleep.begin(), curSleep.end(), 0);
            cutPending = false;
            // Resume from the deepest checkpoint on the spine: the
            // replayed prefix shrinks from the whole trace to the
            // slice after the last schedule node. The choices
            // consumed — and therefore the traversal — are identical
            // to a root replay.
            size_t resume_at = SIZE_MAX;
            if (opts->checkpoints) {
                for (size_t i = traceLen; i-- > 0;) {
                    if (trace[i].hasSnap) {
                        resume_at = i;
                        break;
                    }
                }
            }
            bool finished;
            if (resume_at != SIZE_MAX) {
                ++stats.resumes;
                depth = resume_at;
                finished =
                    machine.resumeLight(trace[resume_at].snap, *this);
            } else {
                depth = 0;
                finished = machine.runLight(*this);
            }
            if (!finished) {
                // The replay was abandoned at a memoised state
                // (cutPending is set; the machine has no final
                // state).
                contribute(cutMemo);
                if (cutTaint != SIZE_MAX)
                    taintDeepest(cutTaint);
            } else {
                contributeOne(leafOutcomeId());
                // A guard-truncated execution is a real (sampler-
                // reachable) outcome and is recorded, but the tree
                // beyond the guard was not enumerated: bounded.
                if (machine.lastRunTruncated())
                    truncatedLeaf = true;
            }
            if (backtrack())
                return true;
            if (oneStep)
                return false;
        }
    }

    // ---- subtree plumbing (parallel phase) --------------------------

    /** Clear per-subtree traversal state; keeps the machine, the
     * outcome-digest memo (ids are global) and warm container
     * capacity. */
    void
    resetTraversal()
    {
        traceLen = 0;
        rootFinals.clear();
        visited.clear();
        visitedStr.clear();
        stats = ExploreStats{};
        cutPending = false;
        cutMemo = {};
        cutTaint = SIZE_MAX;
        depth = 0;
        loopDedup = false;
        truncatedLeaf = false;
        aborted = false;
        floorKeep = SIZE_MAX;
        missedKeys.clear();
        missedStrs.clear();
        peakPrivate = 0;
    }

    /** Install a subtree: the shared spine prefix [0..b), the task's
     * configured split-node clone at b, and (subtree 0) the in-flight
     * deep spine. Pre-seeds the private memo with the deep spine's
     * grey entries so deep pops blacken exactly as the sequential
     * search would. The prefix nodes travel with their snapshots, so
     * the first replay resumes from the same checkpoint — and
     * consumes the same stored choices — as the sequential
     * traversal. */
    void
    loadTask(const std::vector<Node> &prefix, size_t b,
             const SubtreeTask &t)
    {
        resetTraversal();
        size_t need = b + 1 + t.deepSpine.size();
        if (trace.size() < need)
            trace.resize(need);
        for (size_t i = 0; i < b; ++i)
            trace[i] = prefix[i];
        trace[b] = t.clone;
        for (size_t i = 0; i < t.deepSpine.size(); ++i)
            trace[b + 1 + i] = t.deepSpine[i];
        traceLen = need;
        floorKeep = b;
        for (const auto &[k, v] : t.seedGreys)
            visited.insertGrey(k, v.greyDepth, v.executedSig);
        for (const auto &[k, v] : t.seedGreysStr)
            visitedStr.emplace(k, v);
        peakPrivate = memoSize();
    }

    /** Harvest the private memo's black states into the task record
     * for commit-time publication. */
    void
    harvestBlacks(SubtreeTask &t)
    {
        if (opts->debugStateKeys) {
            for (auto &[k, v] : visitedStr) {
                if (v.black)
                    t.blacksStr.emplace_back(
                        k, StringShardMap::Entry{
                               v.executedSig, std::move(v.finals)});
            }
        } else {
            visited.forEach([&](const StateTable::Slot &s) {
                if (s.black())
                    t.blacks.emplace_back(
                        StateTable::keyOf(s),
                        DigestShardMap::Entry{s.executedSig,
                                              copyFinals(s)});
            });
        }
    }
};

} // namespace

// ---------------------------------------------------------------------
// Explorer::Impl — the driver
// ---------------------------------------------------------------------

struct Explorer::Impl
{
    ExploreOptions opts;
    sim::ChipProfile chip;
    const litmus::Test *test;
    SharedKeys keys;
    std::unique_ptr<SharedCtx> shared; ///< null when shards == 1
    /** The driving traversal: the whole search when sequential, the
     * pre-split phase + commit fold target when parallel. */
    Walker w0;
    /** Effective budget totals: the per-shard option caps × shards,
     * saturating. */
    uint64_t effCapReplays = 0;
    uint64_t effCapStates = 0;

    Impl(const sim::ChipProfile &c, const litmus::Test &t,
         ExploreOptions o)
        : opts(std::move(o)), chip(c), test(&t),
          w0(chip, t, &opts, &keys, nullptr)
    {
        uint64_t sh =
            static_cast<uint64_t>(std::max(1, opts.shards));
        auto satMul = [](uint64_t a, uint64_t m) -> uint64_t {
            if (a == 0 || m == 0)
                return 0;
            if (a > UINT64_MAX / m)
                return UINT64_MAX;
            return a * m;
        };
        effCapReplays = satMul(opts.maxReplays, sh);
        effCapStates = satMul(opts.maxStates, sh);
        w0.capReplays = effCapReplays;
        w0.capStates = effCapStates;
        if (sh > 1) {
            shared = std::make_unique<SharedCtx>();
            shared->capReplays = effCapReplays;
            shared->debugKeys = opts.debugStateKeys;
            w0.shared = shared.get();
        }
    }

    ExploreResult
    explore()
    {
        auto start = std::chrono::steady_clock::now();
        obs::Span span("explore " + test->name + "@" +
                           w0.machine.chip().shortName,
                       "mc");
        if (!shared)
            return exploreSequential(start);
        return exploreParallel(start);
    }

    ExploreResult
    exploreSequential(std::chrono::steady_clock::time_point start)
    {
        w0.runLoop(false);
        // On a budget abort the open spine still holds sound partial
        // results: fold them down without memoising anything. (A
        // drained search already has an empty spine.)
        while (w0.traceLen > 0)
            w0.popTop(false);
        return assemble(!w0.aborted, start);
    }

    ExploreResult
    exploreParallel(std::chrono::steady_clock::time_point start)
    {
        // -- Phase 1: single replay+backtrack rounds on this thread
        // until the spine exposes a split point (a node with
        // unexplored alternatives). Usually exactly one round: the
        // first replay materialises the whole spine.
        size_t b = SIZE_MAX;
        for (;;) {
            if (w0.runLoop(true))
                return assemble(true, start); // drained sequentially
            if (w0.aborted) {
                while (w0.traceLen > 0)
                    w0.popTop(false);
                return assemble(false, start);
            }
            b = SIZE_MAX;
            for (size_t i = 0; i < w0.traceLen; ++i) {
                if (!w0.trace[i].pending.empty()) {
                    b = i;
                    break;
                }
            }
            if (b != SIZE_MAX)
                break;
        }

        // -- Split: 1 + |pending| subtree tasks at the shallowest
        // branchy node. Task 0 continues the in-flight traversal (the
        // deep spine and the node's accumulated finals travel with
        // it); task k explores pending[k-1] under the doneIds
        // sequence the sequential backtracks would have built, so
        // every subtree sees the sequential sleep-set discipline. One
        // split level is enough for the budget semantics at any shard
        // count; re-splitting *inside* subtrees is future work
        // (docs/ARCHITECTURE.md).
        Node &B = w0.trace[b];
        const size_t nTasks = 1 + B.pending.size();
        std::vector<std::unique_ptr<SubtreeTask>> tasks;
        tasks.reserve(nTasks);
        {
            auto t0 = std::make_unique<SubtreeTask>();
            t0->clone = B;
            t0->clone.pending.clear();
            for (size_t i = b + 1; i < w0.traceLen; ++i)
                t0->deepSpine.push_back(w0.trace[i]);
            tasks.push_back(std::move(t0));
        }
        std::vector<int> doneSeq = B.doneIds;
        if (B.isSchedule)
            doneSeq.push_back(B.actors[B.chosen].id);
        for (uint32_t alt : B.pending) {
            auto tk = std::make_unique<SubtreeTask>();
            tk->clone = B;
            tk->clone.chosen = alt;
            tk->clone.pending.clear();
            tk->clone.finals.clear();
            tk->clone.taint = SIZE_MAX;
            if (B.isSchedule) {
                tk->clone.doneIds = doneSeq;
                doneSeq.push_back(B.actors[alt].id);
            }
            tasks.push_back(std::move(tk));
        }
        // The driver keeps the split node as the commit fold target.
        // Its accumulated finals moved into task 0's clone, so clear
        // them here (they would double-count), and truncate the
        // spine — the deep part now belongs to task 0.
        B.pending.clear();
        B.finals.clear();
        B.taint = SIZE_MAX;
        w0.traceLen = b + 1;

        // -- Publish phase 1: black states go to the committed map
        // (they are sequentially-closed results every subtree may
        // reuse), spine greys at depth <= b to the read-only seed
        // table all tasks share, and deep-spine greys (> b) to task
        // 0's private pre-seed.
        if (opts.debugStateKeys) {
            for (const auto &[k, v] : w0.visitedStr) {
                if (v.black)
                    shared->committedStr.insert(k, v.executedSig,
                                                v.finals);
                else if (v.greyDepth <= b)
                    shared->seedsStr.emplace(
                        k, SeedEntry{v.greyDepth, v.executedSig});
                else
                    tasks[0]->seedGreysStr.emplace_back(k, v);
            }
            shared->seedCount = shared->seedsStr.size();
        } else {
            w0.visited.forEach([&](const StateTable::Slot &s) {
                Digest128 k = StateTable::keyOf(s);
                if (s.black())
                    shared->committed.insert(k, s.executedSig,
                                             w0.copyFinals(s));
                else if (s.greyDepth() <= b)
                    shared->seeds.emplace(
                        k, SeedEntry{s.greyDepth(), s.executedSig});
                else
                    tasks[0]->seedGreys.emplace_back(
                        k, VisitEntry{false, s.greyDepth(),
                                      s.executedSig, {}});
            });
            shared->seedCount = shared->seeds.size();
        }
        shared->pool.store(w0.stats.replays,
                           std::memory_order_relaxed);

        // -- Worker pool: deal tasks round-robin into Chase-Lev
        // deques, one per worker; idle workers steal from their
        // peers. Which worker runs which task is scheduling noise —
        // commits happen in subtree-id order regardless.
        size_t T = opts.shardThreads > 0
                       ? static_cast<size_t>(opts.shardThreads)
                       : static_cast<size_t>(
                             std::max(1, opts.shards));
        T = std::min(std::max<size_t>(1, T), nTasks);
        std::vector<std::unique_ptr<WorkStealDeque>> deques;
        deques.reserve(T);
        for (size_t i = 0; i < T; ++i)
            deques.push_back(
                std::make_unique<WorkStealDeque>(nTasks));
        for (size_t i = 0; i < nTasks; ++i)
            deques[i % T]->push(static_cast<uint32_t>(i));

        const bool obs_on = obs::enabled();
        if (obs_on)
            obs::counter("mc_subtrees_total").add(nTasks);
        std::atomic<uint64_t> steals{0};

        auto workerMain = [&](size_t me) {
            Walker w(chip, *test, &opts, &keys, shared.get());
            w.isWorker = true;
            w.recordMisses = true;
            w.capStates = effCapStates;
            auto runTask = [&](uint32_t id) {
                SubtreeTask &t = *tasks[id];
                obs::Span tspan("mc subtree " + std::to_string(id) +
                                    " " + test->name,
                                "mc");
                w.loadTask(w0.trace, b, t);
                if (w.runLoop(false)) {
                    t.stats = w.stats;
                    t.loopDedup = w.loopDedup;
                    t.truncatedLeaf = w.truncatedLeaf;
                    t.finals = std::move(w.trace[b].finals);
                    t.taint = w.trace[b].taint;
                    t.missedKeys = std::move(w.missedKeys);
                    t.missedStrs = std::move(w.missedStrs);
                    t.peakPrivate = w.peakPrivate;
                    w.harvestBlacks(t);
                } else {
                    t.aborted = true;
                }
                t.done.store(true, std::memory_order_release);
            };
            uint32_t id = 0;
            for (;;) {
                if (deques[me]->pop(id)) {
                    runTask(id);
                    continue;
                }
                bool got = false;
                bool retry = true;
                while (!got && retry) {
                    retry = false;
                    for (size_t o = 0; o < T && !got; ++o) {
                        if (o == me)
                            continue;
                        switch (deques[o]->steal(id)) {
                          case WorkStealDeque::Steal::kOk:
                            got = true;
                            steals.fetch_add(
                                1, std::memory_order_relaxed);
                            break;
                          case WorkStealDeque::Steal::kLost:
                            retry = true;
                            break;
                          case WorkStealDeque::Steal::kEmpty:
                            break;
                        }
                    }
                }
                if (!got)
                    return;
                runTask(id);
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(T);
        for (size_t i = 0; i < T; ++i)
            threads.emplace_back(workerMain, i);

        // -- Commit, strictly in subtree-id order. A subtree whose
        // optimistic run provably matches the sequential one (no
        // aborted admission, no recorded cache miss that is now
        // committed, budgets certifiably un-tripped) commits as-is;
        // anything else is redone right here against the frozen
        // committed prefix — which *is* the sequential search for
        // that subtree.
        auto publishBlacks = [&](Walker &w) {
            if (opts.debugStateKeys) {
                for (auto &[k, v] : w.visitedStr) {
                    if (!v.black)
                        continue;
                    bool fresh = shared->committedStr.insert(
                        k, v.executedSig, std::move(v.finals));
                    assert(fresh && "committed-state collision");
                    (void)fresh;
                }
            } else {
                w.visited.forEach([&](const StateTable::Slot &s) {
                    if (!s.black())
                        return;
                    bool fresh = shared->committed.insert(
                        StateTable::keyOf(s), s.executedSig,
                        w.copyFinals(s));
                    assert(fresh && "committed-state collision");
                    (void)fresh;
                });
            }
        };
        uint64_t spent = w0.stats.replays;
        bool bounded = false;
        std::unique_ptr<Walker> redo;
        for (size_t j = 0; j < nTasks && !bounded; ++j) {
            SubtreeTask &t = *tasks[j];
            while (!t.done.load(std::memory_order_acquire))
                std::this_thread::yield();
            bool conflict = t.aborted;
            // Replay-budget certificate: `spent` is exactly the
            // sequential spend entering this subtree (commits are in
            // order), so fitting under the cap proves no mid-subtree
            // trip.
            if (!conflict && spent + t.stats.replays > effCapReplays)
                conflict = true;
            // State-budget certificate (an upper bound on the
            // sequential mid-subtree map size; over-approximation
            // only costs a redo, never correctness).
            if (!conflict && opts.stateCache &&
                shared->committedCount() + shared->seedCount +
                        t.peakPrivate >=
                    effCapStates)
                conflict = true;
            if (!conflict) {
                for (const auto &k : t.missedKeys) {
                    if (shared->committed.contains(k)) {
                        conflict = true;
                        break;
                    }
                }
                for (const auto &k : t.missedStrs) {
                    if (conflict)
                        break;
                    if (shared->committedStr.contains(k))
                        conflict = true;
                }
            }
            if (!conflict) {
                for (auto &[k, e] : t.blacks) {
                    bool fresh = shared->committed.insert(
                        k, e.executedSig, std::move(e.finals));
                    assert(fresh && "committed-state collision");
                    (void)fresh;
                }
                for (auto &[k, e] : t.blacksStr) {
                    bool fresh = shared->committedStr.insert(
                        k, e.executedSig, std::move(e.finals));
                    assert(fresh && "committed-state collision");
                    (void)fresh;
                }
                foldWeights(B.finals, t.finals);
                B.taint = std::min(B.taint, t.taint);
                mergeStats(w0.stats, t.stats);
                w0.loopDedup = w0.loopDedup || t.loopDedup;
                w0.truncatedLeaf =
                    w0.truncatedLeaf || t.truncatedLeaf;
                spent += t.stats.replays;
            } else {
                if (obs_on)
                    obs::counter("mc_shard_collisions_total").add();
                if (!redo)
                    redo = std::make_unique<Walker>(
                        chip, *test, &opts, &keys, shared.get());
                Walker &rw = *redo;
                rw.loadTask(w0.trace, b, t);
                rw.capReplays = effCapReplays - spent;
                rw.capStates = effCapStates;
                if (rw.runLoop(false)) {
                    publishBlacks(rw);
                } else {
                    // The *sequential* budget ran out inside this
                    // subtree: stop the speculation and unwind the
                    // redo's open spine down to the split node — the
                    // same fold the sequential abort does.
                    shared->stop.store(true,
                                       std::memory_order_release);
                    while (rw.traceLen > b + 1)
                        rw.popTop(false);
                    bounded = true;
                }
                foldWeights(B.finals, rw.trace[b].finals);
                B.taint = std::min(B.taint, rw.trace[b].taint);
                mergeStats(w0.stats, rw.stats);
                w0.loopDedup = w0.loopDedup || rw.loopDedup;
                w0.truncatedLeaf =
                    w0.truncatedLeaf || rw.truncatedLeaf;
                spent += rw.stats.replays;
            }
            if (opts.heartbeat)
                opts.heartbeat(w0.stats);
        }
        shared->stop.store(true, std::memory_order_release);
        for (auto &th : threads)
            th.join();
        if (obs_on)
            obs::counter("mc_steals_total")
                .add(steals.load(std::memory_order_relaxed));

        if (bounded) {
            while (w0.traceLen > 0)
                w0.popTop(false);
            return assemble(false, start);
        }
        // Drain the driver's spine [0..b]: every pending list is
        // empty, so this blackens the prefix exactly as the final
        // sequential backtracks would.
        while (w0.traceLen > 0)
            w0.popTop(true);
        return assemble(true, start);
    }

    ExploreResult
    assemble(bool complete,
             std::chrono::steady_clock::time_point start)
    {
        ExploreResult result;
        result.testName = test->name;
        result.chipName = w0.machine.chip().shortName;
        result.column = opts.machine.inc.column();
        result.complete =
            complete && !w0.loopDedup && !w0.truncatedLeaf;
        // Drained with loop-dedup cuts as the only caveat: exact for
        // every execution whose spin loops terminate.
        result.fairComplete = complete && !w0.truncatedLeaf;
        // Un-intern the dense accounting back into the string-keyed
        // result shape the eval layer consumes. String keying here is
        // also what makes the parallel phase's race-order id
        // numbering invisible.
        for (uint32_t id = 0; id < w0.rootFinals.size(); ++id) {
            if (w0.rootFinals[id] == 0)
                continue;
            const std::string &name = *keys.interner.names[id];
            result.finals[name] = w0.rootFinals[id];
            if (id < keys.satFlags.size() && keys.satFlags[id])
                result.satisfying.insert(name);
            result.paths += w0.rootFinals[id];
        }
        result.stats = w0.stats;
        result.budgetReplays = effCapReplays;
        result.budgetStates = effCapStates;
        auto end = std::chrono::steady_clock::now();
        result.millis =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        // Fold the search-shape statistics into the process registry
        // (replays were already ticked live for heartbeat rates).
        if (obs::enabled()) {
            obs::counter("mc_explorations_total").add();
            // `complete` (the parameter) is the budget flag; the
            // result field also folds in loop-dedup caveats.
            if (!complete)
                obs::counter("mc_bounded_total").add();
            obs::counter("mc_state_cuts_total")
                .add(w0.stats.stateCuts);
            obs::counter("mc_sleep_skips_total")
                .add(w0.stats.sleepSkips);
            obs::counter("mc_states_cached_total")
                .add(w0.stats.distinctStates);
            obs::counter("mc_resumes_total").add(w0.stats.resumes);
            obs::counter("mc_replayed_choices_total")
                .add(w0.stats.replayedChoices);
            obs::gauge("mc_last_peak_depth")
                .set(static_cast<int64_t>(w0.stats.peakDepth));
            // The driving walker's memo: the whole state table of a
            // sequential search, the pre-split and commit-fold table
            // of a parallel one.
            obs::gauge("mc_last_peak_states")
                .set(static_cast<int64_t>(w0.peakPrivate));
            obs::gauge("mc_state_table_bytes")
                .set(static_cast<int64_t>(w0.visited.bytes()));
        }
        return result;
    }
};

// ---------------------------------------------------------------------
// Explorer / ExploreResult
// ---------------------------------------------------------------------

Explorer::Explorer(const sim::ChipProfile &chip,
                   const litmus::Test &test, ExploreOptions opts)
    : impl_(std::make_unique<Impl>(chip, test, std::move(opts)))
{
}

Explorer::~Explorer() = default;

ExploreResult
Explorer::explore()
{
    return impl_->explore();
}

std::string
ExploreResult::verdict(const litmus::Test &test) const
{
    bool sat = !satisfying.empty();
    bool ok;
    switch (test.quantifier) {
      case litmus::Quantifier::Exists:
        ok = sat;
        break;
      case litmus::Quantifier::NotExists:
        ok = !sat;
        break;
      case litmus::Quantifier::Forall:
        ok = satisfying.size() == finals.size();
        break;
      default:
        ok = false;
        break;
    }
    std::string v = ok ? "Ok" : "No";
    if (!complete)
        v += fairComplete ? " (fair)" : " (bounded)";
    return v;
}

std::string
ExploreResult::str() const
{
    std::string out;
    out += "Exploration " + testName + "@" + chipName + " (column " +
           std::to_string(column) + ")\n";
    out += (complete ? std::string("complete: ")
            : fairComplete
                ? std::string("complete for terminating executions"
                              " (spin-loop dedup): ")
                : std::string("BOUNDED (budget or loop guard): ")) +
           std::to_string(finals.size()) + " reachable states, " +
           std::to_string(paths) + " paths\n";
    for (const auto &[key, weight] : finals) {
        out += "  " + std::to_string(weight) + "  " + key;
        if (satisfying.count(key))
            out += "  *";
        out += "\n";
    }
    out += "replays " + std::to_string(stats.replays) + " (" +
           std::to_string(stats.resumes) + " resumed), states " +
           std::to_string(stats.distinctStates) + ", state cuts " +
           std::to_string(stats.stateCuts) + ", sleep skips " +
           std::to_string(stats.sleepSkips) + ", peak depth " +
           std::to_string(stats.peakDepth) + ", replayed choices " +
           std::to_string(stats.replayedChoices) + "\n";
    return out;
}

std::string
ExploreResult::report() const
{
    std::string out = str();
    // The diagnosability tail: which budget bit, and how the search
    // was shaped when it did. Budgets are advisory fields (0 when the
    // result came back from the persistent store).
    auto pct = [](uint64_t used, uint64_t budget) {
        if (!budget)
            return std::string("?");
        return std::to_string(used * 100 / budget) + "%";
    };
    out += "budget: replays " + std::to_string(stats.replays);
    if (budgetReplays)
        out += "/" + std::to_string(budgetReplays) + " (" +
               pct(stats.replays, budgetReplays) + ")";
    out += ", states " + std::to_string(stats.distinctStates);
    if (budgetStates)
        out += "/" + std::to_string(budgetStates) + " (" +
               pct(stats.distinctStates, budgetStates) + ")";
    out += ", deepest frontier " + std::to_string(stats.peakDepth) +
           "\n";
    if (!complete && !fairComplete) {
        bool replays_out =
            budgetReplays && stats.replays >= budgetReplays;
        out += std::string("bounded by: ") +
               (replays_out ? "replay budget — raise --budget"
                            : "state cap or step guard") +
               "\n";
    }
    return out;
}

} // namespace gpulitmus::mc
