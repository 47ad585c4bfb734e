/**
 * @file
 * The explorer's private state memo: a flat open-addressing table
 * from 128-bit (state, sleep-set) digests to visit records.
 *
 * The model checker looks a digest up at every scheduling point and
 * inserts one per fresh state, so the memo is the hottest data
 * structure of an exploration. A node-based hash map spends most of
 * that time chasing bucket chains and allocating nodes; this table
 * keeps every record inline in one array:
 *
 * - Indexing: the slot index is `Digest128::lo` masked to the
 *   power-of-two capacity. The digest lanes are already avalanched
 *   (common/hash.h), so no further mixing is needed. Collisions probe
 *   linearly; a lookup compares both lanes.
 * - Erase: backward-shift deletion, so the table holds no tombstones
 *   and probe sequences never lengthen with churn (grey states are
 *   inserted and erased constantly as the spine moves).
 * - Growth: the capacity doubles once the load passes 3/4.
 * - Compact slots: 32 bytes — the digest, the fetch-counter
 *   signature, the grey depth with a black bit, and an index into a
 *   pooled weights store (WeightPool) that holds black states'
 *   memoised finals.
 *
 * Slot pointers are invalidated by insertGrey() (which may grow the
 * table) and erase() (which shifts records); finals() spans stay
 * valid until clear().
 */

#ifndef GPULITMUS_MC_STATETABLE_H
#define GPULITMUS_MC_STATETABLE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/log.h"

namespace gpulitmus::mc {

/** A read-only view of memoised weights (outcome id -> path count):
 * dense when `ids` is null (counts[i] belongs to outcome id i),
 * sparse otherwise (counts[i] belongs to outcome id ids[i], ids
 * ascending). */
struct WeightSpan
{
    const uint64_t *counts = nullptr;
    const uint64_t *ids = nullptr;
    size_t size = 0;
};

/**
 * Append-only store of memoised weight vectors, addressed by 32-bit
 * handles. Records are packed into 512 KiB chunks, so the pool never
 * reallocates (no doubling slack, no copy spike at growth) and holds
 * little more than its records. Each record is a header word — the
 * entry count and a sparse flag — followed by the counts and, when
 * sparse, their outcome ids. A vector is stored sparse (nonzero
 * entries only) when that is smaller, which it is for most states of
 * a test with many outcomes: a subtree reaches a few of them. An
 * all-zero vector takes no record at all.
 */
class WeightPool
{
  public:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    uint32_t
    add(const std::vector<uint64_t> &w)
    {
        size_t len = w.size();
        while (len > 0 && w[len - 1] == 0)
            --len;
        size_t nonzero = 0;
        for (size_t i = 0; i < len; ++i)
            nonzero += w[i] != 0;
        if (nonzero == 0)
            return kEmpty;
        bool sparse = 2 * nonzero < len;
        size_t n = sparse ? nonzero : len;
        uint32_t at;
        uint64_t *rec = alloc(1 + (sparse ? 2 * n : n), at);
        rec[0] = (static_cast<uint64_t>(n) << 1) | (sparse ? 1 : 0);
        uint64_t *counts = rec + 1;
        if (!sparse) {
            std::copy_n(w.data(), len, counts);
            return at;
        }
        uint64_t *ids = counts + n;
        size_t k = 0;
        for (size_t i = 0; i < len; ++i) {
            if (w[i] != 0) {
                counts[k] = w[i];
                ids[k] = i;
                ++k;
            }
        }
        return at;
    }

    WeightSpan
    get(uint32_t at) const
    {
        if (at == kEmpty)
            return {};
        const uint64_t *rec =
            chunks_[at >> kChunkBits].get() + (at & kChunkMask);
        size_t n = static_cast<size_t>(rec[0] >> 1);
        return {rec + 1, (rec[0] & 1) ? rec + 1 + n : nullptr, n};
    }

    size_t bytes() const { return allocatedWords_ * sizeof(uint64_t); }

    void
    clear()
    {
        chunks_.clear();
        used_ = kChunkWords;
        allocatedWords_ = 0;
    }

  private:
    static constexpr unsigned kChunkBits = 16;
    static constexpr size_t kChunkWords = size_t{1} << kChunkBits;
    static constexpr uint32_t kChunkMask = kChunkWords - 1;

    /** `words` contiguous words; `at` receives their handle. A record
     * longer than a chunk gets a chunk of its own. */
    uint64_t *
    alloc(size_t words, uint32_t &at)
    {
        if (used_ + words > kChunkWords) {
            // Handles are 32 bits and kEmpty must stay unreachable.
            if (chunks_.size() + 1 >= (size_t{1} << (32 - kChunkBits)))
                panic("mc: state-table weights pool exceeds %zu chunks",
                      chunks_.size());
            size_t size = std::max(words, kChunkWords);
            chunks_.push_back(
                std::make_unique_for_overwrite<uint64_t[]>(size));
            allocatedWords_ += size;
            used_ = 0;
        }
        size_t chunk = chunks_.size() - 1;
        at = static_cast<uint32_t>((chunk << kChunkBits) | used_);
        uint64_t *p = chunks_.back().get() + used_;
        used_ += words;
        return p;
    }

    std::vector<std::unique_ptr<uint64_t[]>> chunks_;
    size_t used_ = kChunkWords; ///< words used in the last chunk
    size_t allocatedWords_ = 0;
};

class StateTable
{
  public:
    struct Slot
    {
        uint64_t lo = 0;
        uint64_t hi = 0;
        /** Fetch-counter signature at the visit (see VisitEntry). */
        uint64_t executedSig = 0;
        /** 0: empty. Otherwise kBlack for a closed state, or the grey
         * depth + 1 for a state still open on the spine. */
        uint32_t meta = 0;
        /** Black states: offset of the finals record in the pool. */
        uint32_t weights = 0;

        bool black() const { return meta == kBlack; }
        size_t greyDepth() const { return meta - 1; }
    };
    static_assert(sizeof(Slot) == 32, "state-table slots stay compact");

    explicit StateTable(size_t initialCapacity = kInitialCapacity)
    {
        size_t cap = 1;
        while (cap < initialCapacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    size_t size() const { return size_; }

    /** Bytes held by the slot array and the weights pool. */
    size_t
    bytes() const
    {
        return slots_.capacity() * sizeof(Slot) + pool_.bytes();
    }

    /** The record for `key`, or null. */
    Slot *
    find(const Digest128 &key)
    {
        for (size_t i = key.lo & mask_;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.meta == 0)
                return nullptr;
            if (s.lo == key.lo && s.hi == key.hi)
                return &s;
        }
    }

    /** Insert `key` as a grey state. `key` must be absent. */
    Slot &
    insertGrey(const Digest128 &key, size_t greyDepth, uint64_t sig)
    {
        assert(greyDepth < kBlack - 1);
        if ((size_ + 1) * kLoadDen > slots_.size() * kLoadNum)
            grow();
        ++size_;
        Slot &s = probeEmpty(key.lo);
        s.lo = key.lo;
        s.hi = key.hi;
        s.executedSig = sig;
        s.meta = static_cast<uint32_t>(greyDepth + 1);
        s.weights = 0;
        return s;
    }

    /** Close a grey state, memoising its subtree's finals. */
    void
    blacken(Slot &s, const std::vector<uint64_t> &finals)
    {
        s.meta = kBlack;
        s.weights = pool_.add(finals);
    }

    /** A black slot's memoised finals. */
    WeightSpan finals(const Slot &s) const { return pool_.get(s.weights); }

    /** Remove `key`; false if absent. */
    bool
    erase(const Digest128 &key)
    {
        Slot *s = find(key);
        if (!s)
            return false;
        // Backward shift: pull each later member of the probe run
        // into the hole unless its home slot lies cyclically in
        // (hole, j], where moving it would break its own probe path.
        size_t hole = static_cast<size_t>(s - slots_.data());
        for (size_t j = (hole + 1) & mask_; slots_[j].meta != 0;
             j = (j + 1) & mask_) {
            size_t home = slots_[j].lo & mask_;
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].meta = 0;
        --size_;
        return true;
    }

    /** Drop every record and the pool; keeps the allocations. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.meta = 0;
        size_ = 0;
        pool_.clear();
    }

    /** Visit every record (unspecified order). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.meta != 0)
                f(s);
        }
    }

    static Digest128 keyOf(const Slot &s) { return {s.lo, s.hi}; }

    static constexpr uint32_t kBlack = 0x80000000u;
    static constexpr size_t kInitialCapacity = size_t{1} << 12;

  private:
    /** Grow past this load factor (kLoadNum / kLoadDen). */
    static constexpr size_t kLoadNum = 3;
    static constexpr size_t kLoadDen = 4;

    Slot &
    probeEmpty(uint64_t lo)
    {
        size_t i = lo & mask_;
        while (slots_[i].meta != 0)
            i = (i + 1) & mask_;
        return slots_[i];
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.meta != 0)
                probeEmpty(s.lo) = s;
        }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
    WeightPool pool_;
};

} // namespace gpulitmus::mc

#endif // GPULITMUS_MC_STATETABLE_H
