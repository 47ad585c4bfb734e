/**
 * @file
 * Streaming 128-bit hashing for hot-path state keys.
 *
 * The model checker visits millions of machine states; keying its
 * memo table on a freshly built byte string per state is an
 * allocation, a copy and a full-width comparison per lookup. Hash128
 * replaces that with an incremental digest: callers stream the state
 * fields (put8/put64, in canonical encoding order) and take a 128-bit
 * digest at the end — no intermediate buffer, collision probability
 * ~n^2 / 2^128 (birthday bound; astronomically below any feasible
 * state count), and the explorer's debug mode cross-checks digests
 * against the full string encoding anyway.
 *
 * Construction: each absorbed value updates two independent lanes
 * with a rotate-xor/add-multiply step (distinct rotations and odd
 * multipliers per lane — the rotation breaks the top-bit fixed point
 * of plain multiply chains, the odd multiply diffuses the rotated
 * difference). digest() folds the absorb count into both lanes (so
 * streams of different lengths cannot alias) and applies a full
 * splitmix64-style avalanche per lane. Every step is bijective in
 * the lane state, so information is never discarded before the final
 * fold.
 *
 * Stability guarantee: a digest is a pure function of the absorbed
 * value sequence, and the construction is part of the on-disk
 * format. The result store (serve/store.cc) persists Hash128 output
 * as record checksums and job digests, so changing a constant,
 * absorb() or putBytes() orphans every existing store and needs a
 * kAbiVersion bump (common/version.h). The golden test in
 * tests/test_common.cc pins the output so such a change fails
 * loudly. What callers stream into a hash is theirs to change:
 * the explorer's state digests (sim::Machine::hashState) are
 * in-process keys, never persisted.
 */

#ifndef GPULITMUS_COMMON_HASH_H
#define GPULITMUS_COMMON_HASH_H

#include <cstddef>
#include <cstdint>

namespace gpulitmus {

/** A 128-bit digest: equality-comparable, cheaply hashable. */
struct Digest128
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const Digest128 &) const = default;

    /** Fold to a table-bucket hash. The lanes are already avalanched,
     * so mixing them with an odd multiplier suffices. */
    struct Hasher
    {
        size_t
        operator()(const Digest128 &d) const
        {
            return static_cast<size_t>(
                d.lo ^ (d.hi * 0x9e3779b97f4a7c15ULL));
        }
    };
};

/** Incremental 128-bit hash accumulator (see file header). */
class Hash128
{
  public:
    void put8(uint8_t v) { absorb(v); }
    void put64(uint64_t v) { absorb(v); }

    void
    putBytes(const uint8_t *data, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            absorb(data[i]);
    }

    /** Finalise. The accumulator may keep absorbing afterwards;
     * digest() is a pure read of the current stream position. */
    Digest128
    digest() const
    {
        uint64_t x =
            avalanche(a_ ^ (count_ * 0x9e3779b97f4a7c15ULL));
        uint64_t y = avalanche(b_ + count_);
        return {x, y};
    }

  private:
    static uint64_t
    rotl(uint64_t x, int r)
    {
        return (x << r) | (x >> (64 - r));
    }

    /** splitmix64 finaliser: full-avalanche bijection. */
    static uint64_t
    avalanche(uint64_t x)
    {
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    void
    absorb(uint64_t v)
    {
        a_ = rotl(a_ ^ v, 24) * 0x9e3779b97f4a7c15ULL;
        b_ = rotl(b_ + v, 37) * 0xc2b2ae3d27d4eb4fULL;
        ++count_;
    }

    uint64_t a_ = 0x243f6a8885a308d3ULL; ///< pi fractional bits
    uint64_t b_ = 0x13198a2e03707344ULL;
    uint64_t count_ = 0;
};

} // namespace gpulitmus

#endif // GPULITMUS_COMMON_HASH_H
