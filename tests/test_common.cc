/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, string helpers, table rendering, and the
 * pinned Hash128 construction.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/table.h"

namespace gpulitmus {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng r(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo_seen |= v == -2;
        hi_seen |= v == 2;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesP)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, SplitIndependent)
{
    Rng a(29);
    Rng b = a.split();
    EXPECT_NE(a.next(), b.next());
}

TEST(Strutil, Trim)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("hi"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strutil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strutil, SplitWhitespace)
{
    auto parts = splitWhitespace("  a\t\tb  c ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strutil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("membar.gl", "membar"));
    EXPECT_FALSE(startsWith("mem", "membar"));
    EXPECT_TRUE(endsWith("membar.gl", ".gl"));
    EXPECT_FALSE(endsWith("gl", ".gl"));
}

TEST(Strutil, ParseInt)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("0x10").value(), 16);
    EXPECT_EQ(parseInt("0x80000000").value(), 0x80000000LL);
    EXPECT_FALSE(parseInt("4x2").has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("abc").has_value());
    // Out of 64-bit range: refused, not clamped.
    EXPECT_EQ(parseInt("9223372036854775807").value(), INT64_MAX);
    EXPECT_FALSE(parseInt("9223372036854775808").has_value());
    EXPECT_FALSE(parseInt("-99999999999999999999").has_value());
}

TEST(Strutil, Join)
{
    std::vector<std::string> v{"a", "b", "c"};
    EXPECT_EQ(join(v, ", "), "a, b, c");
    EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(Table, AlignsColumns)
{
    Table t;
    t.header({"name", "obs"});
    t.row({"coRR", "11642"});
    t.row({"mp", "3"});
    std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("11642"), std::string::npos);
    // Each line has the same length for rows of equal arity.
    std::istringstream ss(s);
    std::string l1, l2, l3, l4;
    std::getline(ss, l1);
    std::getline(ss, l2);
    std::getline(ss, l3);
    std::getline(ss, l4);
    EXPECT_EQ(l3.size(), l4.size());
}

TEST(Table, HandlesRaggedRows)
{
    Table t;
    t.row({"a"});
    t.row({"b", "c", "d"});
    EXPECT_NE(t.str().find("d"), std::string::npos);
}

TEST(Hash128, GoldenDigestsArePinned)
{
    // The result store persists Hash128 output (record checksums and
    // job digests). A change to the construction must fail here, not
    // silently orphan every existing store.
    EXPECT_EQ(Hash128{}.digest(),
              (Digest128{0xe9e0033e3badaf36ULL, 0xdfc7a99951f24649ULL}));

    Hash128 h;
    h.put64(0);
    h.put64(1);
    h.put64(0x0123456789abcdefULL);
    h.put64(UINT64_MAX);
    EXPECT_EQ(h.digest(),
              (Digest128{0x3d03ea07381a3d23ULL, 0x6dc3ead33a9baeb9ULL}));

    const char *text = "gpulitmus";
    h.putBytes(reinterpret_cast<const uint8_t *>(text), 9);
    EXPECT_EQ(h.digest(),
              (Digest128{0xd9185e322a961453ULL, 0x960062c214070b2eULL}));
}

} // namespace
} // namespace gpulitmus
