/**
 * @file
 * Unit tests for the Fowler rotation-word search: Su2 algebra,
 * exact Clifford/T cases, inversion, approximation quality, and
 * equivalence of the one-pass multi-target search with the original
 * per-target two-pass search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "synth/Fowler.hh"
#include "synth/Su2.hh"

namespace qc {
namespace {

/**
 * The original per-target search, kept verbatim as the reference the
 * one-pass search must reproduce word for word and bit for bit: a
 * DFS for the cheapest word within maxError and, if none reaches it,
 * a second DFS within 2% of the best error the first one saw.
 */
namespace reference {

const std::vector<GateKind> &
tPowerGates(int a)
{
    static const std::vector<GateKind> table[8] = {
        {},
        {GateKind::T},
        {GateKind::S},
        {GateKind::S, GateKind::T},
        {GateKind::Z},
        {GateKind::Z, GateKind::T},
        {GateKind::Sdg},
        {GateKind::Tdg},
    };
    return table[a];
}

int
tPowerCost(int a, bool pure_ht, int t_weight)
{
    if (pure_ht)
        return a * t_weight;
    int cost = 0;
    for (GateKind g : tPowerGates(a)) {
        cost += (g == GateKind::T || g == GateKind::Tdg) ? t_weight
                                                         : 1;
    }
    return cost;
}

struct SearchCtx
{
    const Su2 *target;
    double maxError;
    int maxSyllables;
    bool pureHT;
    int tWeight;

    double bestError = 2.0;
    int bestCost = 1 << 30;
    std::vector<std::uint8_t> bestWord;
    bool found = false;

    std::vector<std::uint8_t> word;

    void
    consider(const Su2 &m, int cost)
    {
        const double err = m.distTo(*target);
        const bool ok = err <= maxError;
        if (found) {
            if (ok && (cost < bestCost ||
                       (cost == bestCost && err < bestError))) {
                bestCost = cost;
                bestError = err;
                bestWord = word;
            }
        } else if (ok) {
            found = true;
            bestCost = cost;
            bestError = err;
            bestWord = word;
        } else if (err < bestError) {
            bestError = err;
            bestCost = cost;
            bestWord = word;
        }
    }
};

void
extend(SearchCtx &ctx, const Su2 &m, int cost, int depth)
{
    if (depth >= ctx.maxSyllables)
        return;
    const Su2 afterH = Su2::hGate() * m;
    const Su2 tMat = Su2::tGate();

    ctx.word.push_back(0);
    ctx.consider(afterH, cost + 1);

    Su2 cur = afterH;
    for (int a = 1; a <= 7; ++a) {
        cur = tMat * cur;
        ctx.word.back() = static_cast<std::uint8_t>(a);
        const int c = cost + 1 + tPowerCost(a, ctx.pureHT,
                                            ctx.tWeight);
        ctx.consider(cur, c);
        extend(ctx, cur, c, depth + 1);
    }
    ctx.word.pop_back();
}

ApproxSequence
wordToSequence(const std::vector<std::uint8_t> &word, double error,
               bool pure_ht)
{
    ApproxSequence seq;
    seq.error = error;
    bool first = true;
    for (std::uint8_t a : word) {
        if (!first)
            seq.gates.push_back(GateKind::H);
        if (pure_ht) {
            seq.gates.insert(seq.gates.end(), a, GateKind::T);
        } else {
            const auto &gates = tPowerGates(a);
            seq.gates.insert(seq.gates.end(), gates.begin(),
                             gates.end());
        }
        first = false;
    }
    return seq;
}

SearchCtx
runDfs(const Su2 &target, const FowlerSynth::Options &opts,
       double max_error)
{
    SearchCtx ctx;
    ctx.target = &target;
    ctx.maxError = max_error;
    ctx.maxSyllables = opts.maxSyllables;
    ctx.pureHT = opts.pureHT;
    ctx.tWeight = opts.tCostWeight;

    const Su2 tMat = Su2::tGate();
    Su2 cur = Su2::identity();
    for (int a0 = 0; a0 <= 7; ++a0) {
        if (a0 > 0)
            cur = tMat * cur;
        ctx.word.assign(1, static_cast<std::uint8_t>(a0));
        const int cost = tPowerCost(a0, opts.pureHT, opts.tCostWeight);
        ctx.consider(cur, cost);
        extend(ctx, cur, cost, 0);
    }
    return ctx;
}

ApproxSequence
search(const Su2 &target, const FowlerSynth::Options &opts)
{
    SearchCtx ctx = runDfs(target, opts, opts.maxError);
    if (!ctx.found)
        ctx = runDfs(target, opts, ctx.bestError * 1.02 + 1e-15);
    return wordToSequence(ctx.bestWord, ctx.bestError, opts.pureHT);
}

/** The least error any word within the options reaches. */
double
bestError(const Su2 &target, const FowlerSynth::Options &opts)
{
    return runDfs(target, opts, -1.0).bestError;
}

} // namespace reference

/** Equal gates and bitwise-equal error. */
::testing::AssertionResult
sameWord(const ApproxSequence &got, const ApproxSequence &want)
{
    if (got.gates != want.gates)
        return ::testing::AssertionFailure() << "gates differ";
    if (std::memcmp(&got.error, &want.error, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "error " << got.error << " != " << want.error;
    }
    return ::testing::AssertionSuccess();
}

/** The unitary of an {H, T} word given in application order. */
Su2
wordUnitary(const std::string &word)
{
    Su2 m = Su2::identity();
    for (char g : word)
        m = (g == 'H' ? Su2::hGate() : Su2::tGate()) * m;
    return m;
}

TEST(Su2, IdentityDistanceZero)
{
    EXPECT_DOUBLE_EQ(Su2::identity().distTo(Su2::identity()), 0.0);
}

TEST(Su2, GlobalPhaseInvariance)
{
    // Z = e^{i pi/2} diag(e^{-i pi/2}, e^{i pi/2}); phase() differs
    // from the traceless convention by a global phase only.
    const Su2 z1 = Su2::zGate();
    const Su2 z2(-1.0, 0.0, 0.0, 1.0);
    EXPECT_NEAR(z1.distTo(z2), 0.0, 1e-12);
}

TEST(Su2, HIsInvolution)
{
    const Su2 h2 = Su2::hGate() * Su2::hGate();
    EXPECT_NEAR(h2.distTo(Su2::identity()), 0.0, 1e-12);
}

TEST(Su2, TSquaredIsS)
{
    const Su2 t2 = Su2::tGate() * Su2::tGate();
    EXPECT_NEAR(t2.distTo(Su2::sGate()), 0.0, 1e-12);
}

TEST(Su2, SSquaredIsZ)
{
    const Su2 s2 = Su2::sGate() * Su2::sGate();
    EXPECT_NEAR(s2.distTo(Su2::zGate()), 0.0, 1e-12);
}

TEST(Su2, TdgIsInverseOfT)
{
    const Su2 prod = Su2::tGate() * Su2::tdgGate();
    EXPECT_NEAR(prod.distTo(Su2::identity()), 0.0, 1e-12);
}

TEST(Su2, DaggerInverts)
{
    const Su2 u = Su2::hGate() * Su2::tGate() * Su2::hGate();
    EXPECT_NEAR((u.dagger() * u).distTo(Su2::identity()), 0.0, 1e-12);
}

TEST(Su2, SpecializedProductsEqualOperatorStar)
{
    for (const char *word : {"", "T", "HTTTHT", "THTHTTTTTHTTHTTTTTTT"}) {
        const Su2 m = wordUnitary(word);
        const Su2 t = m.thenT();
        const Su2 h = m.thenH();
        const Su2 tRef = Su2::tGate() * m;
        const Su2 hRef = Su2::hGate() * m;
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c) {
                // == on doubles: bitwise equal, but for a zero's sign.
                EXPECT_TRUE(t.at(r, c) == tRef.at(r, c)) << word;
                EXPECT_TRUE(h.at(r, c) == hRef.at(r, c)) << word;
            }
        }
    }
}

TEST(Su2, RotZMatchesPhase)
{
    EXPECT_NEAR(Su2::rotZ(2).distTo(Su2::tGate()), 0.0, 1e-12);
    EXPECT_NEAR(Su2::rotZ(1).distTo(Su2::sGate()), 0.0, 1e-12);
    EXPECT_NEAR(Su2::rotZ(0).distTo(Su2::zGate()), 0.0, 1e-12);
    EXPECT_NEAR(Su2::rotZ(-2).distTo(Su2::tdgGate()), 0.0, 1e-12);
}

TEST(Su2, DistanceScalesWithAngle)
{
    // |tr(I . rotZ(theta))| = |1 + e^{i theta}| = 2 cos(theta/2),
    // so dist(I, rotZ(k)) = sqrt(1 - cos(pi / 2^{k+1})).
    for (int k = 3; k <= 8; ++k) {
        const double expected = std::sqrt(
            1.0 - std::cos(M_PI / std::ldexp(2.0, k)));
        EXPECT_NEAR(Su2::identity().distTo(Su2::rotZ(k)), expected,
                    1e-12)
            << "k=" << k;
    }
}

class FowlerTest : public ::testing::Test
{
  protected:
    FowlerSynth synth_{FowlerSynth::Options{5, 1e-3}};
};

TEST_F(FowlerTest, ExactCliffordCases)
{
    EXPECT_TRUE(synth_.rotZ(0).exact());
    EXPECT_TRUE(synth_.rotZ(1).exact());
    EXPECT_TRUE(synth_.rotZ(2).exact());
    EXPECT_EQ(synth_.rotZ(2).gates.size(), 1u);
    EXPECT_EQ(synth_.rotZ(2).gates[0], GateKind::T);
    EXPECT_EQ(synth_.rotZ(-1).gates[0], GateKind::Sdg);
}

TEST_F(FowlerTest, WordUnitaryMatchesReportedError)
{
    for (int k = 3; k <= 6; ++k) {
        const ApproxSequence &seq = synth_.rotZ(k);
        const double actual = seq.unitary().distTo(Su2::rotZ(k));
        EXPECT_NEAR(actual, seq.error, 1e-9) << "k=" << k;
    }
}

TEST_F(FowlerTest, InvertedWordImplementsInverse)
{
    const ApproxSequence &fwd = synth_.rotZ(4);
    const ApproxSequence inv = fwd.inverted();
    const Su2 prod = inv.unitary() * fwd.unitary();
    // word * inverse-word is exactly identity (word-level inverse).
    EXPECT_NEAR(prod.distTo(Su2::identity()), 0.0, 1e-9);
}

TEST_F(FowlerTest, NegativeKUsesInvertedCachedWord)
{
    const ApproxSequence &neg = synth_.rotZ(-4);
    const double err = neg.unitary().distTo(Su2::rotZ(-4));
    EXPECT_NEAR(err, neg.error, 1e-9);
}

TEST_F(FowlerTest, TinyRotationsApproximatedByShortWords)
{
    // For k >= 11 the identity is already within 1e-3 of the target,
    // so the search must return a word no worse than that.
    const ApproxSequence &seq = synth_.rotZ(12);
    EXPECT_LE(seq.error, 1e-3);
    EXPECT_LE(seq.size(), 2);
}

TEST_F(FowlerTest, ErrorImprovesOrMatchesTrivialWord)
{
    // The search must never be worse than the empty word.
    for (int k = 3; k <= 10; ++k) {
        const double trivial =
            Su2::identity().distTo(Su2::rotZ(k));
        EXPECT_LE(synth_.rotZ(k).error, trivial + 1e-12)
            << "k=" << k;
    }
}

TEST_F(FowlerTest, DeeperSearchIsNoWorse)
{
    FowlerSynth shallow(FowlerSynth::Options{3, 1e-3});
    FowlerSynth deep(FowlerSynth::Options{6, 1e-3});
    for (int k = 3; k <= 5; ++k) {
        EXPECT_LE(deep.rotZ(k).error, shallow.rotZ(k).error + 1e-12)
            << "k=" << k;
    }
}

TEST_F(FowlerTest, TCountCountsOnlyTGates)
{
    ApproxSequence seq;
    seq.gates = {GateKind::H, GateKind::T, GateKind::S, GateKind::Tdg,
                 GateKind::Z};
    EXPECT_EQ(seq.tCount(), 2);
    EXPECT_EQ(seq.size(), 5);
}

TEST_F(FowlerTest, CacheReturnsSameObject)
{
    const ApproxSequence &a = synth_.rotZ(5);
    const ApproxSequence &b = synth_.rotZ(5);
    EXPECT_EQ(&a, &b);
}

TEST(FowlerSearch, ExactTargetsFoundInSearchSpace)
{
    // H T H is in the space; searching for it must give error ~0 and
    // a short word.
    FowlerSynth synth(FowlerSynth::Options{3, 1e-6});
    const Su2 target =
        Su2::hGate() * Su2::tGate() * Su2::hGate();
    const ApproxSequence seq = synth.search(target);
    EXPECT_NEAR(seq.error, 0.0, 1e-9);
    EXPECT_LE(seq.size(), 3);
}

TEST(FowlerSearch, SGateFoundAsSingleGate)
{
    FowlerSynth synth(FowlerSynth::Options{2, 1e-6});
    const ApproxSequence seq = synth.search(Su2::sGate());
    EXPECT_NEAR(seq.error, 0.0, 1e-9);
    EXPECT_EQ(seq.size(), 1);
    EXPECT_EQ(seq.gates[0], GateKind::S);
}

TEST(FowlerDeath, RejectsBadOptions)
{
    EXPECT_THROW(FowlerSynth(FowlerSynth::Options{0, 1e-3}),
                 std::invalid_argument);
    EXPECT_THROW(FowlerSynth(FowlerSynth::Options{10, 1e-3}),
                 std::invalid_argument);
    EXPECT_THROW(
        FowlerSynth(FowlerSynth::Options{3, 1e-3, true, 1000000001}),
        std::invalid_argument);
    EXPECT_THROW(
        FowlerSynth(FowlerSynth::Options{3, 1e-3, false, -1000001}),
        std::invalid_argument);
    EXPECT_NO_THROW(
        FowlerSynth(FowlerSynth::Options{3, 1e-3, true, -1000000}));
}

std::vector<Su2>
equivalenceTargets()
{
    std::vector<Su2> targets;
    for (int k = 3; k <= 12; ++k) {
        targets.push_back(Su2::rotZ(k));
        targets.push_back(Su2::rotZ(-k));
    }
    targets.push_back(Su2::hGate() * Su2::tGate() * Su2::hGate());
    targets.push_back(Su2::phase(0.3));
    // At two syllables, compressed alphabet and T weight 1, no word
    // comes within 5e-2 of this target, and the empty word lies 2-3%
    // above the best error: just outside the fallback band, so this
    // target pins the band's width.
    targets.push_back(Su2::phase(0.397));
    return targets;
}

TEST(FowlerEquivalence, OnePassMatchesTwoPassReference)
{
    const std::vector<Su2> targets = equivalenceTargets();
    for (int syllables = 1; syllables <= 4; ++syllables) {
        for (bool pure : {false, true}) {
            for (int weight : {0, 1, 3}) {
                for (double max_error : {1e-3, 5e-2, 0.2}) {
                    const FowlerSynth::Options opts{syllables, max_error,
                                                    pure, weight};
                    const std::vector<ApproxSequence> got =
                        FowlerSynth(opts).search(targets);
                    ASSERT_EQ(got.size(), targets.size());
                    for (std::size_t i = 0; i < targets.size(); ++i) {
                        EXPECT_TRUE(sameWord(
                            got[i],
                            reference::search(targets[i], opts)))
                            << "syllables=" << syllables
                            << " pureHT=" << pure << " weight=" << weight
                            << " maxError=" << max_error
                            << " target=" << i;
                    }
                }
            }
        }
    }
}

TEST(FowlerEquivalence, ShippedOptionsMatchReference)
{
    // The paper's option set (ExperimentConfig::paper and the
    // fig15/fig8/level2 specs), over every k <= lowering.maxRotK + 1.
    const FowlerSynth::Options opts{6, 1e-3, true, 3};
    FowlerSynth synth(opts);
    const std::vector<int> ks = {3, 4, 5, 6, 7, 8, 9};
    synth.prepare(ks);
    for (int k : ks) {
        EXPECT_TRUE(sameWord(synth.rotZ(k),
                             reference::search(Su2::rotZ(k), opts)))
            << "k=" << k;
    }
}

TEST(FowlerEquivalence, PrefilterKeepsTiesAtTheBound)
{
    // Targets that are words of the search space: many words reach
    // the same error, up to rounding, so a word whose squared trace
    // magnitude sits at a staircase entry's bound decides the answer.
    // A prefilter that drops words even slightly better than an
    // entry changes some of these words.
    std::vector<Su2> targets;
    for (const char *word :
         {"THT", "HTTTHT", "THTHT", "HTHTTHTTT", "TTTTTHTHTTTTTTTHTT",
          "TTHT", "HTH", "THTTTHTTTTTHTHTT"}) {
        targets.push_back(wordUnitary(word));
    }
    for (int syllables = 1; syllables <= 4; ++syllables) {
        for (bool pure : {false, true}) {
            for (int weight : {-2, 0, 3}) {
                for (double max_error : {1e-3, 0.2}) {
                    const FowlerSynth::Options opts{syllables, max_error,
                                                    pure, weight};
                    const std::vector<ApproxSequence> got =
                        FowlerSynth(opts).search(targets);
                    for (std::size_t i = 0; i < targets.size(); ++i) {
                        EXPECT_TRUE(sameWord(
                            got[i],
                            reference::search(targets[i], opts)))
                            << "syllables=" << syllables
                            << " pureHT=" << pure << " weight=" << weight
                            << " maxError=" << max_error
                            << " target=" << i;
                    }
                }
            }
        }
    }
}

TEST(FowlerEquivalence, ToleranceEqualToBestErrorIsReached)
{
    // A word whose error equals maxError exactly is within tolerance,
    // so the answer comes from maxError, not from the 2% band.
    const std::vector<Su2> targets = equivalenceTargets();
    for (int syllables = 2; syllables <= 3; ++syllables) {
        for (bool pure : {false, true}) {
            for (const Su2 &target : targets) {
                FowlerSynth::Options opts{syllables, 0.0, pure, 3};
                opts.maxError = reference::bestError(target, opts);
                EXPECT_TRUE(sameWord(FowlerSynth(opts).search(target),
                                     reference::search(target, opts)))
                    << "syllables=" << syllables << " pureHT=" << pure;
            }
        }
    }
}

TEST(FowlerEquivalence, BatchEqualsPerTargetInAnyOrder)
{
    const FowlerSynth synth(FowlerSynth::Options{4, 1e-3, false, 3});
    std::vector<Su2> targets = equivalenceTargets();
    std::vector<ApproxSequence> single;
    for (const Su2 &t : targets)
        single.push_back(synth.search(t));

    const std::vector<ApproxSequence> forward = synth.search(targets);
    std::reverse(targets.begin(), targets.end());
    const std::vector<ApproxSequence> backward = synth.search(targets);
    ASSERT_EQ(forward.size(), single.size());
    ASSERT_EQ(backward.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_TRUE(sameWord(forward[i], single[i])) << "i=" << i;
        EXPECT_TRUE(sameWord(backward[single.size() - 1 - i], single[i]))
            << "i=" << i;
    }
    EXPECT_TRUE(synth.search(std::vector<Su2>{}).empty());
}

TEST(FowlerEquivalence, PrepareFillsTheSameMemoAsRotZ)
{
    const FowlerSynth::Options opts{4, 1e-3, true, 3};
    FowlerSynth prepared(opts);
    FowlerSynth lazy(opts);
    const std::vector<int> ks = {-5, 0, 3, 9, 3, -2, 12};
    prepared.prepare(ks);
    for (int k : ks)
        EXPECT_TRUE(sameWord(prepared.rotZ(k), lazy.rotZ(k))) << "k=" << k;
}

} // namespace
} // namespace qc
