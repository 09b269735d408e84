#include "synth/Fowler.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "common/Logging.hh"

namespace qc {

namespace {

/**
 * Decomposition of T^a (a in [0,7]): a literal T gates, or the
 * compressed form over {T, S, Z, Sdg, Tdg}.
 */
std::vector<GateKind>
tPowerGates(int a, bool pure_ht)
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
    return pure_ht ? std::vector<GateKind>(a, GateKind::T) : table[a];
}

GateKind
inverseOf(GateKind kind)
{
    switch (kind) {
      case GateKind::T:   return GateKind::Tdg;
      case GateKind::Tdg: return GateKind::T;
      case GateKind::S:   return GateKind::Sdg;
      case GateKind::Sdg: return GateKind::S;
      case GateKind::H:   return GateKind::H;
      case GateKind::Z:   return GateKind::Z;
      case GateKind::X:   return GateKind::X;
      default:
        panic("inverseOf: unsupported gate in sequence");
    }
}

Su2
matrixOf(GateKind kind)
{
    switch (kind) {
      case GateKind::H:   return Su2::hGate();
      case GateKind::T:   return Su2::tGate();
      case GateKind::Tdg: return Su2::tdgGate();
      case GateKind::S:   return Su2::sGate();
      case GateKind::Sdg: return Su2::sdgGate();
      case GateKind::Z:   return Su2::zGate();
      case GateKind::X:   return Su2::xGate();
      default:
        panic("matrixOf: unsupported gate in sequence");
    }
}

/**
 * A word's exponents a0, a1, ..., as packed 3 bits each, a0 lowest,
 * under a marker bit that gives the length. maxSyllables <= 9 keeps
 * it within 31 bits.
 */
using PackedWord = std::uint32_t;

/** A candidate answer for one target. */
struct Step
{
    int cost;
    double err;
    /** Prefilter bound: see dominated(). */
    double dropT2;
    PackedWord word;
};

/**
 * True if offer() would drop a word of this cost whose trace
 * tr(U^dag V) has t2 = re^2 + im^2, proven without its exact distance.
 *
 * An entry's gap g = fl(1 - h), h = min(1, |tr| / 2), makes 1 - g
 * exact (Sterbenz), so every word whose computed |tr'| is at most
 * m = 2(1 - g) gets h' <= 1 - g and, each rounding step being
 * monotone, a gap' >= g and an err' >= the entry's err: offer() drops
 * it. t2 is within a few ulps of |tr'|^2, so t2 <= m^2 (1 - 1e-12)
 * implies |tr'| <= m; a t2 that underflows to 0 has |tr'| < 2^-536,
 * whose gap rounds to 1, the largest. Along the staircase err falls,
 * so dropT2 rises, and the last entry of cost <= `cost` decides.
 */
bool
dominated(const std::vector<Step> &stair, int cost, double t2)
{
    for (auto it = stair.rbegin(); it != stair.rend(); ++it) {
        if (it->cost <= cost)
            return t2 <= it->dropT2;
    }
    return false;
}

/**
 * Keep a word in a target's staircase: the words sorted by cost
 * ascending, error strictly falling, that may still be its answer.
 * A word is dropped when an entry with cost and error both no higher
 * exists, since that entry came first in DFS order, so no threshold
 * makes the word the lowest (cost, error, order) one within it.
 */
void
offer(std::vector<Step> &stair, int cost, double gap, PackedWord word)
{
    const double err = std::sqrt(gap);
    for (const Step &s : stair) {
        if (s.cost > cost)
            break;
        if (s.err <= err)
            return;
    }
    std::erase_if(stair, [&](const Step &s) {
        return s.cost >= cost && s.err >= err;
    });
    const double m = 2.0 * (1.0 - gap);
    stair.insert(std::find_if(stair.begin(), stair.end(),
                              [&](const Step &s) { return s.cost > cost; }),
                 {cost, err, m * m * (1.0 - 1e-12), word});
}

/** DFS over the word space, scoring every node against all targets. */
struct SearchCtx
{
    std::span<const Su2> targets;
    std::vector<std::vector<Step>> &stairs;
    int maxSyllables;
    /** Weighted cost of the decomposition of T^a. */
    int tCost[8] = {};

    /**
     * Score every word that appends exponent a to `prefix` at index
     * `depth`, then recurse with an "H T^a" syllable. Index 0 is the
     * leading T^{a0}, where a0 = 0 is the empty word; deeper, a = 0
     * (a trailing H) is not extended, since that would merge two H's.
     * `m` and `cost` are the unitary (later gates on left) and cost
     * of the word up to this exponent.
     */
    void
    extend(const Su2 &m, int cost, PackedWord prefix, int depth)
    {
        const int shift = 3 * depth;
        Su2 cur = m;
        for (int a = 0; a <= 7; ++a) {
            if (a > 0)
                cur = cur.thenT();
            const PackedWord word =
                prefix | static_cast<PackedWord>(a) << shift;
            const int c = cost + tCost[a];
            for (std::size_t i = 0; i < targets.size(); ++i) {
                const Su2::Cplx tr = cur.traceDagger(targets[i]);
                const double t2 =
                    tr.real() * tr.real() + tr.imag() * tr.imag();
                if (!dominated(stairs[i], c, t2)) {
                    offer(stairs[i], c, Su2::traceGap(tr),
                          word | PackedWord{1} << (shift + 3));
                }
            }
            if ((a > 0 || depth == 0) && depth < maxSyllables)
                extend(cur.thenH(), c + 1, word, depth + 1);
        }
    }
};

ApproxSequence
wordToSequence(PackedWord word, double error, bool pure_ht)
{
    ApproxSequence seq;
    seq.error = error;
    for (bool first = true; word != 1; word >>= 3, first = false) {
        if (!first)
            seq.gates.push_back(GateKind::H);
        const auto gates = tPowerGates(static_cast<int>(word & 7), pure_ht);
        seq.gates.insert(seq.gates.end(), gates.begin(), gates.end());
    }
    return seq;
}

} // namespace

int
ApproxSequence::tCount() const
{
    return static_cast<int>(
        std::count_if(gates.begin(), gates.end(), [](GateKind g) {
            return g == GateKind::T || g == GateKind::Tdg;
        }));
}

Su2
ApproxSequence::unitary() const
{
    Su2 m = Su2::identity();
    for (GateKind g : gates)
        m = matrixOf(g) * m;
    return m;
}

ApproxSequence
ApproxSequence::inverted() const
{
    ApproxSequence inv;
    inv.error = error;
    inv.gates.reserve(gates.size());
    for (auto it = gates.rbegin(); it != gates.rend(); ++it)
        inv.gates.push_back(inverseOf(*it));
    return inv;
}

FowlerSynth::FowlerSynth(Options options) : opts_(options)
{
    if (opts_.maxSyllables < 1 || opts_.maxSyllables > 9)
        throw std::invalid_argument(
            "FowlerSynth: maxSyllables must be in [1, 9]");
    // Bounds the word cost, (maxSyllables + 1) * (1 + 7 * |weight|),
    // well inside int.
    if (opts_.tCostWeight < -1000000 || opts_.tCostWeight > 1000000)
        throw std::invalid_argument(
            "FowlerSynth: tCostWeight must be in [-1e6, 1e6]");
}

std::vector<ApproxSequence>
FowlerSynth::search(std::span<const Su2> targets) const
{
    if (targets.empty())
        return {};
    std::vector<std::vector<Step>> stairs(targets.size());
    SearchCtx ctx{targets, stairs, opts_.maxSyllables};
    for (int a = 0; a <= 7; ++a) {
        const ApproxSequence power{tPowerGates(a, opts_.pureHT)};
        ctx.tCost[a] = power.size() + (opts_.tCostWeight - 1) * power.tCount();
    }
    ctx.extend(Su2::identity(), 0, 0, 0);

    std::vector<ApproxSequence> out;
    for (const std::vector<Step> &stair : stairs) {
        const double best = stair.back().err;
        const double thr = best <= opts_.maxError ? opts_.maxError
                                                  : best * 1.02 + 1e-15;
        const Step &pick = *std::find_if(
            stair.begin(), stair.end(),
            [&](const Step &s) { return s.err <= thr; });
        out.push_back(wordToSequence(pick.word, pick.err, opts_.pureHT));
    }
    return out;
}

ApproxSequence
FowlerSynth::search(const Su2 &target) const
{
    return std::move(search(std::span(&target, 1)).front());
}

void
FowlerSynth::prepare(std::span<const int> ks)
{
    std::set<int> mags;
    for (int k : ks) {
        if (std::abs(k) >= 3 && !cache_.contains(std::abs(k)))
            mags.insert(std::abs(k));
    }
    std::vector<Su2> targets;
    for (int mag : mags)
        targets.push_back(Su2::rotZ(mag));
    auto mag = mags.begin();
    for (ApproxSequence &seq : search(targets))
        cache_.emplace(*mag++, std::move(seq));
}

const ApproxSequence &
FowlerSynth::rotZ(int k)
{
    auto it = cache_.find(k);
    if (it != cache_.end())
        return it->second;

    ApproxSequence seq;
    const int mag = k < 0 ? -k : k;
    if (mag == 0) {
        seq.gates = {GateKind::Z};
    } else if (mag == 1) {
        seq.gates = {k > 0 ? GateKind::S : GateKind::Sdg};
    } else if (mag == 2) {
        seq.gates = {k > 0 ? GateKind::T : GateKind::Tdg};
    } else if (k > 0) {
        seq = search(Su2::rotZ(k));
    } else {
        seq = rotZ(mag).inverted();
    }
    return cache_.emplace(k, std::move(seq)).first->second;
}

} // namespace qc
