/**
 * @file
 * Fowler-style exhaustive search for fault-tolerant single-qubit
 * rotation approximations (paper Section 2.5; Fowler,
 * quant-ph/0506126).
 *
 * Small-angle pi/2^k rotations have no transversal implementation on
 * the [[7,1,3]] code, so the paper approximates each one offline by
 * the minimum-cost word over the fault-tolerant gate set {H, T}
 * within an acceptable error. We enumerate canonical words of the
 * form
 *
 *     T^{a0} (H T^{a1}) (H T^{a2}) ... (H T^{as})
 *
 * with a0, as in [0,7] and interior ai in [1,7] (any {H,T} word
 * reduces to this form since H^2 = I and T^8 = I) in one depth-first
 * pass, which scores each word's unitary against every requested
 * target at once. Each step of the pass extends the unitary by one T
 * or H with a specialized product (Su2::thenT, Su2::thenH), and a
 * word is scored first by the squared magnitude of its trace against
 * the target: only a word that could still improve on the target's
 * candidates of no higher cost pays for the exact distance. T-powers
 * are re-expressed over {T, S, Z, Sdg, Tdg} so the emitted sequence
 * consumes the minimum number of pi/8 ancillae.
 */

#ifndef QC_SYNTH_FOWLER_HH
#define QC_SYNTH_FOWLER_HH

#include <map>
#include <span>
#include <vector>

#include "circuit/Gate.hh"
#include "synth/Su2.hh"

namespace qc {

/** A fault-tolerant gate word approximating a target unitary. */
struct ApproxSequence
{
    /** Gates in application order (H, T, Tdg, S, Sdg, Z only). */
    std::vector<GateKind> gates;

    /** Phase-invariant distance to the target (0 = exact). */
    double error = 0.0;

    /** Total gate count. */
    int size() const { return static_cast<int>(gates.size()); }

    /** Number of pi/8-ancilla-consuming gates (T and Tdg). */
    int tCount() const;

    /** True if this word implements the target exactly. */
    bool exact() const { return error == 0.0; }

    /** The unitary this word implements. */
    Su2 unitary() const;

    /** The inverse word (reversed, each gate inverted). */
    ApproxSequence inverted() const;
};

/**
 * Cached exhaustive {H, T} search for pi/2^k rotation words.
 */
class FowlerSynth
{
  public:
    struct Options
    {
        /**
         * Maximum number of H-separated syllables to search, in
         * [1, 9]. Node count grows as ~8 * 7^maxSyllables: one pass
         * at 6 takes about 0.015 s plus 0.008 s per target on an
         * x86-64 core, and each further syllable multiplies that by
         * about 7.
         */
        int maxSyllables = 6;

        /** Acceptable phase-invariant distance to the target. */
        double maxError = 1e-3;

        /**
         * Emit words over the literal {H, T} alphabet (T^a as a
         * repeated T gates) instead of compressing T powers into
         * {T, S, Z, Sdg, Tdg}. Fowler's search [14] — and therefore
         * the paper's QFT gate mix with its ~47% non-transversal
         * fraction — uses the literal alphabet; the compressed form
         * consumes fewer pi/8 ancillae and is the better
         * engineering choice, so both are supported and the
         * difference is an ablation in the bench suite.
         */
        bool pureHT = false;

        /**
         * Relative cost of a T/Tdg gate versus a Clifford in the
         * word-cost objective. T gates consume an encoded pi/8
         * ancilla (Section 2.4), so weighting them higher steers
         * the search toward Clifford-rich words of equal fidelity
         * and lowers the pi/8 bandwidth the circuit demands.
         */
        int tCostWeight = 1;
    };

    /** Search with default options. */
    FowlerSynth() : FowlerSynth(Options{}) {}

    /**
     * @throws std::invalid_argument if maxSyllables is outside
     *         [1, 9] or |tCostWeight| exceeds 1e6
     */
    explicit FowlerSynth(Options options);

    /**
     * Word for the rotation diag(1, e^{i pi/2^k}); a negative k
     * requests the inverse rotation diag(1, e^{-i pi/2^|k|}).
     *
     * k in {0, 1, 2} (and negatives) are exact Cliffords / T gates;
     * larger |k| is answered from the memo, searching on a miss.
     * The word is search(Su2::rotZ(|k|)), inverted for k < 0.
     */
    const ApproxSequence &rotZ(int k);

    /**
     * Fill the rotZ memo for every uncached |k| >= 3 in ks with one
     * search pass, so a caller that knows its angles up front pays
     * for the word enumeration once.
     */
    void prepare(std::span<const int> ks);

    /**
     * One word per target (uncached), from a single pass over the
     * word space. Per target, let best be the least error reached.
     * The threshold is maxError if best <= maxError, else the 2%
     * band best * 1.02 + 1e-15, so that the cost objective (and in
     * particular the T weight) still selects among the words of
     * essentially optimal fidelity. The answer is the lowest-cost
     * word within the threshold; equal costs go to the lower error,
     * then to the word enumerated first. Callers can inspect
     * ApproxSequence::error for the residual.
     */
    std::vector<ApproxSequence> search(std::span<const Su2> targets) const;

    /** search() for one target. */
    ApproxSequence search(const Su2 &target) const;

    const Options &options() const { return opts_; }

  private:
    Options opts_;
    std::map<int, ApproxSequence> cache_;
};

} // namespace qc

#endif // QC_SYNTH_FOWLER_HH
