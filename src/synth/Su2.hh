/**
 * @file
 * 2x2 unitary matrices up to global phase, used by the Fowler-style
 * gate-sequence search (Section 2.5 of the paper; Fowler,
 * quant-ph/0506126).
 */

#ifndef QC_SYNTH_SU2_HH
#define QC_SYNTH_SU2_HH

#include <complex>

namespace qc {

/**
 * A single-qubit unitary. Comparison and distance are defined up to
 * global phase, which is the physically meaningful equivalence.
 */
class Su2
{
  public:
    using Cplx = std::complex<double>;

    /** Identity. */
    Su2();

    /** From explicit entries (row major). */
    Su2(Cplx a00, Cplx a01, Cplx a10, Cplx a11);

    /** @name Generators. */
    /** @{ */
    static Su2 identity();
    static Su2 hGate();
    static Su2 tGate();
    static Su2 tdgGate();
    static Su2 sGate();
    static Su2 sdgGate();
    static Su2 zGate();
    static Su2 xGate();
    /** Z-rotation: diag(1, e^{i theta}). */
    static Su2 phase(double theta);
    /** Z-rotation by pi/2^k: diag(1, e^{i pi/2^k}). */
    static Su2 rotZ(int k);
    /** @} */

    /** Matrix product (this applied after rhs, i.e. *this * rhs). */
    Su2 operator*(const Su2 &rhs) const;

    /**
     * tGate() * *this and hGate() * *this, specialized (inline: they
     * are the rotation search's inner loop). T scales row 1 by
     * e^{i pi/4}; H takes the real-weighted row sum and difference.
     * Each entry rounds as in operator*, whose extra terms are exact
     * zeros, so only the sign of a zero may differ.
     */
    Su2 thenT() const
    {
        static const Cplx w = tGate().m_[1][1];
        return Su2(m_[0][0], m_[0][1], w * m_[1][0], w * m_[1][1]);
    }
    Su2 thenH() const
    {
        const auto half = [this](int r, int c) {
            return Cplx(invSqrt2 * m_[r][c].real(),
                        invSqrt2 * m_[r][c].imag());
        };
        return Su2(half(0, 0) + half(1, 0), half(0, 1) + half(1, 1),
                   half(0, 0) - half(1, 0), half(0, 1) - half(1, 1));
    }

    /** Conjugate transpose. */
    Su2 dagger() const;

    /**
     * Phase-invariant distance in [0, 1]:
     * d(U, V) = sqrt(1 - |tr(U^dag V)| / 2).
     * Zero iff U = e^{i phi} V.
     */
    double distTo(const Su2 &other) const;

    /** tr(U^dag V) for U = *this and V = other. */
    Cplx traceDagger(const Su2 &other) const
    {
        // Only the diagonal of U^dag V enters the trace.
        return std::conj(m_[0][0]) * other.m_[0][0]
            + std::conj(m_[1][0]) * other.m_[1][0]
            + (std::conj(m_[0][1]) * other.m_[0][1]
               + std::conj(m_[1][1]) * other.m_[1][1]);
    }

    /** 1 - min(1, |trace| / 2): distTo() squared, from traceDagger(). */
    static double traceGap(Cplx trace);

    /** Entry accessor (r, c in {0, 1}). */
    Cplx at(int r, int c) const { return m_[r][c]; }

  private:
    static constexpr double invSqrt2 = 0.70710678118654752440;

    Cplx m_[2][2];
};

} // namespace qc

#endif // QC_SYNTH_SU2_HH
