#include "synth/Su2.hh"

#include <cmath>

namespace qc {

Su2::Su2() : Su2(1.0, 0.0, 0.0, 1.0)
{
}

Su2::Su2(Cplx a00, Cplx a01, Cplx a10, Cplx a11)
{
    m_[0][0] = a00;
    m_[0][1] = a01;
    m_[1][0] = a10;
    m_[1][1] = a11;
}

Su2
Su2::identity()
{
    return Su2();
}

Su2
Su2::hGate()
{
    return Su2(invSqrt2, invSqrt2, invSqrt2, -invSqrt2);
}

Su2
Su2::tGate()
{
    return phase(M_PI / 4.0);
}

Su2
Su2::tdgGate()
{
    return phase(-M_PI / 4.0);
}

Su2
Su2::sGate()
{
    return phase(M_PI / 2.0);
}

Su2
Su2::sdgGate()
{
    return phase(-M_PI / 2.0);
}

Su2
Su2::zGate()
{
    return phase(M_PI);
}

Su2
Su2::xGate()
{
    return Su2(0.0, 1.0, 1.0, 0.0);
}

Su2
Su2::phase(double theta)
{
    return Su2(1.0, 0.0, 0.0, std::polar(1.0, theta));
}

Su2
Su2::rotZ(int k)
{
    const double magnitude = M_PI / std::ldexp(1.0, std::abs(k));
    return phase(k >= 0 ? magnitude : -magnitude);
}

Su2
Su2::operator*(const Su2 &rhs) const
{
    Su2 out(0.0, 0.0, 0.0, 0.0);
    for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
            out.m_[r][c] = m_[r][0] * rhs.m_[0][c]
                + m_[r][1] * rhs.m_[1][c];
        }
    }
    return out;
}

Su2
Su2::dagger() const
{
    return Su2(std::conj(m_[0][0]), std::conj(m_[1][0]),
               std::conj(m_[0][1]), std::conj(m_[1][1]));
}

double
Su2::distTo(const Su2 &other) const
{
    return std::sqrt(traceGap(traceDagger(other)));
}

double
Su2::traceGap(Cplx trace)
{
    // Clamp against tiny negative values from rounding.
    const double inner = 1.0 - std::min(1.0, std::abs(trace) / 2.0);
    return inner < 0.0 ? 0.0 : inner;
}

} // namespace qc
