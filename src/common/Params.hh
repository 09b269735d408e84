/**
 * @file
 * Technology parameter bundles: physical operation latencies
 * (paper Tables 1 and 4) and physical error rates (Section 2.2).
 */

#ifndef QC_COMMON_PARAMS_HH
#define QC_COMMON_PARAMS_HH

#include <stdexcept>
#include <string>

#include "Types.hh"

namespace qc {

/**
 * Physical operation latencies for a trapped-ion technology.
 *
 * Defaults reproduce Table 1 (gate/measure/prepare) and Table 4
 * (movement) of the paper. All analyses are symbolic in these
 * parameters, so alternative technologies can be modelled by
 * constructing a different instance.
 */
struct IonTrapParams
{
    /** One-qubit gate latency (t_1q). */
    Time t1q = usec(1);
    /** Two-qubit gate latency (t_2q). */
    Time t2q = usec(10);
    /** Measurement latency (t_meas). */
    Time tmeas = usec(50);
    /** Physical zero-state preparation latency (t_prep). */
    Time tprep = usec(51);
    /** Straight move across one macroblock (t_move). */
    Time tmove = usec(1);
    /** Turn through an intersection (t_turn). */
    Time tturn = usec(10);

    /** The paper's baseline technology point [9, 15, 16]. */
    static IonTrapParams
    paper()
    {
        return IonTrapParams{};
    }
};

/**
 * Independent physical error probabilities (Section 2.2).
 *
 * Every gate-type operation (1q, 2q, measure, prepare) fails with
 * probability pGate; every movement operation (straight move or turn)
 * deposits an error with probability pMove.
 */
struct ErrorParams
{
    /** Error probability per gate operation. */
    double pGate = 1e-4;
    /** Error probability per movement operation. */
    double pMove = 1e-6;

    /** The paper's baseline error point (Section 2.2). */
    static ErrorParams
    paper()
    {
        return ErrorParams{};
    }
};

/** `value`, a probability read from outside the program; throws
 *  std::invalid_argument naming `field` unless it lies in [0, 1]
 *  (NaN included). */
inline double
checkedProbability(const std::string &field, double value)
{
    if (!(value >= 0 && value <= 1))
        throw std::invalid_argument(field + " must be in [0, 1], got "
                                    + std::to_string(value));
    return value;
}

} // namespace qc

#endif // QC_COMMON_PARAMS_HH
