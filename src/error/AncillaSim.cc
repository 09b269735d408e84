#include "error/AncillaSim.hh"

#include "codes/SteaneCode.hh"
#include "common/Logging.hh"

namespace qc {

namespace {

// Block base offsets within the Pauli frame.
constexpr int blockA = 0;   // output block
constexpr int blockB = 7;   // bit-correction ancilla
constexpr int blockC = 14;  // phase-correction ancilla
constexpr int catBase = 21; // cat qubits (3 or 7)

} // namespace

const char *
zeroPrepStrategyName(ZeroPrepStrategy strategy)
{
    switch (strategy) {
      case ZeroPrepStrategy::Basic:
        return "Basic 0 (no conditioning)";
      case ZeroPrepStrategy::VerifyOnly:
        return "Verify Only (Fig 4a)";
      case ZeroPrepStrategy::CorrectOnly:
        return "Correct Only (Fig 4b)";
      case ZeroPrepStrategy::VerifyAndCorrect:
        return "Verify and Correct (Fig 4c)";
    }
    return "?";
}

double
PrepEstimate::errorRate() const
{
    return trials ? static_cast<double>(failures)
                      / static_cast<double>(trials)
                  : 0.0;
}

Interval
PrepEstimate::errorInterval() const
{
    return wilsonInterval(failures, trials ? trials : 1);
}

double
PrepEstimate::discardRate() const
{
    return verifyTrials ? static_cast<double>(discards)
                            / static_cast<double>(verifyTrials)
                        : 0.0;
}

AncillaPrepSimulator::AncillaPrepSimulator(ErrorParams errors,
                                           MovementModel movement,
                                           std::uint64_t seed,
                                           CorrectionSemantics semantics)
    : errors_(errors), movement_(movement), semantics_(semantics),
      rng_(seed)
{
}

// Every stochastic fault site funnels through siteFault so an
// installed FaultOracle can own the fire decision (stratified
// importance sampling). Without an oracle the natural Bernoulli
// draw below consumes exactly the pre-seam RNG stream.
bool
AncillaPrepSimulator::siteFault(FaultClass cls, double p)
{
    if (oracle_ != nullptr)
        return oracle_->fault(rng_, cls, p);
    return rng_.bernoulli(p);
}

void
AncillaPrepSimulator::inject1(FaultClass cls, double p, int q)
{
    if (siteFault(cls, p))
        frame_.applyUniform1(rng_, q);
}

void
AncillaPrepSimulator::inject2(FaultClass cls, double p, int a, int b)
{
    if (siteFault(cls, p))
        frame_.applyUniform2(rng_, a, b);
}

void
AncillaPrepSimulator::chargeCxMovement(int a, int b)
{
    for (int i = 0; i < movement_.movesPerCx; ++i)
        inject1(FaultClass::Move, errors_.pMove, (i & 1) ? b : a);
    for (int i = 0; i < movement_.turnsPerCx; ++i)
        inject1(FaultClass::Move, errors_.pMove, (i & 1) ? b : a);
}

void
AncillaPrepSimulator::chargeMeasMovement(int q)
{
    for (int i = 0; i < movement_.movesPerMeas; ++i)
        inject1(FaultClass::Move, errors_.pMove, q);
}

void
AncillaPrepSimulator::gateH(int q)
{
    for (int i = 0; i < movement_.movesPer1q; ++i)
        inject1(FaultClass::Move, errors_.pMove, q);
    frame_.applyH(q);
    inject1(FaultClass::Gate, errors_.pGate, q);
}

void
AncillaPrepSimulator::gatePrep(int q)
{
    frame_.clearRange(q, 1);
    inject1(FaultClass::Gate, errors_.pGate, q);
}

void
AncillaPrepSimulator::gateCx(int control, int target)
{
    chargeCxMovement(control, target);
    frame_.applyCx(control, target);
    inject2(FaultClass::Gate, errors_.pGate, control, target);
}

bool
AncillaPrepSimulator::measureZFlip(int q)
{
    chargeMeasMovement(q);
    const bool flip =
        frame_.hasX(q) ^ siteFault(FaultClass::Gate, errors_.pGate);
    frame_.clearRange(q, 1); // qubit leaves the computation
    return flip;
}

bool
AncillaPrepSimulator::measureXFlip(int q)
{
    chargeMeasMovement(q);
    const bool flip =
        frame_.hasZ(q) ^ siteFault(FaultClass::Gate, errors_.pGate);
    frame_.clearRange(q, 1);
    return flip;
}

void
AncillaPrepSimulator::basicEncode(int base)
{
    for (int q = 0; q < SteaneCode::numPhysical; ++q)
        gatePrep(base + q);
    for (int seed : SteaneCode::encoderSeeds)
        gateH(base + seed);
    for (const auto &cx : SteaneCode::encoderCxs)
        gateCx(base + cx.control, base + cx.target);
}

bool
AncillaPrepSimulator::verifyBlock(int base)
{
    ++verifyAttempts_;

    // 3-qubit cat state.
    for (int i = 0; i < 3; ++i)
        gatePrep(catBase + i);
    gateH(catBase);
    gateCx(catBase, catBase + 1);
    gateCx(catBase + 1, catBase + 2);

    // Shor-style parity check of the weight-3 logical Z
    // representative (CZ orientation with X-basis cat readout; the
    // factory layout realizes the equivalent CX-conjugated form).
    int cat = catBase;
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (SteaneCode::verifyMask & (SteaneCode::Mask{1} << q)) {
            chargeCxMovement(base + q, cat);
            frame_.applyCz(base + q, cat);
            inject2(FaultClass::Gate, errors_.pGate, base + q, cat);
            ++cat;
        }
    }

    bool parity_flip = false;
    for (int i = 0; i < 3; ++i)
        parity_flip ^= measureXFlip(catBase + i);

    if (parity_flip) {
        ++verifyFailures_;
        return false;
    }
    return true;
}

void
AncillaPrepSimulator::prepareBlock(int base, bool verified)
{
    do {
        frame_.clearRange(base, SteaneCode::numPhysical);
        basicEncode(base);
    } while (verified && !verifyBlock(base));
}

bool
AncillaPrepSimulator::bitCorrect(int base_a, int base_b)
{
    ++correctionAttempts_;

    // Transversal CX data->ancilla copies the data's X errors onto
    // the ancilla; Z-basis readout of the ancilla yields the
    // syndrome (the ancilla's own codeword bits are syndromeless)
    // and its overall parity the logical-X check.
    for (int q = 0; q < SteaneCode::numPhysical; ++q)
        gateCx(base_a + q, base_b + q);

    SteaneCode::Mask measured = 0;
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (measureZFlip(base_b + q))
            measured |= SteaneCode::Mask{1} << q;
    }
    if (semantics_ == CorrectionSemantics::ApplyFix) {
        // Parity-aware fix-up: the readout word's logical parity
        // disambiguates the coset, so correlated even-parity
        // patterns get a (stabilizer-residual) multi-qubit patch
        // instead of being "completed" into a logical operator.
        const SteaneCode::Mask fix =
            SteaneCode::fixFor(SteaneCode::syndromeOf(measured),
                               SteaneCode::parity(measured));
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (fix & (SteaneCode::Mask{1} << q)) {
                frame_.flipX(base_a + q);
                inject1(FaultClass::Gate, errors_.pGate, base_a + q);
            }
        }
        return true;
    }
    if (SteaneCode::syndromeOf(measured) != 0 ||
        SteaneCode::parity(measured)) {
        ++correctionFailures_;
        return false;
    }
    return true;
}

bool
AncillaPrepSimulator::phaseCorrect(int base_a, int base_c)
{
    ++correctionAttempts_;

    // Transversal CX ancilla->data copies the data's Z errors onto
    // the ancilla; X-basis readout yields the Z syndrome.
    for (int q = 0; q < SteaneCode::numPhysical; ++q)
        gateCx(base_c + q, base_a + q);

    SteaneCode::Mask measured = 0;
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        if (measureXFlip(base_c + q))
            measured |= SteaneCode::Mask{1} << q;
    }
    if (semantics_ == CorrectionSemantics::ApplyFix) {
        // Same parity-aware decode as the bit stage (see there).
        const SteaneCode::Mask fix =
            SteaneCode::fixFor(SteaneCode::syndromeOf(measured),
                               SteaneCode::parity(measured));
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (fix & (SteaneCode::Mask{1} << q)) {
                frame_.flipZ(base_a + q);
                inject1(FaultClass::Gate, errors_.pGate, base_a + q);
            }
        }
        return true;
    }
    if (SteaneCode::syndromeOf(measured) != 0 ||
        SteaneCode::parity(measured)) {
        ++correctionFailures_;
        return false;
    }
    return true;
}

void
AncillaPrepSimulator::phaseCorrectConfirmed(int base_a, int base_c)
{
    bool have = false;
    unsigned prev_s = 0;
    bool prev_p = false;
    for (;;) {
        prepareBlock(base_c, /*verified=*/true);
        ++correctionAttempts_;

        // One Z-syndrome extraction, as in phaseCorrect.
        for (int q = 0; q < SteaneCode::numPhysical; ++q)
            gateCx(base_c + q, base_a + q);
        SteaneCode::Mask measured = 0;
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (measureXFlip(base_c + q))
                measured |= SteaneCode::Mask{1} << q;
        }
        const unsigned s = SteaneCode::syndromeOf(measured);
        const bool p = SteaneCode::parity(measured);

        if (have && s == prev_s && p == prev_p) {
            // Confirmed: apply the parity-aware minimal-weight
            // patch (one gate error per patched qubit).
            const SteaneCode::Mask fix = SteaneCode::fixFor(s, p);
            for (int q = 0; q < SteaneCode::numPhysical; ++q) {
                if (fix & (SteaneCode::Mask{1} << q)) {
                    frame_.flipZ(base_a + q);
                    inject1(FaultClass::Gate, errors_.pGate, base_a + q);
                }
            }
            return;
        }
        have = true;
        prev_s = s;
        prev_p = p;
    }
}

PrepOutcome
AncillaPrepSimulator::classify(int base) const
{
    PrepOutcome out;
    out.logicalX = SteaneCode::badCoset(static_cast<
        SteaneCode::Mask>(frame_.xBits(base, SteaneCode::numPhysical)));
    out.logicalZ = SteaneCode::badCoset(static_cast<
        SteaneCode::Mask>(frame_.zBits(base, SteaneCode::numPhysical)));
    return out;
}

PrepOutcome
AncillaPrepSimulator::simulateOnce(ZeroPrepStrategy strategy)
{
    frame_.clear();
    const std::uint64_t fails_before = verifyFailures_;
    const bool verified =
        strategy == ZeroPrepStrategy::VerifyOnly ||
        strategy == ZeroPrepStrategy::VerifyAndCorrect;
    const bool corrected =
        strategy == ZeroPrepStrategy::CorrectOnly ||
        strategy == ZeroPrepStrategy::VerifyAndCorrect;

    if (!corrected) {
        prepareBlock(blockA, verified);
    } else {
        // A detected error at either correction stage discards the
        // whole pipeline output and recycles the qubits (short-lived
        // ancillae are cheap to re-encode, Section 3). Bit
        // correction runs first, so Z junk copied onto A by block B
        // is still screened by the phase stage (Fig 2's ordering).
        // Under ApplyFix a verified pipeline must not trust a
        // single Z-syndrome extraction (the ancilla's correlated Z
        // errors are invisible to verification and would be patched
        // onto A): the phase patch requires two consecutive
        // agreeing extractions instead.
        const bool confirmed = verified
            && semantics_ == CorrectionSemantics::ApplyFix;
        for (;;) {
            frame_.clear();
            prepareBlock(blockA, verified);
            prepareBlock(blockB, verified);
            if (!bitCorrect(blockA, blockB))
                continue;
            if (confirmed) {
                phaseCorrectConfirmed(blockA, blockC);
                break;
            }
            prepareBlock(blockC, verified);
            if (!phaseCorrect(blockA, blockC))
                continue;
            break;
        }
    }
    PrepOutcome out = classify(blockA);
    out.discarded = verifyFailures_ != fails_before;
    return out;
}

PrepEstimate
AncillaPrepSimulator::estimateScalar(ZeroPrepStrategy strategy,
                                     std::uint64_t trials)
{
    PrepEstimate est;
    est.trials = trials;
    const std::uint64_t attempts_before = verifyAttempts_;
    const std::uint64_t failures_before = verifyFailures_;
    const std::uint64_t corr_attempts_before = correctionAttempts_;
    const std::uint64_t corr_failures_before = correctionFailures_;
    for (std::uint64_t i = 0; i < trials; ++i) {
        if (simulateOnce(strategy).failed())
            ++est.failures;
    }
    est.verifyTrials = verifyAttempts_ - attempts_before;
    est.discards = verifyFailures_ - failures_before;
    est.correctionTrials = correctionAttempts_ - corr_attempts_before;
    est.correctionDiscards =
        correctionFailures_ - corr_failures_before;
    return est;
}

PrepOutcome
AncillaPrepSimulator::simulatePi8Once()
{
    frame_.clear();
    const std::uint64_t fails_before = verifyFailures_;

    // High-fidelity encoded zero input (Fig 4c); ApplyFix instances
    // confirm the phase patch by repeated extraction, as in
    // simulateOnce.
    for (;;) {
        frame_.clear();
        prepareBlock(blockA, true);
        prepareBlock(blockB, true);
        if (!bitCorrect(blockA, blockB))
            continue;
        if (semantics_ == CorrectionSemantics::ApplyFix) {
            phaseCorrectConfirmed(blockA, blockC);
            break;
        }
        prepareBlock(blockC, true);
        if (!phaseCorrect(blockA, blockC))
            continue;
        break;
    }

    // 7-qubit cat state (Fig 5b): prep, H, CX chain.
    const int cat7 = blockB; // blocks B/C are free again
    for (int i = 0; i < 7; ++i)
        gatePrep(cat7 + i);
    gateH(cat7);
    for (int i = 0; i < 6; ++i)
        gateCx(cat7 + i, cat7 + i + 1);

    // Transversal controlled interaction between cat and the zero
    // block, plus the transversal pi/8 gates. T is not Clifford; we
    // conjugate the frame through it as through S (standard
    // approximation for rate estimation).
    for (int i = 0; i < 7; ++i) {
        chargeCxMovement(cat7 + i, blockA + i);
        frame_.applyCz(cat7 + i, blockA + i);
        inject2(FaultClass::Gate, errors_.pGate, cat7 + i, blockA + i);
    }
    for (int i = 0; i < 7; ++i) {
        frame_.applyS(blockA + i);
        inject1(FaultClass::Gate, errors_.pGate, blockA + i);
    }

    // Decode the cat block (reverse chain + H) and measure it.
    for (int i = 5; i >= 0; --i)
        gateCx(cat7 + i, cat7 + i + 1);
    gateH(cat7);
    bool outcome_flip = false;
    for (int i = 0; i < 7; ++i)
        outcome_flip ^= measureZFlip(cat7 + i);
    (void)outcome_flip;

    // Conditional transversal Z fix-up: applied for half of the
    // measurement outcomes; the intended gate leaves the frame
    // untouched but contributes gate errors.
    const bool fixup = oracle_ != nullptr ? oracle_->coin(rng_)
                                          : rng_.bernoulli(0.5);
    if (fixup) {
        for (int i = 0; i < 7; ++i)
            inject1(FaultClass::Gate, errors_.pGate, blockA + i);
    }

    PrepOutcome out = classify(blockA);
    out.discarded = verifyFailures_ != fails_before;
    return out;
}

PrepEstimate
AncillaPrepSimulator::estimateScalarPi8(std::uint64_t trials)
{
    PrepEstimate est;
    est.trials = trials;
    const std::uint64_t attempts_before = verifyAttempts_;
    const std::uint64_t failures_before = verifyFailures_;
    for (std::uint64_t i = 0; i < trials; ++i) {
        if (simulatePi8Once().failed())
            ++est.failures;
    }
    est.verifyTrials = verifyAttempts_ - attempts_before;
    est.discards = verifyFailures_ - failures_before;
    return est;
}

} // namespace qc
