#include "kernels/Lower.hh"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/Logging.hh"

namespace qc {

namespace {

/** Standard 15-gate Clifford+T Toffoli (Nielsen & Chuang Fig 4.9). */
void
expandToffoli(Circuit &out, Qubit a, Qubit b, Qubit t)
{
    out.h(t);
    out.cx(b, t);
    out.tdg(t);
    out.cx(a, t);
    out.t(t);
    out.cx(b, t);
    out.tdg(t);
    out.cx(a, t);
    out.t(b);
    out.t(t);
    out.h(t);
    out.cx(a, b);
    out.t(a);
    out.tdg(b);
    out.cx(a, b);
}

class LoweringPass
{
  public:
    LoweringPass(const Circuit &input, FowlerSynth &synth,
                 const LoweringOptions &options)
        : synth_(synth), opts_(options),
          out_(input.numQubits(), input.name() + ".ft")
    {
        // Synthesize every rotation word the pass will emit in one
        // search pass rather than one per angle.
        std::vector<int> ks;
        for (const Gate &g : input.gates()) {
            if (g.kind == GateKind::RotZ && !elided(g.param))
                ks.push_back(g.param);
            if (g.kind == GateKind::CRotZ && g.param != 0 &&
                !elided(g.param))
                ks.push_back(halfAngle(g.param));
        }
        synth_.prepare(ks);
        for (const Gate &g : input.gates())
            lowerGate(g);
    }

    Lowered
    take()
    {
        return {std::move(out_), stats_};
    }

  private:
    bool
    elided(int k) const
    {
        return opts_.maxRotK > 0 && std::abs(k) > opts_.maxRotK;
    }

    /** Exponent of the rotations that decompose CRotZ(k), k != 0. */
    static int
    halfAngle(int k)
    {
        return k > 0 ? k + 1 : k - 1;
    }

    bool
    elideRot(int k)
    {
        if (elided(k)) {
            ++stats_.elided;
            stats_.elidedAngleSum += M_PI / std::ldexp(1.0, std::abs(k));
            return true;
        }
        return false;
    }

    void
    emitRotZ(Qubit q, int k)
    {
        ++stats_.rotations;
        const ApproxSequence &seq = synth_.rotZ(k);
        stats_.approxErrorSum += seq.error;
        if (seq.error > stats_.approxErrorMax)
            stats_.approxErrorMax = seq.error;
        for (GateKind g : seq.gates) {
            Gate gate;
            gate.kind = g;
            gate.ops = {q, invalidQubit, invalidQubit};
            out_.append(gate);
        }
    }

    void
    lowerRotZ(Qubit q, int k)
    {
        if (elideRot(k))
            return;
        emitRotZ(q, k);
    }

    void
    lowerCRotZ(Qubit control, Qubit target, int k)
    {
        ++stats_.controlledRots;
        if (elideRot(k))
            return;
        if (k == 0) {
            out_.cz(control, target);
            return;
        }
        // CPhase(theta) = P(theta/2)_c P(theta/2)_t CX
        //                 P(-theta/2)_t CX, with theta = pi/2^k.
        const int half = halfAngle(k);
        emitRotZ(control, half);
        emitRotZ(target, half);
        out_.cx(control, target);
        emitRotZ(target, -half);
        out_.cx(control, target);
    }

    void
    lowerGate(const Gate &g)
    {
        switch (g.kind) {
          case GateKind::Toffoli:
            ++stats_.toffolis;
            expandToffoli(out_, g.ops[0], g.ops[1], g.ops[2]);
            break;
          case GateKind::RotZ:
            lowerRotZ(g.ops[0], g.param);
            break;
          case GateKind::CRotZ:
            lowerCRotZ(g.ops[0], g.ops[1], g.param);
            break;
          case GateKind::PrepZ:
          case GateKind::PrepX:
          case GateKind::H:
          case GateKind::X:
          case GateKind::Y:
          case GateKind::Z:
          case GateKind::S:
          case GateKind::Sdg:
          case GateKind::T:
          case GateKind::Tdg:
          case GateKind::CX:
          case GateKind::CZ:
          case GateKind::Measure:
            out_.append(g);
            break;
          default:
            panic("lowering: unhandled gate kind ", gateName(g.kind));
        }
    }

    FowlerSynth &synth_;
    const LoweringOptions &opts_;
    Circuit out_;
    LoweringStats stats_;
};

} // namespace

Lowered
lowerToFaultTolerant(const Circuit &input, FowlerSynth &synth,
                     const LoweringOptions &options)
{
    LoweringPass pass(input, synth, options);
    return pass.take();
}

} // namespace qc
