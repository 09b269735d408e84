#include "factory/FunctionalUnit.hh"

#include <initializer_list>
#include <stdexcept>

namespace qc {

namespace {

/**
 * Throws std::invalid_argument unless every unit takes time: a zero
 * latency gives a unit unbounded bandwidth, and the factories'
 * stage sizing divides by it.
 */
void
requirePositiveLatencies(
    std::initializer_list<const FunctionalUnitSpec *> units)
{
    for (const FunctionalUnitSpec *unit : units) {
        if (unit->latency <= 0)
            throw std::invalid_argument(
                "factory unit \"" + unit->name
                + "\": its latency (from the tech.*_ns latencies) "
                  "must be > 0, got "
                + std::to_string(unit->latency) + " ns");
    }
}

} // namespace

ZeroFactoryUnits::ZeroFactoryUnits(const IonTrapParams &tech,
                                   double accept_rate)
{
    // Table 5, row by row. Latencies are the paper's symbolic
    // expressions; areas and heights are the paper's layouts
    // (Fig 13b-f).
    zeroPrep = {"Zero Prep",
                tech.tprep + tech.t1q + 2 * tech.tturn + tech.tmove,
                /*stages=*/1, /*in=*/1, /*out=*/1,
                /*area=*/1, /*height=*/1};

    cxStage = {"CX Stage",
               3 * tech.t2q + 6 * tech.tturn + 5 * tech.tmove,
               /*stages=*/3, /*in=*/7, /*out=*/7,
               /*area=*/28, /*height=*/4};

    catPrep = {"Cat State Prep",
               2 * tech.t2q + 4 * tech.tturn + 2 * tech.tmove,
               /*stages=*/2, /*in=*/3, /*out=*/3,
               /*area=*/6, /*height=*/2};

    verify = {"Verification",
              tech.tmeas + tech.t2q + 2 * tech.tturn + 2 * tech.tmove,
              /*stages=*/1, /*in=*/10, /*out=*/7 * accept_rate,
              /*area=*/10, /*height=*/10};

    bpCorrect = {"B/P Correction",
                 tech.tmeas + 2 * tech.t2q + 6 * tech.tturn
                     + 8 * tech.tmove,
                 /*stages=*/1, /*in=*/21, /*out=*/7,
                 /*area=*/21, /*height=*/21};

    requirePositiveLatencies(
        {&zeroPrep, &cxStage, &catPrep, &verify, &bpCorrect});
}

Pi8FactoryUnits::Pi8FactoryUnits(const IonTrapParams &tech)
{
    // Table 7, row by row.
    catPrep7 = {"Cat State Prepare",
                7 * tech.t2q + 14 * tech.tturn + 8 * tech.tmove,
                /*stages=*/1, /*in=*/7, /*out=*/7,
                /*area=*/12, /*height=*/6};

    transversal = {"Transversal CX/CS/CZ/pi8",
                   3 * tech.t2q + 2 * tech.tturn + 3 * tech.tmove,
                   /*stages=*/1, /*in=*/14, /*out=*/14,
                   /*area=*/7, /*height=*/7};

    decode = {"Decode (plus Store)",
              7 * tech.t2q + 14 * tech.tturn + 8 * tech.tmove,
              /*stages=*/1, /*in=*/14, /*out=*/8,
              /*area=*/19, /*height=*/13};

    fixup = {"H/M/Transversal Z",
             tech.tmeas + 2 * tech.t1q + 2 * tech.tturn
                 + 2 * tech.tmove,
             /*stages=*/1, /*in=*/8, /*out=*/7,
             /*area=*/8, /*height=*/8};

    requirePositiveLatencies({&catPrep7, &transversal, &decode, &fixup});
}

} // namespace qc
