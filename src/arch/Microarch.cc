#include "arch/Microarch.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/ArchModel.hh"
#include "codes/ConcatenatedCode.hh"
#include "common/Logging.hh"
#include "factory/ConcatenatedFactory.hh"
#include "sim/TokenPool.hh"

namespace qc {

IonTrapParams
MicroarchConfig::effTech() const
{
    return ConcatenatedSteane::effectiveTech(tech, codeLevel);
}

namespace {

/** Throws std::invalid_argument naming `field` unless lo <= value <= hi. */
void
requireInRange(const char *field, std::int64_t value, std::int64_t lo,
               std::int64_t hi = std::numeric_limits<std::int64_t>::max())
{
    if (value >= lo && value <= hi)
        return;
    throw std::invalid_argument(
        std::string(field) + " must be "
        + (hi == std::numeric_limits<std::int64_t>::max()
               ? ">= " + std::to_string(lo)
               : "in [" + std::to_string(lo) + ", " + std::to_string(hi)
                     + "]")
        + ", got " + std::to_string(value));
}

/**
 * The period of the dedicated serial generator; an OnDemandBankPool
 * needs a positive one, which an all-zero `tech` does not give.
 */
Time
generatorPeriod(const SimpleZeroFactory &simple)
{
    const Time period = simple.latency();
    if (period <= 0)
        throw std::invalid_argument(
            "the zero-ancilla generator's period (from the tech.*_ns "
            "latencies) must be > 0, got "
            + std::to_string(period) + " ns");
    return period;
}

} // namespace

Time
MicroarchConfig::teleportLatency() const
{
    requireInRange("teleport_ns", teleport, 0);
    if (teleport > 0)
        return teleport;
    const IonTrapParams eff = effTech();
    return eff.tprep + 2 * eff.t2q + eff.tmeas + 2 * eff.t1q;
}

namespace {

/**
 * Small LRU set of logical qubits with stable slot assignment (the
 * CQLA compute cache; slots carry the per-site generator banks).
 */
class LruCache
{
  public:
    struct Access
    {
        bool hit = false;
        bool evicted = false;
        int slot = 0;
    };

    explicit LruCache(std::size_t capacity) : capacity_(capacity)
    {
        for (std::size_t s = capacity; s > 0; --s)
            freeSlots_.push_back(static_cast<int>(s - 1));
    }

    /** Touch q (MRU); reports hit/eviction and the slot q occupies. */
    Access
    access(Qubit q)
    {
        Access out;
        auto it = std::find_if(
            order_.begin(), order_.end(),
            [q](const Entry &e) { return e.qubit == q; });
        if (it != order_.end()) {
            out.hit = true;
            out.slot = it->slot;
            const Entry entry = *it;
            order_.erase(it);
            order_.push_front(entry);
            return out;
        }
        int slot;
        if (freeSlots_.empty()) {
            out.evicted = true;
            slot = order_.back().slot;
            order_.pop_back();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        out.slot = slot;
        order_.push_front(Entry{q, slot});
        return out;
    }

  private:
    struct Entry
    {
        Qubit qubit;
        int slot;
    };

    std::size_t capacity_;
    std::deque<Entry> order_;
    std::vector<int> freeSlots_;
};

/** Ballistic two-qubit rendezvous inside a dense data region. */
Time
ballistic2q(int region_qubits, const IonTrapParams &tech)
{
    // Average column separation is a third of the region width;
    // each encoded-qubit column plus its channel is two macroblocks
    // wide. Two turns to leave and rejoin a column.
    const int moves = std::max(2, 2 * region_qubits / 3);
    return moves * tech.tmove + 2 * tech.tturn;
}

/** Hop of a fresh ancilla from a factory output port to the data. */
Time
ancillaHop(const IonTrapParams &tech)
{
    return 3 * tech.tmove + tech.tturn;
}

/**
 * Extra conversion time for a pi/8 ancilla produced from a bank
 * zero (banks produce zeroes; the conversion pipeline of Fig 5b
 * adds its stages on top).
 */
Time
pi8Extra(const EncodedOpModel &model)
{
    return model.pi8PrepLatency() - model.zeroPrepLatency();
}

// ----------------------------------------------------------------
// (G)QLA: every logical data qubit owns k dedicated serial ancilla
// generators; operands of two-qubit gates teleport to an
// interaction site and back home for their QEC step.
// ----------------------------------------------------------------

class QlaExecution : public ArchExecution
{
  public:
    QlaExecution(const DataflowGraph &graph,
                 const EncodedOpModel &model,
                 const MicroarchConfig &config, int k)
        : model_(model),
          teleport_(config.teleportLatency()),
          pi8Extra_(pi8Extra(model))
    {
        const Qubit nq = graph.circuit().numQubits();
        // The dedicated serial generator is the Fig 11 schedule at
        // the configured level's block-operation latencies, on a
        // tile whose footprint scales with the block.
        const SimpleZeroFactory simple(config.effTech());
        const Area tileScale =
            ConcatenatedSteane::tileArea(config.codeLevel);
        const Time period = generatorPeriod(simple);
        banks_.reserve(nq);
        for (Qubit q = 0; q < nq; ++q)
            banks_.emplace_back(k, period);
        result.ancillaArea =
            static_cast<Area>(nq) * k * simple.area() * tileScale;
    }

    Time
    moveOverhead(const Gate &g) override
    {
        // One operand teleports to its partner's site for a
        // two-qubit gate; the QEC step runs there with the site's
        // own generators and the return trip overlaps with the next
        // gate's transfer.
        if (g.arity() == 2) {
            result.teleports += 1;
            return teleport_;
        }
        return 0;
    }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        Time ready = now;
        const int z = model_.zeroAncillae(g);
        const int p = model_.pi8Ancillae(g);
        // Claims go to the home bank of the gate's last operand
        // (where the QEC step runs).
        auto &bank = banks_[g.ops[static_cast<std::size_t>(
            g.arity() - 1)]];
        if (z > 0)
            ready = std::max(ready, bank.claim(z, now));
        if (p > 0)
            ready = std::max(ready, bank.claim(p, now) + pi8Extra_);
        return ready;
    }

  private:
    const EncodedOpModel &model_;
    const Time teleport_;
    const Time pi8Extra_;
    std::vector<OnDemandBankPool> banks_;
};

class QlaModel : public ArchModel
{
  public:
    /**
     * "QLA" and "GQLA" are one model: the original QLA proposal is
     * the k = 1 point of its generalization, so the distinction is
     * the display name plus the generatorsPerSite the caller asks
     * for.
     */
    explicit QlaModel(std::string name) : name_(std::move(name)) {}

    std::string name() const override { return name_; }

    std::unique_ptr<ArchExecution>
    prepare(const DataflowGraph &graph, const EncodedOpModel &model,
            const MicroarchConfig &config) const override
    {
        requireInRange("generatorsPerSite", config.generatorsPerSite, 1,
                       MicroarchConfig::kMaxGeneratorsPerSite);
        return std::make_unique<QlaExecution>(
            graph, model, config, config.generatorsPerSite);
    }

  private:
    std::string name_;
};

// ----------------------------------------------------------------
// (G)CQLA: a compute cache of data qubits with k generators per
// slot; gates execute only on cached qubits, and misses incur
// teleport-in (plus a writeback teleport when a dirty qubit is
// evicted). LRU replacement, as in sim-cache.
// ----------------------------------------------------------------

class CqlaExecution : public ArchExecution
{
  public:
    CqlaExecution(const EncodedOpModel &model,
                  const MicroarchConfig &config, int k)
        : model_(model),
          teleport_(config.teleportLatency()),
          pi8Extra_(pi8Extra(model)),
          tech_(config.effTech()),
          cacheSlots_(config.cacheSlots),
          cache_(static_cast<std::size_t>(config.cacheSlots))
    {
        const SimpleZeroFactory simple(config.effTech());
        const Area tileScale =
            ConcatenatedSteane::tileArea(config.codeLevel);
        const Time period = generatorPeriod(simple);
        slotBanks_.reserve(static_cast<std::size_t>(config.cacheSlots));
        for (int s = 0; s < config.cacheSlots; ++s)
            slotBanks_.emplace_back(k, period);
        result.ancillaArea = static_cast<Area>(config.cacheSlots)
            * k * simple.area() * tileScale;
    }

    Time
    moveOverhead(const Gate &g) override
    {
        Time penalty = 0;
        const int arity = g.arity();
        for (int i = 0; i < arity; ++i) {
            ++result.cacheAccesses;
            const LruCache::Access access =
                cache_.access(g.ops[static_cast<std::size_t>(i)]);
            qecSlot_ = access.slot;
            if (!access.hit) {
                ++result.cacheMisses;
                ++result.teleports;
                penalty += teleport_; // fetch
                if (access.evicted) {
                    ++result.teleports;
                    penalty += teleport_; // dirty writeback
                }
            }
        }
        if (arity == 2)
            penalty += ballistic2q(cacheSlots_, tech_);
        return penalty;
    }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        // Fresh ancillae live outside the compute cache proper and
        // are teleported in ("even with very fast encoded ancilla
        // production, cache misses are still incurred to bring
        // ancillae to data" — Section 5.2). This delivery sets
        // CQLA's plateau.
        Time ready = now;
        const int z = model_.zeroAncillae(g);
        const int p = model_.pi8Ancillae(g);
        auto &bank =
            slotBanks_[static_cast<std::size_t>(qecSlot_)];
        if (z > 0)
            ready = std::max(ready, bank.claim(z, now) + teleport_);
        if (p > 0) {
            ready = std::max(
                ready, bank.claim(p, now) + teleport_ + pi8Extra_);
        }
        return ready;
    }

  private:
    const EncodedOpModel &model_;
    const Time teleport_;
    const Time pi8Extra_;
    const IonTrapParams tech_;
    const int cacheSlots_;
    LruCache cache_;
    std::vector<OnDemandBankPool> slotBanks_;
    // Slot hosting the most recent gate's QEC site (set by
    // moveOverhead, consumed by ancillaReady).
    int qecSlot_ = 0;
};

class CqlaModel : public ArchModel
{
  public:
    /** "CQLA" is the k = 1 point of "GCQLA"; see QlaModel. */
    explicit CqlaModel(std::string name) : name_(std::move(name)) {}

    std::string name() const override { return name_; }

    std::unique_ptr<ArchExecution>
    prepare(const DataflowGraph &graph, const EncodedOpModel &model,
            const MicroarchConfig &config) const override
    {
        (void)graph;
        requireInRange("generatorsPerSite", config.generatorsPerSite, 1,
                       MicroarchConfig::kMaxGeneratorsPerSite);
        requireInRange("cacheSlots", config.cacheSlots, 2,
                       MicroarchConfig::kMaxCacheSlots);
        return std::make_unique<CqlaExecution>(
            model, config, config.generatorsPerSite);
    }

  private:
    std::string name_;
};

// ----------------------------------------------------------------
// Fully-Multiplexed (Qalypso, Section 5.3 and Figure 16): the data
// is cut into tiles of tileSize qubits (one region when tileSize is
// 0), each a dense data-only region surrounded by its own share of
// pipelined factories. Ancillae travel a short ballistic hop from a
// factory output port to the data; data moves ballistically inside
// a tile and teleports between tiles.
// ----------------------------------------------------------------

class FmaExecution : public ArchExecution
{
  public:
    FmaExecution(const DataflowGraph &graph,
                 const EncodedOpModel &model,
                 const MicroarchConfig &config)
        : model_(model),
          tech_(config.effTech()),
          teleport_(config.teleportLatency())
    {
        const int nq = static_cast<int>(graph.circuit().numQubits());
        const int region = config.tileSize > 0 && config.tileSize < nq
            ? config.tileSize
            : std::max(nq, 1);
        tileSize_ = static_cast<Qubit>(region);
        ballistic_ = ballistic2q(region, tech_);
        const int tiles = std::max(1, (nq + region - 1) / region);

        // Area per unit delivered bandwidth and pipeline fill
        // latency for each product at the configured code level.
        // Each pi/8 ancilla also consumes one zero, hence the
        // cost_zero coupling term.
        double cost_zero, cost_pi8;
        Time zero_fill, pi8_fill;
        const auto price = [&](const auto &zeroFactory,
                               const auto &pi8Factory) {
            cost_zero =
                zeroFactory.totalArea() / zeroFactory.throughput();
            cost_pi8 =
                pi8Factory.totalArea() / pi8Factory.throughput()
                + cost_zero;
            zero_fill = zeroFactory.latency();
            pi8_fill = zeroFactory.latency() + pi8Factory.latency();
        };
        if (config.codeLevel >= 2) {
            price(Level2ZeroFactory(config.tech),
                  Level2Pi8Factory(config.tech));
        } else {
            price(ZeroFactory(config.tech), Pi8Factory(config.tech));
        }

        // Split the budget between the zero farm and the pi/8 chain
        // in proportion to the circuit's demand mix, and each farm
        // evenly between the tiles.
        std::uint64_t zero_demand = 0;
        std::uint64_t pi8_demand = 0;
        for (const Gate &g : graph.circuit().gates()) {
            zero_demand +=
                static_cast<std::uint64_t>(model.zeroAncillae(g));
            pi8_demand +=
                static_cast<std::uint64_t>(model.pi8Ancillae(g));
        }

        const double weighted =
            static_cast<double>(zero_demand) * cost_zero
            + static_cast<double>(pi8_demand) * cost_pi8;
        const double scale =
            weighted > 0 ? config.areaBudget / weighted : 0;
        const BandwidthPerMs zero_bw =
            static_cast<double>(zero_demand) * scale / tiles;
        const BandwidthPerMs pi8_bw =
            static_cast<double>(pi8_demand) * scale / tiles;
        zeros_.assign(static_cast<std::size_t>(tiles),
                      RateTokenPool(zero_bw, zero_fill));
        pi8s_.assign(static_cast<std::size_t>(tiles),
                     RateTokenPool(pi8_bw, pi8_fill));
        result.ancillaArea = config.areaBudget;
    }

    Time
    moveOverhead(const Gate &g) override
    {
        // Ballistic hops inside a tile, teleports between tiles.
        Time penalty = ancillaHop(tech_);
        if (g.arity() == 2) {
            if (tileOf(g.ops[0]) == tileOf(g.ops[1])) {
                penalty += ballistic_;
            } else {
                ++result.teleports;
                penalty += teleport_;
            }
        }
        return penalty;
    }

    Time
    ancillaReady(const Gate &g, Time now) override
    {
        // The QEC step runs in the tile of the last operand, fed by
        // that tile's factories.
        const std::size_t home = tileOf(
            g.ops[static_cast<std::size_t>(g.arity() - 1)]);
        Time ready = now;
        const int z = model_.zeroAncillae(g);
        const int p = model_.pi8Ancillae(g);
        if (z > 0)
            ready = std::max(ready, zeros_[home].claim(z));
        if (p > 0)
            ready = std::max(ready, pi8s_[home].claim(p));
        return ready;
    }

  private:
    std::size_t tileOf(Qubit q) const { return q / tileSize_; }

    const EncodedOpModel &model_;
    const IonTrapParams tech_;
    const Time teleport_;
    Qubit tileSize_ = 1;
    Time ballistic_ = 0;
    std::vector<RateTokenPool> zeros_;
    std::vector<RateTokenPool> pi8s_;
};

class FmaModel : public ArchModel
{
  public:
    std::string name() const override { return "Fully-Multiplexed"; }

    std::unique_ptr<ArchExecution>
    prepare(const DataflowGraph &graph, const EncodedOpModel &model,
            const MicroarchConfig &config) const override
    {
        // A non-positive budget would read as unbounded supply in
        // RateTokenPool, so it is refused rather than run.
        if (!(config.areaBudget > 0)) {
            std::ostringstream msg;
            msg << "areaBudget must be > 0, got " << config.areaBudget;
            throw std::invalid_argument(msg.str());
        }
        requireInRange("tileSize", config.tileSize, 0);
        return std::make_unique<FmaExecution>(graph, model, config);
    }
};

} // namespace

void
registerBuiltinArchModels(ArchRegistry &registry)
{
    registry.add("qla", std::make_shared<QlaModel>("QLA"));
    registry.add("gqla", std::make_shared<QlaModel>("GQLA"));
    registry.add("cqla", std::make_shared<CqlaModel>("CQLA"));
    registry.add("gcqla", std::make_shared<CqlaModel>("GCQLA"));
    registry.add("fma", std::make_shared<FmaModel>());
}

} // namespace qc
