/**
 * @file
 * The hoard cache-key policy: which configuration fields identify a
 * result, and which are reporting-only knobs that cannot change it.
 *
 * A sweep point's result is cached under the hash of its *key
 * configuration* — the canonical config JSON with the runner's
 * reporting-only fields normalized away. Two configs that differ
 * only in reporting-only fields therefore share one stored object,
 * which is what makes results reusable across spec variants (the
 * PR 5 "reuse compatible points" open item, resolved here as a key
 * policy with its own classification-guard tests in
 * tests/test_hoard.cc: every runner field must be classified as
 * semantic or reporting-only, so adding a field without deciding
 * fails a test).
 *
 * Policy per runner:
 *
 *   experiment  drops `demandBins` (the runner stores
 *               Result::summaryJson(), which carries no demand
 *               profile, so the binning resolution cannot reach the
 *               cached bytes) and drops `calibrationTrials` when
 *               `calibrateFactories` is false/absent (the trial
 *               count is read only by the calibration pass).
 *               Everything else — including unknown fields — is
 *               semantic.
 *   (others)    identity: every field is semantic. Unknown runners
 *               get no normalization, which is always safe (worst
 *               case is a needless cache miss, never a wrong hit).
 *               This includes `experiment-full`, which stores
 *               Result::toJson(): its demand profile has
 *               `demandBins` entries, so the bin count is semantic
 *               there.
 *
 * The policy is deliberately conservative: a field is normalized
 * away only when the stored result provably cannot depend on it.
 */

#ifndef QC_HOARD_HOARD_KEY_HH
#define QC_HOARD_HOARD_KEY_HH

#include <string>
#include <vector>

#include "api/Json.hh"

namespace qc {

/**
 * The canonical cache identity of one point configuration under
 * the named runner's key policy: a copy of `config` with the
 * runner's reporting-only fields normalized away. Stored verbatim
 * in each object as `key_config`, and compared exactly on fetch so
 * a 64-bit hash collision can never serve a wrong result.
 */
Json hoardKeyConfig(const std::string &runner, const Json &config);

/** 16-hex-digit store key: hexConfigHash of the key configuration
 *  (with the runner name mixed in, so two runners whose configs
 *  happen to collide still get distinct objects). */
std::string hoardKeyHash(const std::string &runner,
                         const Json &config);

/** The dotted config fields the policy normalizes away for this
 *  runner (empty for runners with an identity policy). Exposed so
 *  the classification-guard tests enumerate the policy rather than
 *  re-stating it. */
std::vector<std::string>
hoardReportingOnlyFields(const std::string &runner);

} // namespace qc

#endif // QC_HOARD_HOARD_KEY_HH
