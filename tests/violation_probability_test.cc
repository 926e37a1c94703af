#include "violation/probability.h"

#include <gtest/gtest.h>

#include <string>

#include "tests/test_util.h"

namespace ppdb::violation {
namespace {

ViolationReport ReportWithViolations(int64_t n, int64_t violated) {
  ViolationReport report;
  for (int64_t i = 1; i <= n; ++i) {
    ProviderViolation pv;
    pv.provider = i;
    pv.violated = i <= violated;
    if (pv.violated) {
      pv.total_severity = 1.0;
      ++report.num_violated;
      report.total_severity += 1.0;
    }
    report.providers.push_back(pv);
  }
  return report;
}

TEST(EstimateViolationProbabilityTest, MatchesCensusInTheLimit) {
  ViolationReport report = ReportWithViolations(1000, 250);
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(TrialEstimate estimate,
                       EstimateViolationProbability(report, 100000, rng));
  EXPECT_DOUBLE_EQ(estimate.census, 0.25);
  EXPECT_NEAR(estimate.estimate, 0.25, 0.01);
  EXPECT_EQ(estimate.trials, 100000);
  EXPECT_EQ(estimate.hits,
            static_cast<int64_t>(estimate.estimate * 100000 + 0.5));
}

TEST(EstimateViolationProbabilityTest, ErrorShrinksWithMoreTrials) {
  ViolationReport report = ReportWithViolations(500, 100);
  // Average over several seeds so the comparison is stable.
  double small_err = 0, large_err = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng_small(seed);
    Rng rng_large(seed + 100);
    small_err +=
        EstimateViolationProbability(report, 100, rng_small)->AbsoluteError();
    large_err += EstimateViolationProbability(report, 100000, rng_large)
                     ->AbsoluteError();
  }
  EXPECT_LT(large_err, small_err);
}

TEST(EstimateViolationProbabilityTest, DeterministicInSeed) {
  ViolationReport report = ReportWithViolations(100, 30);
  Rng a(5), b(5);
  ASSERT_OK_AND_ASSIGN(TrialEstimate ea,
                       EstimateViolationProbability(report, 1000, a));
  ASSERT_OK_AND_ASSIGN(TrialEstimate eb,
                       EstimateViolationProbability(report, 1000, b));
  EXPECT_EQ(ea.hits, eb.hits);
}

TEST(EstimateViolationProbabilityTest, RejectsBadInput) {
  ViolationReport empty;
  Rng rng(1);
  EXPECT_TRUE(EstimateViolationProbability(empty, 100, rng)
                  .status()
                  .IsFailedPrecondition());
  ViolationReport report = ReportWithViolations(10, 5);
  EXPECT_TRUE(EstimateViolationProbability(report, 0, rng)
                  .status()
                  .IsInvalidArgument());
}

TEST(EstimateDefaultProbabilityTest, AllAndNoneExtremes) {
  DefaultReport all;
  DefaultReport none;
  for (int64_t i = 1; i <= 10; ++i) {
    all.providers.push_back(ProviderDefault{i, 5, 1, true});
    ++all.num_defaulted;
    none.providers.push_back(ProviderDefault{i, 0, 1, false});
  }
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(TrialEstimate e_all,
                       EstimateDefaultProbability(all, 1000, rng));
  EXPECT_DOUBLE_EQ(e_all.estimate, 1.0);
  ASSERT_OK_AND_ASSIGN(TrialEstimate e_none,
                       EstimateDefaultProbability(none, 1000, rng));
  EXPECT_DOUBLE_EQ(e_none.estimate, 0.0);
}

TEST(CertifyAlphaPpdbTest, CertifiesWhenUnderThreshold) {
  ViolationReport report = ReportWithViolations(1000, 40);  // P(W) = 0.04.
  ASSERT_OK_AND_ASSIGN(AlphaCertification cert,
                       CertifyAlphaPpdb(report, 0.05));
  EXPECT_TRUE(cert.certified);
  EXPECT_DOUBLE_EQ(cert.p_violation, 0.04);
  EXPECT_EQ(cert.num_providers, 1000);
  EXPECT_EQ(cert.num_violated, 40);
  EXPECT_TRUE(cert.interval.Contains(0.04));
}

TEST(CertifyAlphaPpdbTest, BoundaryIsInclusive) {
  // Def. 3: P(W) <= alpha, inclusive.
  ViolationReport report = ReportWithViolations(100, 5);
  ASSERT_OK_AND_ASSIGN(AlphaCertification cert,
                       CertifyAlphaPpdb(report, 0.05));
  EXPECT_TRUE(cert.certified);
}

TEST(CertifyAlphaPpdbTest, FailsWhenOverThreshold) {
  ViolationReport report = ReportWithViolations(100, 30);
  ASSERT_OK_AND_ASSIGN(AlphaCertification cert,
                       CertifyAlphaPpdb(report, 0.1));
  EXPECT_FALSE(cert.certified);
  EXPECT_FALSE(cert.certified_with_margin);
}

TEST(CertifyAlphaPpdbTest, MarginIsStricterThanPointEstimate) {
  // Just under alpha on the point estimate, but the Wilson upper bound
  // pokes above it: certified, not certified_with_margin.
  ViolationReport report = ReportWithViolations(100, 4);  // P(W) = 0.04.
  ASSERT_OK_AND_ASSIGN(AlphaCertification cert,
                       CertifyAlphaPpdb(report, 0.05));
  EXPECT_TRUE(cert.certified);
  EXPECT_FALSE(cert.certified_with_margin);
  // With a much larger population at the same rate, the margin tightens.
  ViolationReport large = ReportWithViolations(100000, 4000);
  ASSERT_OK_AND_ASSIGN(AlphaCertification big,
                       CertifyAlphaPpdb(large, 0.05));
  EXPECT_TRUE(big.certified_with_margin);
}

TEST(CertifyAlphaPpdbTest, RejectsBadArguments) {
  ViolationReport report = ReportWithViolations(10, 1);
  EXPECT_TRUE(CertifyAlphaPpdb(report, -0.1).status().IsInvalidArgument());
  EXPECT_TRUE(CertifyAlphaPpdb(report, 1.1).status().IsInvalidArgument());
  ViolationReport empty;
  EXPECT_TRUE(CertifyAlphaPpdb(empty, 0.5).status().IsFailedPrecondition());
}

// The counts overload is what the service certifies with (from the view's
// maintained counters); the report overload delegates to it. Every field
// must agree bitwise, errors included.
TEST(CertifyAlphaPpdbTest, CountsOverloadMatchesReportOverload) {
  const int64_t populations[][2] = {{1, 0},   {1, 1},     {3, 1},
                                    {7, 3},   {100, 5},   {1000, 333},
                                    {999, 1}, {20000, 0}, {20000, 20000}};
  for (const auto& [n, violated] : populations) {
    const ViolationReport report = ReportWithViolations(n, violated);
    for (double alpha : {0.0, 0.05, 1.0 / 3.0, 0.5, 1.0}) {
      for (double confidence : {0.9, 0.95, 0.99}) {
        SCOPED_TRACE(std::to_string(violated) + "/" + std::to_string(n) +
                     " alpha=" + std::to_string(alpha) +
                     " confidence=" + std::to_string(confidence));
        ASSERT_OK_AND_ASSIGN(AlphaCertification from_report,
                             CertifyAlphaPpdb(report, alpha, confidence));
        ASSERT_OK_AND_ASSIGN(
            AlphaCertification from_counts,
            CertifyAlphaPpdb(violated, n, alpha, confidence));
        EXPECT_EQ(from_counts.alpha, from_report.alpha);
        EXPECT_EQ(from_counts.p_violation, from_report.p_violation);
        EXPECT_EQ(from_counts.p_violation, report.ProbabilityOfViolation());
        EXPECT_EQ(from_counts.certified, from_report.certified);
        EXPECT_EQ(from_counts.num_providers, from_report.num_providers);
        EXPECT_EQ(from_counts.num_violated, from_report.num_violated);
        EXPECT_EQ(from_counts.interval.lo, from_report.interval.lo);
        EXPECT_EQ(from_counts.interval.hi, from_report.interval.hi);
        EXPECT_EQ(from_counts.certified_with_margin,
                  from_report.certified_with_margin);
      }
    }
  }

  const ViolationReport report = ReportWithViolations(10, 1);
  const ViolationReport empty;
  for (double bad_alpha : {-0.1, 1.1}) {
    Status by_report = CertifyAlphaPpdb(report, bad_alpha).status();
    Status by_counts = CertifyAlphaPpdb(1, 10, bad_alpha).status();
    EXPECT_TRUE(by_counts.IsInvalidArgument());
    EXPECT_EQ(by_counts.ToString(), by_report.ToString());
    // The alpha range is checked before the population.
    EXPECT_TRUE(CertifyAlphaPpdb(0, 0, bad_alpha).status().IsInvalidArgument());
    EXPECT_TRUE(CertifyAlphaPpdb(empty, bad_alpha).status().IsInvalidArgument());
  }
  Status by_report = CertifyAlphaPpdb(empty, 0.5).status();
  Status by_counts = CertifyAlphaPpdb(0, 0, 0.5).status();
  EXPECT_TRUE(by_counts.IsFailedPrecondition());
  EXPECT_EQ(by_counts.ToString(), by_report.ToString());
}

TEST(CertifyAlphaPpdbTest, ZeroAlphaRequiresZeroViolations) {
  ViolationReport clean = ReportWithViolations(100, 0);
  ASSERT_OK_AND_ASSIGN(AlphaCertification cert, CertifyAlphaPpdb(clean, 0.0));
  EXPECT_TRUE(cert.certified);
  ViolationReport dirty = ReportWithViolations(100, 1);
  ASSERT_OK_AND_ASSIGN(AlphaCertification cert2,
                       CertifyAlphaPpdb(dirty, 0.0));
  EXPECT_FALSE(cert2.certified);
}

}  // namespace
}  // namespace ppdb::violation
