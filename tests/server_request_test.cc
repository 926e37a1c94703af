#include "server/request.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "tests/test_util.h"

namespace ppdb::server {
namespace {

TEST(ParseRequestTest, SimpleCommands) {
  ASSERT_OK_AND_ASSIGN(Request ping, ParseRequest("ping"));
  EXPECT_EQ(ping.kind, RequestKind::kPing);
  EXPECT_EQ(ping.deadline.count(), 0);

  ASSERT_OK_AND_ASSIGN(Request stats, ParseRequest("stats"));
  EXPECT_EQ(stats.kind, RequestKind::kStats);

  ASSERT_OK_AND_ASSIGN(Request analyze, ParseRequest("  analyze  "));
  EXPECT_EQ(analyze.kind, RequestKind::kAnalyze);

  ASSERT_OK_AND_ASSIGN(Request save, ParseRequest("save"));
  EXPECT_EQ(save.kind, RequestKind::kSave);

  ASSERT_OK_AND_ASSIGN(Request drain, ParseRequest("drain"));
  EXPECT_EQ(drain.kind, RequestKind::kDrain);
}

TEST(ParseRequestTest, DeadlinePrefix) {
  ASSERT_OK_AND_ASSIGN(Request request, ParseRequest("@250 analyze"));
  EXPECT_EQ(request.kind, RequestKind::kAnalyze);
  EXPECT_EQ(request.deadline, std::chrono::milliseconds(250));

  ASSERT_OK_AND_ASSIGN(Request event, ParseRequest("@5 event add 7 1.5"));
  EXPECT_EQ(event.kind, RequestKind::kEventAdd);
  EXPECT_EQ(event.deadline, std::chrono::milliseconds(5));
  EXPECT_EQ(event.provider, 7);

  EXPECT_TRUE(ParseRequest("@-1 ping").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("@999999999999 ping").status().IsInvalidArgument());
  EXPECT_FALSE(ParseRequest("@abc ping").ok());
  EXPECT_TRUE(ParseRequest("@250").status().IsInvalidArgument());
}

TEST(ParseRequestTest, ArgumentValidation) {
  ASSERT_OK_AND_ASSIGN(Request certify, ParseRequest("certify 0.25"));
  EXPECT_DOUBLE_EQ(certify.alpha, 0.25);
  EXPECT_TRUE(ParseRequest("certify 1.5").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("certify").status().IsInvalidArgument());

  ASSERT_OK_AND_ASSIGN(Request estimate, ParseRequest("estimate pw 1000 42"));
  EXPECT_EQ(estimate.target, "pw");
  EXPECT_EQ(estimate.trials, 1000);
  EXPECT_EQ(estimate.seed, 42u);
  EXPECT_TRUE(ParseRequest("estimate pq 10 1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("estimate pw 0 1").status().IsInvalidArgument());

  ASSERT_OK_AND_ASSIGN(Request whatif, ParseRequest("whatif v 8 0.5"));
  EXPECT_EQ(whatif.dimension, "v");
  EXPECT_EQ(whatif.steps, 8);
  EXPECT_DOUBLE_EQ(whatif.extra_utility_per_step, 0.5);
  EXPECT_TRUE(ParseRequest("whatif v 0").status().IsInvalidArgument());

  ASSERT_OK_AND_ASSIGN(Request search, ParseRequest("search 12 2.5"));
  EXPECT_EQ(search.max_steps, 12);
  EXPECT_DOUBLE_EQ(search.value_scale, 2.5);
  ASSERT_OK_AND_ASSIGN(Request default_search, ParseRequest("search"));
  EXPECT_EQ(default_search.max_steps, 16);
}

TEST(ParseRequestTest, EventCommands) {
  ASSERT_OK_AND_ASSIGN(Request add, ParseRequest("event add 5 2.5"));
  EXPECT_EQ(add.kind, RequestKind::kEventAdd);
  EXPECT_EQ(add.provider, 5);
  EXPECT_DOUBLE_EQ(add.threshold, 2.5);

  ASSERT_OK_AND_ASSIGN(Request pref,
                       ParseRequest("event pref 5 weight ads 1 2 3"));
  EXPECT_EQ(pref.kind, RequestKind::kEventSetPref);
  EXPECT_EQ(pref.attribute, "weight");
  EXPECT_EQ(pref.purpose, "ads");
  EXPECT_EQ(pref.visibility, 1);
  EXPECT_EQ(pref.granularity, 2);
  EXPECT_EQ(pref.retention, 3);

  ASSERT_OK_AND_ASSIGN(Request unpref,
                       ParseRequest("event unpref 5 weight ads"));
  EXPECT_EQ(unpref.kind, RequestKind::kEventRemovePref);

  ASSERT_OK_AND_ASSIGN(Request threshold,
                       ParseRequest("event threshold 5 9.5"));
  EXPECT_EQ(threshold.kind, RequestKind::kEventSetThreshold);

  EXPECT_TRUE(ParseRequest("event").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("event teleport 5").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("event add 5").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequest("event pref 5 weight ads 1 2").status().IsInvalidArgument());
  // Malformed levels and invalid identifiers are rejected, not crashed on.
  EXPECT_FALSE(ParseRequest("event pref 5 weight ads x y z").ok());
  EXPECT_FALSE(ParseRequest("event pref 5 9weight ads 1 2 3").ok());
}

TEST(ParseRequestTest, QueryCommands) {
  ASSERT_OK_AND_ASSIGN(Request pw, ParseRequest("query pw"));
  EXPECT_EQ(pw.kind, RequestKind::kQuery);
  EXPECT_EQ(pw.target, "pw");

  ASSERT_OK_AND_ASSIGN(Request provider, ParseRequest("query provider 17"));
  EXPECT_EQ(provider.target, "provider");
  EXPECT_EQ(provider.provider, 17);

  EXPECT_TRUE(ParseRequest("query").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("query everything").status().IsInvalidArgument());
  EXPECT_FALSE(ParseRequest("query provider x").ok());
}

TEST(ParseRequestTest, RejectsHostileInput) {
  EXPECT_TRUE(ParseRequest("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("   \t  ").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("warp 9").status().IsInvalidArgument());

  std::string oversized(kMaxRequestLine + 1, 'a');
  EXPECT_TRUE(ParseRequest(oversized).status().IsInvalidArgument());

  std::string with_nul = "ping";
  with_nul += '\0';
  EXPECT_TRUE(
      ParseRequest(std::string_view(with_nul.data(), with_nul.size()))
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("ping\nstats").status().IsInvalidArgument());
}

TEST(RequestTest, CheapAndWriteClassification) {
  auto parse = [](std::string_view line) {
    return ParseRequest(line).value();
  };
  EXPECT_TRUE(parse("ping").IsCheap());
  EXPECT_TRUE(parse("query pw").IsCheap());
  EXPECT_TRUE(parse("event add 1 1").IsCheap());
  EXPECT_FALSE(parse("analyze").IsCheap());
  EXPECT_FALSE(parse("search").IsCheap());

  // The expansion check reads maintained O(1) counters: priority lane.
  // The drift check is a deliberate full re-analysis: normal lane.
  EXPECT_TRUE(parse("expansion-check 10 2").IsCheap());
  EXPECT_FALSE(parse("driftcheck").IsCheap());
  // Certify reads the same counters (Def. 3 needs N and the violated
  // count only): priority lane. The census scans stay on the normal lane.
  EXPECT_TRUE(parse("certify 0.5").IsCheap());
  EXPECT_FALSE(parse("whatif v 2").IsCheap());
  EXPECT_FALSE(parse("estimate pw 100 1").IsCheap());

  EXPECT_TRUE(parse("event add 1 1").IsWrite());
  EXPECT_TRUE(parse("save").IsWrite());
  EXPECT_FALSE(parse("analyze").IsWrite());
  EXPECT_FALSE(parse("query pw").IsWrite());
  EXPECT_FALSE(parse("expansion-check 10 2").IsWrite());
  EXPECT_FALSE(parse("driftcheck").IsWrite());
}

TEST(ParseRequestTest, ExpansionCheckAndDriftCheck) {
  ASSERT_OK_AND_ASSIGN(Request check,
                       ParseRequest("expansion-check 10 2.5"));
  EXPECT_EQ(check.kind, RequestKind::kExpansionCheck);
  EXPECT_DOUBLE_EQ(check.utility_per_provider, 10.0);
  EXPECT_DOUBLE_EQ(check.extra_utility, 2.5);
  // The Eq. 31 algebra divides by U: non-positive U is rejected at parse.
  EXPECT_TRUE(ParseRequest("expansion-check 0 1").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequest("expansion-check -3 1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseRequest("expansion-check 10").status().IsInvalidArgument());

  ASSERT_OK_AND_ASSIGN(Request drift, ParseRequest("driftcheck"));
  EXPECT_EQ(drift.kind, RequestKind::kDriftCheck);
  EXPECT_TRUE(ParseRequest("driftcheck now").status().IsInvalidArgument());

  EXPECT_EQ(RequestKindName(RequestKind::kExpansionCheck), "expansion_check");
  EXPECT_EQ(RequestKindName(RequestKind::kDriftCheck), "drift_check");
}

TEST(FormatResponseTest, OkAndErrorLines) {
  EXPECT_EQ(FormatResponse(3, Response{Status::OK(), "pw=0.5"}),
            "3 ok pw=0.5\n");
  EXPECT_EQ(FormatResponse(4, Response{Status::OK(), {}}), "4 ok\n");
  EXPECT_EQ(FormatResponse(9, Response{Status::Unavailable("queue full"), {}}),
            "9 error unavailable queue full\n");
}

TEST(FormatResponseTest, ScrubsControlBytesFromMessages) {
  std::string hostile = "bad\nthing\rhappened";
  hostile += '\0';
  std::string line =
      FormatResponse(1, Response{Status::InvalidArgument(hostile), {}});
  // Exactly one newline — the terminator. No smuggled extra lines.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  EXPECT_EQ(line.find('\r'), std::string::npos);
  EXPECT_EQ(line.find('\0'), std::string::npos);
}

TEST(ParseRequestTest, ObservabilityCommands) {
  auto parse = [](std::string_view line) {
    return ParseRequest(line).value();
  };
  EXPECT_EQ(parse("stats prometheus").kind, RequestKind::kMetrics);
  EXPECT_EQ(parse("metrics").kind, RequestKind::kMetrics);
  EXPECT_EQ(parse("trace").kind, RequestKind::kTrace);
  // Cheap: both bypass the broker queue even under overload.
  EXPECT_TRUE(parse("metrics").IsCheap());
  EXPECT_TRUE(parse("trace").IsCheap());
  EXPECT_FALSE(ParseRequest("stats bogus").ok());
  EXPECT_FALSE(ParseRequest("metrics now").ok());
  EXPECT_FALSE(ParseRequest("trace 3").ok());
}

TEST(FormatBlockResponseTest, FramesMultiLinePayloads) {
  EXPECT_EQ(FormatBlockResponse(5, "a 1\nb 2\n"),
            "5 ok block lines=2\na 1\nb 2\n5 end\n");
  // A missing trailing newline frames identically.
  EXPECT_EQ(FormatBlockResponse(5, "a 1\nb 2"),
            "5 ok block lines=2\na 1\nb 2\n5 end\n");
  EXPECT_EQ(FormatBlockResponse(6, ""), "6 ok block lines=0\n6 end\n");
}

TEST(FormatBlockResponseTest, ScrubsCarriageReturnsAndNuls) {
  std::string payload = "a\rb";
  payload += '\0';
  payload += "c\n";
  std::string framed = FormatBlockResponse(1, payload);
  EXPECT_EQ(framed.find('\r'), std::string::npos);
  EXPECT_EQ(framed.find('\0'), std::string::npos);
  EXPECT_EQ(framed, "1 ok block lines=1\na b c\n1 end\n");
}

TEST(RequestKindNameTest, NamesAreStable) {
  EXPECT_EQ(RequestKindName(RequestKind::kAnalyze), "analyze");
  EXPECT_EQ(RequestKindName(RequestKind::kEventSetPref), "event_pref");
  EXPECT_EQ(RequestKindName(RequestKind::kDrain), "drain");
}

}  // namespace
}  // namespace ppdb::server
