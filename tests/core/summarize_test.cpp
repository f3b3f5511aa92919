#include "core/summarize.hpp"

#include <gtest/gtest.h>

#include "support/observations.hpp"

#include <sstream>

namespace bgpintent::core {
namespace {

using test_support::index_of;
using test_support::observed;

void add_observations(std::vector<bgp::RibEntry>& tuples,
                      Community community, std::size_t on, std::size_t off) {
  for (std::size_t i = 0; i < on; ++i)
    tuples.push_back(observed({static_cast<Asn>(60000 + i),
                               community.alpha(), 64496},
                              community));
  for (std::size_t i = 0; i < off; ++i)
    tuples.push_back(observed({static_cast<Asn>(61000 + i), 64496}, community));
}

struct Fixture {
  ObservationIndex index;
  InferenceResult inference;

  Fixture() {
    std::vector<bgp::RibEntry> tuples;
    add_observations(tuples, Community(100, 1000), 10, 0);  // info block
    add_observations(tuples, Community(100, 1005), 8, 0);
    add_observations(tuples, Community(100, 5000), 1, 9);   // action block
    add_observations(tuples, Community(100, 5010), 1, 7);
    add_observations(tuples, Community(100, 9000), 4, 0);   // singleton
    index = index_of(tuples);
    inference = classify(index);
  }
};

TEST(Summarize, EmitsOneEntryPerCluster) {
  Fixture f;
  const auto entries = summarize(f.index, f.inference);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].pattern.to_string(), "100:1000-1005");
  EXPECT_EQ(entries[0].intent, Intent::kInformation);
  EXPECT_EQ(entries[0].member_count, 2u);
  EXPECT_EQ(entries[0].observations, 18u);
  EXPECT_EQ(entries[1].pattern.to_string(), "100:5000-5010");
  EXPECT_EQ(entries[1].intent, Intent::kAction);
  EXPECT_EQ(entries[2].pattern.to_string(), "100:9000");
  EXPECT_EQ(entries[2].intent, Intent::kInformation);
}

TEST(Summarize, MinObservationsFilter) {
  Fixture f;
  SummaryConfig cfg;
  cfg.min_observations = 10;
  const auto entries = summarize(f.index, f.inference, cfg);
  ASSERT_EQ(entries.size(), 2u);  // the 4-observation singleton drops out
  EXPECT_EQ(entries[0].intent, Intent::kInformation);
  EXPECT_EQ(entries[1].intent, Intent::kAction);
}

TEST(Summarize, PatternsCoverTheirMembers) {
  Fixture f;
  for (const auto& entry : summarize(f.index, f.inference)) {
    for (const std::uint16_t beta :
         entry.pattern.beta_pattern().enumerate()) {
      const Community community(entry.pattern.alpha(), beta);
      // Every enumerated value inside the inferred range that was observed
      // must carry the same inferred intent.
      const auto label = f.inference.label_of(community);
      if (label != Intent::kUnclassified) {
        EXPECT_EQ(label, entry.intent);
      }
    }
  }
}

TEST(Summarize, ToDictionaryRoundTrip) {
  Fixture f;
  const auto entries = summarize(f.index, f.inference);
  const auto store = to_dictionary(entries);
  EXPECT_EQ(store.intent(Community(100, 1000)), dict::Intent::kInformation);
  EXPECT_EQ(store.intent(Community(100, 1003)), dict::Intent::kInformation);
  EXPECT_EQ(store.intent(Community(100, 5005)), dict::Intent::kAction);
  EXPECT_FALSE(store.intent(Community(100, 40000)));
}

TEST(Summarize, WriteSummaryIsLoadable) {
  Fixture f;
  const auto entries = summarize(f.index, f.inference);
  std::ostringstream out;
  write_summary(out, entries);
  dict::DictionaryStore loaded;
  std::istringstream in(out.str());
  loaded.load(in);
  EXPECT_EQ(loaded.entry_count(), entries.size());
  EXPECT_EQ(loaded.intent(Community(100, 1000)), dict::Intent::kInformation);
}

TEST(Summarize, EmptyInference) {
  const auto index = index_of({});
  const auto inference = classify(index);
  EXPECT_TRUE(summarize(index, inference).empty());
}

TEST(DiffDictionaries, AgreementAndCoverage) {
  Fixture f;
  const auto inferred = to_dictionary(summarize(f.index, f.inference));

  dict::DictionaryStore reference;
  auto& d = reference.dictionary_for(100);
  d.add(dict::CommunityPattern::compile("100:1000-1999"),
        dict::Category::kLocationCity, "");
  d.add(dict::CommunityPattern::compile("100:5000"),
        dict::Category::kLocationCity, "");  // reference calls it info
  d.add(dict::CommunityPattern::compile("100:7777"),
        dict::Category::kBlackhole, "");  // never observed

  const auto diff = diff_dictionaries(f.index, inferred, reference);
  // Observed communities: 1000, 1005 (both covered, agree), 5000 (both
  // covered, disagree), 5010 + 9000 (inferred only).
  EXPECT_EQ(diff.both_cover, 3u);
  EXPECT_EQ(diff.agree, 2u);
  EXPECT_EQ(diff.inferred_only, 2u);
  EXPECT_EQ(diff.reference_only, 0u);
  EXPECT_NEAR(diff.agreement(), 2.0 / 3.0, 1e-9);
}

TEST(DiffDictionaries, EmptyObservations) {
  const auto index = index_of({});
  const auto diff =
      diff_dictionaries(index, dict::DictionaryStore{}, dict::DictionaryStore{});
  EXPECT_EQ(diff.both_cover, 0u);
  EXPECT_DOUBLE_EQ(diff.agreement(), 0.0);
}

}  // namespace
}  // namespace bgpintent::core
