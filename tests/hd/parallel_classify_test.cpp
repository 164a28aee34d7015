// Bit-exact equivalence of the multi-threaded batch paths against their
// single-threaded counterparts: sharding over host threads must never change
// a single distance, score or label, for any batch size or thread count.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hd/associative_memory.hpp"
#include "hd/classifier.hpp"

namespace pulphd::hd {
namespace {

constexpr std::size_t kDim = 1024;
constexpr std::size_t kClasses = 5;
// 0, 1, fewer than the largest thread count, and far more than any thread
// count (also not a multiple of it, so shard sizes are uneven).
const std::vector<std::size_t> kBatchSizes{0, 1, 3, 129};
const std::vector<std::size_t> kThreadCounts{2, 3, 4, 8, 0};

AssociativeMemory trained_am() {
  AssociativeMemory am(kClasses, kDim, 0xfeedULL);
  Xoshiro256StarStar rng(31);
  for (std::size_t c = 0; c < kClasses; ++c) {
    am.train(c, Hypervector::random(kDim, rng));
    am.train(c, Hypervector::random(kDim, rng));
  }
  return am;
}

std::vector<Hypervector> random_queries(std::size_t n) {
  Xoshiro256StarStar rng(33);
  std::vector<Hypervector> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queries.push_back(Hypervector::random(kDim, rng));
  return queries;
}

void expect_same_decisions(const std::vector<AmDecision>& a,
                           const std::vector<AmDecision>& b, std::size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "query " << i << " threads=" << threads;
    EXPECT_EQ(a[i].distance, b[i].distance) << "query " << i << " threads=" << threads;
    EXPECT_EQ(a[i].distances, b[i].distances) << "query " << i << " threads=" << threads;
  }
}

TEST(ParallelClassify, AmClassifyBatchBitIdenticalAcrossThreadCounts) {
  const AssociativeMemory am = trained_am();
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<Hypervector> queries = random_queries(batch);
    const std::vector<AmDecision> serial = am.classify_batch(queries);
    for (const std::size_t threads : kThreadCounts) {
      expect_same_decisions(am.classify_batch(queries, threads), serial, threads);
    }
  }
}

TEST(ParallelClassify, AmBatchMatchesPerQueryClassify) {
  const AssociativeMemory am = trained_am();
  const std::vector<Hypervector> queries = random_queries(17);
  const std::vector<AmDecision> batch = am.classify_batch(queries, 4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const AmDecision single = am.classify(queries[i]);
    EXPECT_EQ(batch[i].label, single.label);
    EXPECT_EQ(batch[i].distances, single.distances);
  }
}

TEST(ParallelClassify, AmParallelRejectsDimensionMismatch) {
  const AssociativeMemory am = trained_am();
  std::vector<Hypervector> queries = random_queries(16);
  queries[11] = Hypervector(kDim + 1);
  EXPECT_THROW((void)am.classify_batch(queries, 4), std::invalid_argument);
}

ClassifierConfig tiny_config(std::size_t threads) {
  ClassifierConfig cfg;
  cfg.dim = kDim;
  cfg.channels = 2;
  cfg.levels = 8;
  cfg.min_value = 0.0;
  cfg.max_value = 7.0;
  cfg.classes = 3;
  cfg.seed = 77;
  cfg.threads = threads;
  return cfg;
}

Trial class_trial(std::size_t label, float jitter, std::size_t samples = 12) {
  Trial t;
  for (std::size_t i = 0; i < samples; ++i) {
    const float a = static_cast<float>(2 * label) + jitter * ((i % 2 == 0) ? 0.4f : -0.4f);
    const float b = static_cast<float>(7 - 2 * label) - jitter * 0.3f;
    t.push_back({a, b});
  }
  return t;
}

TEST(ParallelClassify, PredictBatchBitIdenticalAcrossThreadCounts) {
  HdClassifier serial_clf(tiny_config(1));
  for (std::size_t c = 0; c < 3; ++c) serial_clf.train(class_trial(c, 0.3f), c);
  for (const std::size_t batch : kBatchSizes) {
    std::vector<Trial> trials;
    for (std::size_t i = 0; i < batch; ++i) {
      trials.push_back(class_trial(i % 3, 0.1f + 0.05f * static_cast<float>(i % 7)));
    }
    const std::vector<AmDecision> serial = serial_clf.predict_batch(trials);
    for (const std::size_t threads : kThreadCounts) {
      HdClassifier clf(tiny_config(threads));
      for (std::size_t c = 0; c < 3; ++c) clf.train(class_trial(c, 0.3f), c);
      expect_same_decisions(clf.predict_batch(trials), serial, threads);
    }
  }
}

TEST(ParallelClassify, EncodeTrialsMatchesEncodeQuery) {
  HdClassifier clf(tiny_config(4));
  std::vector<Trial> trials;
  for (std::size_t i = 0; i < 11; ++i) trials.push_back(class_trial(i % 3, 0.2f));
  const std::vector<Hypervector> queries = clf.encode_trials(trials);
  ASSERT_EQ(queries.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(queries[i], clf.encode_query(trials[i]));
  }
}

TEST(ParallelClassify, EncodeTrialsPropagatesShortTrialError) {
  ClassifierConfig cfg = tiny_config(4);
  cfg.ngram = 6;
  HdClassifier clf(cfg);
  std::vector<Trial> trials(8, class_trial(0, 0.1f, 12));
  trials[5] = class_trial(0, 0.1f, 3);  // shorter than the N-gram window
  EXPECT_THROW((void)clf.encode_trials(trials), std::invalid_argument);
}

TEST(ParallelClassify, SetThreadsAdjustsConfig) {
  HdClassifier clf(tiny_config(1));
  clf.set_threads(8);
  EXPECT_EQ(clf.config().threads, 8u);
}

// TSan-friendly stress: concurrent callers hammer the same (read-only)
// trained AM through the shared pool. Any data race on the pool, the packed
// prototypes or the decision buffers is a TSan report; results must stay
// correct throughout.
TEST(ParallelClassify, ConcurrentBatchCallersStress) {
  const AssociativeMemory am = trained_am();
  const std::vector<Hypervector> queries = random_queries(37);
  const std::vector<AmDecision> expected = am.classify_batch(queries);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 10;
  std::vector<std::thread> callers;
  // char, not bool: vector<bool> packs bits, so distinct elements would not
  // be distinct memory locations and the writes below would race.
  std::vector<char> ok(kCallers, 0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::vector<AmDecision> got = am.classify_batch(queries, 4);
        for (std::size_t i = 0; i < got.size(); ++i) {
          all_match = all_match && got[i].label == expected[i].label &&
                      got[i].distances == expected[i].distances;
        }
      }
      ok[c] = all_match ? 1 : 0;
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) EXPECT_TRUE(ok[c]) << "caller " << c;
}

}  // namespace
}  // namespace pulphd::hd
