#include "hd/classifier.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kernels/backend.hpp"
#include "tests/support/encode_oracle.hpp"

namespace pulphd::hd {
namespace {

using oracle::spatial_encode;

/// Tiny 2-channel 3-class task: each class is a distinct pair of levels.
ClassifierConfig tiny_config() {
  ClassifierConfig cfg;
  cfg.dim = 2048;
  cfg.channels = 2;
  cfg.levels = 8;
  cfg.min_value = 0.0;
  cfg.max_value = 7.0;
  cfg.ngram = 1;
  cfg.classes = 3;
  cfg.seed = 1234;
  return cfg;
}

Trial class_trial(std::size_t label, float jitter, std::size_t samples = 20) {
  // Class c activates channel 0 at level 2c and channel 1 at level 7-2c.
  Trial t;
  for (std::size_t i = 0; i < samples; ++i) {
    const float a = static_cast<float>(2 * label) + jitter * ((i % 2 == 0) ? 0.4f : -0.4f);
    const float b = static_cast<float>(7 - 2 * label) - jitter * 0.3f;
    t.push_back({a, b});
  }
  return t;
}

TEST(HdClassifier, LearnsSeparableClasses) {
  HdClassifier clf(tiny_config());
  for (std::size_t c = 0; c < 3; ++c) {
    clf.train(class_trial(c, 0.3f), c);
    clf.train(class_trial(c, 0.6f), c);
  }
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(clf.predict(class_trial(c, 0.5f)).label, c);
  }
}

TEST(HdClassifier, PredictBatchMatchesPredict) {
  HdClassifier clf(tiny_config());
  for (std::size_t c = 0; c < 3; ++c) {
    clf.train(class_trial(c, 0.3f), c);
  }
  std::vector<Trial> trials;
  for (std::size_t c = 0; c < 3; ++c) trials.push_back(class_trial(c, 0.5f));
  const std::vector<AmDecision> batch = clf.predict_batch(trials);
  ASSERT_EQ(batch.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const AmDecision single = clf.predict(trials[i]);
    EXPECT_EQ(batch[i].label, single.label);
    EXPECT_EQ(batch[i].distances, single.distances);
  }
}

TEST(HdClassifier, EncodeTrialCountsNgrams) {
  ClassifierConfig cfg = tiny_config();
  cfg.ngram = 4;
  HdClassifier clf(cfg);
  EXPECT_EQ(clf.encode_trial(class_trial(0, 0.0f, 10)).size(), 7u);
  EXPECT_TRUE(clf.encode_trial(class_trial(0, 0.0f, 3)).empty());
}

TEST(HdClassifier, EncodeQuerySingleWindowIsNgramItself) {
  ClassifierConfig cfg = tiny_config();
  cfg.ngram = 5;
  HdClassifier clf(cfg);
  const Trial t = class_trial(1, 0.2f, 5);
  const auto grams = clf.encode_trial(t);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(clf.encode_query(t), grams[0]);
}

TEST(HdClassifier, EncodeQueryRejectsShortTrials) {
  ClassifierConfig cfg = tiny_config();
  cfg.ngram = 6;
  HdClassifier clf(cfg);
  EXPECT_THROW((void)clf.encode_query(class_trial(0, 0.0f, 5)), std::invalid_argument);
  EXPECT_THROW(clf.train(class_trial(0, 0.0f, 5), 0), std::invalid_argument);
}

TEST(HdClassifier, DeterministicAcrossInstances) {
  HdClassifier a(tiny_config());
  HdClassifier b(tiny_config());
  const Trial t = class_trial(2, 0.1f);
  EXPECT_EQ(a.encode_query(t), b.encode_query(t));
}

TEST(HdClassifier, SeedChangesModel) {
  ClassifierConfig cfg = tiny_config();
  HdClassifier a(cfg);
  cfg.seed = 4321;
  HdClassifier b(cfg);
  const Trial t = class_trial(0, 0.0f);
  EXPECT_NE(a.encode_query(t), b.encode_query(t));
}

TEST(HdClassifier, NgramEncodingUsesTemporalOrder) {
  ClassifierConfig cfg = tiny_config();
  cfg.ngram = 3;
  HdClassifier clf(cfg);
  Trial forward;
  forward.push_back({0.0f, 7.0f});
  forward.push_back({3.0f, 4.0f});
  forward.push_back({6.0f, 1.0f});
  Trial backward(forward.rbegin(), forward.rend());
  const Hypervector qf = clf.encode_query(forward);
  const Hypervector qb = clf.encode_query(backward);
  EXPECT_GT(qf.normalized_hamming(qb), 0.3);
}

TEST(HdClassifier, FootprintMatchesPaperEmgNumbers) {
  // §3: CIM 27 kB, IM 5 kB, AM 7 kB, spatial 2 kB, ~50 kB total with
  // buffers at D = 10,000.
  ClassifierConfig cfg;  // paper defaults
  HdClassifier clf(cfg);
  const ModelFootprint fp = clf.footprint();
  EXPECT_EQ(fp.cim_bytes, 22u * 313u * 4u);
  EXPECT_EQ(fp.im_bytes, 4u * 313u * 4u);
  EXPECT_EQ(fp.am_bytes, 5u * 313u * 4u);
  EXPECT_EQ(fp.spatial_buffer_bytes, 313u * 4u);
  EXPECT_LT(static_cast<double>(fp.total()) / 1024.0, 50.0);
  EXPECT_GT(static_cast<double>(fp.total()) / 1024.0, 38.0);
}

/// The serving benchmark's bulk model shape.
ClassifierConfig bulk_config() {
  ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 32;
  cfg.levels = 8;
  cfg.min_value = 0.0;
  cfg.max_value = 21.0;
  cfg.ngram = 3;
  cfg.classes = 4;
  return cfg;
}

TEST(HdClassifier, FootprintReportsBoundRowTableOutsideTotal) {
  // The host spatial encoder's table holds channels x levels bound rows.
  const HdClassifier paper{ClassifierConfig{}};
  const ModelFootprint fp = paper.footprint();
  EXPECT_EQ(fp.bound_table_bytes, 4u * 22u * 313u * 4u);
  EXPECT_EQ(fp.total(), fp.im_bytes + fp.cim_bytes + fp.am_bytes + fp.spatial_buffer_bytes +
                            fp.ngram_buffer_bytes);
  EXPECT_EQ(HdClassifier(bulk_config()).footprint().bound_table_bytes, 32u * 8u * 8u * 4u);
}

// A model registry moves classifiers; the move must not be able to throw.
static_assert(std::is_nothrow_move_constructible_v<HdClassifier>);

TEST(HdClassifier, CopyAndMoveKeepEncodingBitIdentical) {
  // Copies and moves carry the bound-row table with the memories it was
  // built from; the destination must encode exactly like a fresh classifier
  // and must not depend on the source staying alive.
  const ClassifierConfig cfg = bulk_config();
  Xoshiro256StarStar rng(0xc0b1);
  Trial trial(9, Sample(cfg.channels));
  for (auto& sample : trial) {
    for (auto& v : sample) v = static_cast<float>(rng.next() % 2200u) / 100.0f - 0.5f;
  }
  const HdClassifier fresh(cfg);
  const Hypervector query = fresh.encode_query(trial);
  const Hypervector spatial = spatial_encode(fresh.spatial_encoder(), trial[0]);
  const auto expect_same = [&](const HdClassifier& clf, const char* how) {
    EXPECT_EQ(clf.encode_query(trial), query) << how;
    EXPECT_EQ(spatial_encode(clf.spatial_encoder(), trial[0]), spatial) << how;
    StreamingEncoder stream = clf.make_streaming_encoder();
    stream.configure(trial.size(), trial.size());
    std::vector<Hypervector> windows;
    stream.push(trial, windows);
    EXPECT_EQ(windows, std::vector<Hypervector>{query}) << how;
    EXPECT_EQ(clf.footprint().bound_table_bytes, fresh.footprint().bound_table_bytes) << how;
  };

  std::optional<HdClassifier> source(std::in_place, cfg);
  const HdClassifier copied(*source);
  source.reset();
  expect_same(copied, "copy");

  source.emplace(cfg);
  const HdClassifier moved(std::move(*source));
  source.reset();
  expect_same(moved, "move");

  // Assignment onto a classifier of another shape replaces its table.
  HdClassifier copy_assigned{ClassifierConfig{}};
  source.emplace(cfg);
  copy_assigned = *source;
  source.reset();
  expect_same(copy_assigned, "copy-assign");

  HdClassifier move_assigned{ClassifierConfig{}};
  source.emplace(cfg);
  move_assigned = std::move(*source);
  source.reset();
  expect_same(move_assigned, "move-assign");
}

/// `count` trials of 3 to 40 samples, values across the CIM range.
std::vector<Trial> random_trials(std::size_t count, std::size_t channels, Xoshiro256StarStar& rng) {
  std::vector<Trial> trials;
  for (std::size_t t = 0; t < count; ++t) {
    Trial trial(3 + rng.next() % 38, Sample(channels));
    for (auto& sample : trial) {
      for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
    }
    trials.push_back(std::move(trial));
  }
  return trials;
}

// A query view lives in its caller's encoder: another classifier's encode
// on the same thread, through another encoder, leaves it intact.
TEST(CallerOwnedEncoder, ViewSurvivesAnotherClassifiersEncodeOnTheSameThread) {
  const HdClassifier paper{ClassifierConfig{}};
  const HdClassifier bulk(bulk_config());
  Xoshiro256StarStar rng(0xc0b2);
  const Trial t = random_trials(1, paper.config().channels, rng)[0];
  const Trial u = random_trials(1, bulk.config().channels, rng)[0];
  StreamingEncoder encoder_a = paper.make_streaming_encoder();
  StreamingEncoder encoder_b = bulk.make_streaming_encoder();
  const Hypervector& view = paper.encode_query(t, encoder_a);
  const Hypervector before = view;
  EXPECT_EQ(bulk.encode_query(u, encoder_b), bulk.encode_query(u));
  EXPECT_EQ(view, before);
  EXPECT_EQ(view, paper.encode_query(t));
}

// One encoder re-pointed between models of different D, N and channel
// count gives each model's own bits.
TEST(CallerOwnedEncoder, OneEncoderServesModelsOfEveryShape) {
  const HdClassifier paper{ClassifierConfig{}};
  const HdClassifier bulk(bulk_config());
  Xoshiro256StarStar rng(0xc0b3);
  const std::vector<Trial> paper_trials = random_trials(3, paper.config().channels, rng);
  const std::vector<Trial> bulk_trials = random_trials(3, bulk.config().channels, rng);
  StreamingEncoder encoder = paper.make_streaming_encoder();
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(paper.encode_query(paper_trials[t], encoder), paper.encode_query(paper_trials[t]));
    EXPECT_EQ(bulk.encode_query(bulk_trials[t], encoder), bulk.encode_query(bulk_trials[t]));
  }
}

// Two threads, each with its own encoder, share one classifier and give
// the serial bits.
TEST(CallerOwnedEncoder, TwoThreadsWithTheirOwnEncodersMatchTheSerialBits) {
  const HdClassifier clf(bulk_config());
  Xoshiro256StarStar rng(0xc0b4);
  const std::vector<Trial> trials = random_trials(48, clf.config().channels, rng);
  std::vector<Hypervector> serial;
  for (const Trial& trial : trials) serial.push_back(clf.encode_query(trial));
  std::vector<Hypervector> threaded(trials.size(), Hypervector(clf.config().dim));
  const auto encode_every_other = [&](std::size_t first) {
    StreamingEncoder encoder = clf.make_streaming_encoder();
    for (std::size_t t = first; t < trials.size(); t += 2) {
      threaded[t] = clf.encode_query(trials[t], encoder);
    }
  };
  std::thread even(encode_every_other, 0);
  std::thread odd(encode_every_other, 1);
  even.join();
  odd.join();
  EXPECT_EQ(threaded, serial);
}

TEST(ClassifierConfig, ValidatesEveryField) {
  ClassifierConfig cfg = tiny_config();
  cfg.dim = 4;
  EXPECT_THROW(HdClassifier{cfg}, std::invalid_argument);
  cfg = tiny_config();
  cfg.channels = 0;
  EXPECT_THROW(HdClassifier{cfg}, std::invalid_argument);
  cfg = tiny_config();
  cfg.channels = kernels::kMaxEncodeChannels;
  EXPECT_NO_THROW(cfg.validate());
  // One channel more than the spatial kernels take is a config error,
  // raised before any memory is built.
  cfg.channels = kernels::kMaxEncodeChannels + 1;
  try {
    const HdClassifier clf(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ClassifierConfig"), std::string::npos) << e.what();
  }
  cfg = tiny_config();
  cfg.levels = 1;
  EXPECT_THROW(HdClassifier{cfg}, std::invalid_argument);
  cfg = tiny_config();
  cfg.min_value = cfg.max_value;
  EXPECT_THROW(HdClassifier{cfg}, std::invalid_argument);
  cfg = tiny_config();
  cfg.ngram = 0;
  EXPECT_THROW(HdClassifier{cfg}, std::invalid_argument);
  cfg = tiny_config();
  cfg.classes = 1;
  EXPECT_THROW(HdClassifier{cfg}, std::invalid_argument);
}

TEST(HdClassifier, GracefulDegradationWithDimension) {
  // §4.1: accuracy is closely maintained from 10,000-D down to 200-D.
  // Here: a model trained at 2048-D and one at 256-D should both solve the
  // easy task, while 32-D collapses below perfect.
  std::size_t correct_high = 0;
  std::size_t correct_low = 0;
  for (const std::size_t dim : {2048ul, 256ul, 32ul}) {
    ClassifierConfig cfg = tiny_config();
    cfg.dim = dim;
    HdClassifier clf(cfg);
    for (std::size_t c = 0; c < 3; ++c) clf.train(class_trial(c, 0.3f), c);
    std::size_t correct = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      correct += clf.predict(class_trial(c, 0.5f)).label == c;
    }
    if (dim >= 256) {
      correct_high += correct;
    } else {
      correct_low += correct;
    }
  }
  EXPECT_EQ(correct_high, 6u);   // both large dims perfect
  EXPECT_LE(correct_low, 3u);    // tiny dim may degrade (no crash, no NaN)
}

}  // namespace
}  // namespace pulphd::hd
