// Acceptance tests for the paper's §4.1 accuracy claims on the synthetic
// workload. These use the full default dataset (5 subjects x 5 classes x
// 10 repetitions) and the default protocol, i.e. exactly what
// bench_accuracy_sweep and bench_table1 run.
#include "emg/protocol.hpp"

#include <gtest/gtest.h>

namespace pulphd::emg {
namespace {

/// Shared dataset: generated once for the whole test binary (expensive).
const EmgDataset& dataset() {
  static const EmgDataset ds = generate_dataset(GeneratorConfig{});
  return ds;
}

TEST(ActiveSegment, ExtractsStridedMiddle) {
  hd::Trial trial(1200, hd::Sample{1.0f});
  const ProtocolConfig cfg;
  const hd::Trial segment = active_segment(trial, cfg);
  // [0.25, 5/6) of 1200 samples at stride 16 -> (1000 - 300) / 16 = 44.
  EXPECT_NEAR(static_cast<double>(segment.size()), 44.0, 1.0);
}

TEST(ActiveSegment, ValidatesConfig) {
  hd::Trial trial(100, hd::Sample{1.0f});
  ProtocolConfig cfg;
  cfg.segment_begin = 0.9;
  cfg.segment_end = 0.5;
  EXPECT_THROW((void)active_segment(trial, cfg), std::invalid_argument);
  cfg = ProtocolConfig{};
  cfg.hd_sample_stride = 0;
  EXPECT_THROW((void)active_segment(trial, cfg), std::invalid_argument);
}

TEST(ActiveSegment, FailsFastOnTrialsTooShortForTheSegment) {
  // Regression: a 1-sample trial truncates the default [0.25, 5/6) bounds to
  // the empty range [0, 0); this used to return an empty trial and surface
  // later as an unrelated "trial shorter than N-gram window" encoder error.
  const ProtocolConfig cfg;
  hd::Trial one_sample(1, hd::Sample{1.0f});
  try {
    (void)active_segment(one_sample, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty segment"), std::string::npos);
  }
  hd::Trial empty;
  EXPECT_THROW((void)active_segment(empty, cfg), std::invalid_argument);
  // The shortest trial the default bounds accept still yields samples.
  hd::Trial two_samples(2, hd::Sample{1.0f});
  EXPECT_FALSE(active_segment(two_samples, cfg).empty());
}

TEST(Accuracy, HdAtFullDimensionMatchesPaper) {
  // Table 1 / §4.1: 92.4% mean accuracy at 10,000-D.
  const AccuracyResult r = evaluate_hd(dataset(), 10000);
  EXPECT_NEAR(r.mean_accuracy, 0.924, 0.025);
  EXPECT_EQ(r.subjects.size(), 5u);
  for (const auto& s : r.subjects) {
    EXPECT_GT(s.accuracy, 0.80) << "subject " << s.subject;
  }
}

TEST(Accuracy, HdAt200DStaysNearFullDimension) {
  // §4.1: "closely maintains its accuracy when its dimensionality is
  // reduced from 10,000 to 200" — paper: 90.7% at 200-D.
  const AccuracyResult full = evaluate_hd(dataset(), 10000);
  const AccuracyResult reduced = evaluate_hd(dataset(), 200);
  EXPECT_NEAR(reduced.mean_accuracy, 0.907, 0.035);
  EXPECT_GT(reduced.mean_accuracy, full.mean_accuracy - 0.05);
}

TEST(Accuracy, HdDropsBelow200D) {
  // "beyond this point the accuracy is dropped significantly".
  const AccuracyResult at200 = evaluate_hd(dataset(), 200);
  const AccuracyResult at64 = evaluate_hd(dataset(), 64);
  EXPECT_LT(at64.mean_accuracy, at200.mean_accuracy - 0.03);
}

TEST(Accuracy, SvmMatchesPaperAndLosesToHd) {
  // Table 1: SVM 89.6% vs HD 92.4% (here at the 10,000-D operating point).
  const SvmAccuracyResult svm =
      evaluate_svm(dataset(), svm::KernelConfig{}, svm::SmoConfig{});
  EXPECT_NEAR(svm.mean_accuracy, 0.896, 0.03);
  const AccuracyResult hd = evaluate_hd(dataset(), 10000);
  EXPECT_GT(hd.mean_accuracy, svm.mean_accuracy);
}

TEST(Accuracy, SvmModelSizeVariesAcrossSubjects) {
  // §4.1: "the number of SVs varies significantly across the model of five
  // subjects" — unlike HD, whose model size is fixed by (D, N, channels).
  const SvmAccuracyResult svm =
      evaluate_svm(dataset(), svm::KernelConfig{}, svm::SmoConfig{});
  EXPECT_GT(svm.max_total_svs, svm.min_total_svs);
  EXPECT_GT(svm.mean_svs_per_machine, 10.0);  // a real kernel machine, not a stub
}

TEST(Accuracy, RestClassIsEasy) {
  const AccuracyResult r = evaluate_hd(dataset(), 10000);
  for (const auto& s : r.subjects) {
    EXPECT_GT(s.confusion.recall()[0], 0.95) << "subject " << s.subject;
  }
}

TEST(TrainHdSubject, ProducesTrainedModel) {
  const hd::HdClassifier clf = train_hd_subject(dataset(), 0, 1000);
  EXPECT_TRUE(clf.am().is_trained());
  EXPECT_EQ(clf.config().dim, 1000u);
  EXPECT_EQ(clf.config().channels, 4u);
}

TEST(TrainSvmSubject, ProducesUsableModel) {
  const svm::MulticlassSvm model =
      train_svm_subject(dataset(), 0, svm::KernelConfig{}, svm::SmoConfig{});
  EXPECT_EQ(model.classes(), kGestureCount);
  EXPECT_EQ(model.machine_count(), 10u);  // C(5,2) one-vs-one machines
  EXPECT_GT(model.total_support_vectors(), 0u);
}

}  // namespace
}  // namespace pulphd::emg
