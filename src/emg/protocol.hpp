// The paper's evaluation protocol (§4.1), packaged for reuse by benches,
// examples and tests:
//
//  * per-subject models — "the model training is done per subject";
//  * train on the first 25% of each gesture's repetitions, test on the
//    entire dataset;
//  * HD: each trial's active segment is encoded sample-by-sample (strided —
//    the 4 Hz envelope is heavily oversampled at 500 Hz) and bundled into
//    one query hypervector;
//  * SVM: windowed mean features, trial label by majority vote of windows;
//  * report the mean accuracy over subjects.
#pragma once

#include <cstdint>
#include <vector>

#include "emg/dataset.hpp"
#include "hd/classifier.hpp"
#include "hd/metrics.hpp"
#include "svm/features.hpp"
#include "svm/svm.hpp"

namespace pulphd::emg {

struct ProtocolConfig {
  double train_fraction = 0.25;
  /// Active gesture segment, as fractions of the trial.
  double segment_begin = 0.25;
  double segment_end = 5.0 / 6.0;
  /// Sample stride for HD encoding (500 Hz / 16 ~= 31 Hz, still ~8x the
  /// envelope bandwidth).
  std::size_t hd_sample_stride = 16;
};

/// Active-segment, strided view of a trial used for HD encoding. Throws
/// std::invalid_argument when the segment bounds truncate the trial to an
/// empty segment (e.g. a trial far shorter than the protocol expects) —
/// failing here names the real problem instead of surfacing later as an
/// unrelated "trial shorter than N-gram window" error from the encoder.
hd::Trial active_segment(const hd::Trial& trial, const ProtocolConfig& config);

struct SubjectResult {
  std::size_t subject = 0;
  double accuracy = 0.0;
  hd::ConfusionMatrix confusion{kGestureCount};
};

struct AccuracyResult {
  std::vector<SubjectResult> subjects;
  double mean_accuracy = 0.0;
};

/// Trains one HD classifier per subject at dimensionality `dim` and
/// evaluates per-trial queries over the whole dataset. The test trials of
/// each subject are classified through HdClassifier::predict_batch.
AccuracyResult evaluate_hd(const EmgDataset& dataset, std::size_t dim,
                           const ProtocolConfig& config = {});

/// Trains and evaluates the trained HD classifier of a single subject;
/// exposed so benches can reuse the model for cycle measurements.
hd::HdClassifier train_hd_subject(const EmgDataset& dataset, std::size_t subject,
                                  std::size_t dim, const ProtocolConfig& config = {});

/// As above, but on an already-computed split — lets callers that also need
/// the test half (evaluate_hd) compute dataset.split once per subject.
hd::HdClassifier train_hd_subject(const EmgDataset& dataset, const EmgDataset::Split& split,
                                  std::size_t dim, const ProtocolConfig& config = {});

struct SvmAccuracyResult {
  std::vector<SubjectResult> subjects;
  double mean_accuracy = 0.0;
  std::size_t min_total_svs = 0;   ///< smallest per-subject model (paper: 55/machine)
  std::size_t max_total_svs = 0;
  double mean_svs_per_machine = 0.0;
};

/// Trains one one-vs-one SVM per subject and evaluates trial-level voting.
SvmAccuracyResult evaluate_svm(const EmgDataset& dataset, const svm::KernelConfig& kernel,
                               const svm::SmoConfig& smo,
                               const svm::WindowConfig& windows = {},
                               const ProtocolConfig& config = {});

/// Trains the SVM of one subject (for cycle/model-size measurements).
svm::MulticlassSvm train_svm_subject(const EmgDataset& dataset, std::size_t subject,
                                     const svm::KernelConfig& kernel,
                                     const svm::SmoConfig& smo,
                                     const svm::WindowConfig& windows = {},
                                     const ProtocolConfig& config = {});

}  // namespace pulphd::emg
