#include "emg/protocol.hpp"

#include "common/status.hpp"

namespace pulphd::emg {

hd::Trial active_segment(const hd::Trial& trial, const ProtocolConfig& config) {
  require(config.segment_begin >= 0.0 && config.segment_end <= 1.0 &&
              config.segment_begin < config.segment_end,
          "active_segment: bad segment bounds");
  require(config.hd_sample_stride >= 1, "active_segment: stride must be >= 1");
  const auto lo = static_cast<std::size_t>(config.segment_begin *
                                           static_cast<double>(trial.size()));
  const auto hi = static_cast<std::size_t>(config.segment_end *
                                           static_cast<double>(trial.size()));
  if (lo >= hi) {
    throw std::invalid_argument(
        "active_segment: trial of " + std::to_string(trial.size()) +
        " samples truncates to an empty segment [" + std::to_string(lo) + ", " +
        std::to_string(hi) + ") — trial too short for the protocol's segment bounds");
  }
  hd::Trial out;
  for (std::size_t i = lo; i < hi; i += config.hd_sample_stride) out.push_back(trial[i]);
  return out;
}

hd::HdClassifier train_hd_subject(const EmgDataset& dataset, const EmgDataset::Split& split,
                                  std::size_t dim, const ProtocolConfig& config) {
  hd::ClassifierConfig cfg;
  cfg.dim = dim;
  cfg.channels = dataset.config.channels;
  cfg.max_value = dataset.config.max_amplitude_mv;
  hd::HdClassifier clf(cfg);
  require(!split.train.empty(), "train_hd_subject: empty training split");
  for (const EmgTrial* trial : split.train) {
    clf.train(active_segment(trial->envelope, config), trial->label);
  }
  return clf;
}

hd::HdClassifier train_hd_subject(const EmgDataset& dataset, std::size_t subject,
                                  std::size_t dim, const ProtocolConfig& config) {
  return train_hd_subject(dataset, dataset.split(subject, config.train_fraction), dim,
                          config);
}

AccuracyResult evaluate_hd(const EmgDataset& dataset, std::size_t dim,
                           const ProtocolConfig& config) {
  AccuracyResult result;
  for (std::size_t s = 0; s < dataset.config.subjects; ++s) {
    // One split per subject, shared by training and testing (previously
    // computed twice), and one predict_batch over all test trials so the
    // paper-protocol evaluation runs the parallel batch encode + classify
    // path end to end.
    const EmgDataset::Split split = dataset.split(s, config.train_fraction);
    const hd::HdClassifier clf = train_hd_subject(dataset, split, dim, config);
    SubjectResult sr;
    sr.subject = s;
    std::vector<hd::Trial> segments;
    segments.reserve(split.test.size());
    for (const EmgTrial* trial : split.test) {
      segments.push_back(active_segment(trial->envelope, config));
    }
    const std::vector<hd::AmDecision> decisions = clf.predict_batch(segments);
    for (std::size_t t = 0; t < split.test.size(); ++t) {
      sr.confusion.record(split.test[t]->label, decisions[t].label);
    }
    sr.accuracy = sr.confusion.accuracy();
    result.subjects.push_back(std::move(sr));
  }
  std::vector<double> acc;
  acc.reserve(result.subjects.size());
  for (const auto& sr : result.subjects) acc.push_back(sr.accuracy);
  result.mean_accuracy = hd::mean(acc);
  return result;
}

svm::MulticlassSvm train_svm_subject(const EmgDataset& dataset, std::size_t subject,
                                     const svm::KernelConfig& kernel,
                                     const svm::SmoConfig& smo,
                                     const svm::WindowConfig& windows,
                                     const ProtocolConfig& config) {
  const EmgDataset::Split split = dataset.split(subject, config.train_fraction);
  require(!split.train.empty(), "train_svm_subject: empty training split");
  std::vector<const hd::Trial*> trials;
  std::vector<std::size_t> labels;
  for (const EmgTrial* trial : split.train) {
    trials.push_back(&trial->envelope);
    labels.push_back(trial->label);
  }
  const svm::TrainingSet set = svm::build_training_set(trials, labels, windows);
  return svm::MulticlassSvm::train(set.features, set.labels, kGestureCount, kernel, smo);
}

SvmAccuracyResult evaluate_svm(const EmgDataset& dataset, const svm::KernelConfig& kernel,
                               const svm::SmoConfig& smo, const svm::WindowConfig& windows,
                               const ProtocolConfig& config) {
  SvmAccuracyResult result;
  result.min_total_svs = ~std::size_t{0};
  double sv_per_machine_sum = 0.0;
  for (std::size_t s = 0; s < dataset.config.subjects; ++s) {
    const svm::MulticlassSvm model =
        train_svm_subject(dataset, s, kernel, smo, windows, config);
    SubjectResult sr;
    sr.subject = s;
    const EmgDataset::Split split = dataset.split(s, config.train_fraction);
    for (const EmgTrial* trial : split.test) {
      sr.confusion.record(trial->label,
                          svm::predict_trial(model, trial->envelope, windows));
    }
    sr.accuracy = sr.confusion.accuracy();
    result.subjects.push_back(std::move(sr));
    const std::size_t total = model.total_support_vectors();
    result.min_total_svs = std::min(result.min_total_svs, total);
    result.max_total_svs = std::max(result.max_total_svs, total);
    sv_per_machine_sum += static_cast<double>(total) /
                          static_cast<double>(model.machine_count());
  }
  std::vector<double> acc;
  acc.reserve(result.subjects.size());
  for (const auto& sr : result.subjects) acc.push_back(sr.accuracy);
  result.mean_accuracy = hd::mean(acc);
  result.mean_svs_per_machine =
      sv_per_machine_sum / static_cast<double>(dataset.config.subjects);
  return result;
}

}  // namespace pulphd::emg
