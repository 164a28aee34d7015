#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "hd/serialization.hpp"

namespace pulphd::serve {
namespace {

hd::HdClassifier tiny_classifier(std::uint64_t seed) {
  hd::ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 4;
  cfg.levels = 8;
  cfg.max_value = 7.0;
  cfg.classes = 3;
  cfg.seed = seed;
  hd::HdClassifier clf(cfg);
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    hd::Trial trial;
    for (int i = 0; i < 6; ++i) {
      trial.push_back({static_cast<float>(c), static_cast<float>(7 - c),
                       static_cast<float>(2 * c % 7), 3.0f});
    }
    clf.train(trial, c);
  }
  return clf;
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(ModelRegistry, RoutesByNameWithFirstModelAsDefault) {
  ModelRegistry registry;
  registry.add("subj0", tiny_classifier(1));
  registry.add("subj1", tiny_classifier(2));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.default_name(), "subj0");
  EXPECT_EQ(registry.resolve("subj1")->name, "subj1");
  EXPECT_EQ(registry.resolve("subj0")->name, "subj0");
  // The empty name routes to the default.
  EXPECT_EQ(registry.resolve("")->name, "subj0");
}

TEST(ModelRegistry, SetDefaultRedirectsEmptyName) {
  ModelRegistry registry;
  registry.add("a", tiny_classifier(1));
  registry.add("b", tiny_classifier(2));
  registry.set_default("b");
  EXPECT_EQ(registry.resolve("")->name, "b");
  EXPECT_THROW(registry.set_default("missing"), std::runtime_error);
}

TEST(ModelRegistry, UnknownModelIsACodedError) {
  ModelRegistry registry;
  registry.add("subj0", tiny_classifier(1));
  try {
    (void)registry.resolve("subj9");
    FAIL() << "resolve should have thrown";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), kErrUnknownModel);
    // The message lists the registered models so a misrouted client can
    // fix itself.
    EXPECT_NE(std::string(e.what()).find("subj0"), std::string::npos);
  }
}

TEST(ModelRegistry, EmptyRegistryResolvesToUnknownModel) {
  const ModelRegistry registry;
  EXPECT_THROW((void)registry.resolve(""), CodedError);
}

TEST(ModelRegistry, RejectsDuplicateAndInvalidNames) {
  ModelRegistry registry;
  registry.add("subj0", tiny_classifier(1));
  EXPECT_THROW(registry.add("subj0", tiny_classifier(2)), std::runtime_error);
  EXPECT_THROW(registry.add("has space", tiny_classifier(2)), std::runtime_error);
  EXPECT_THROW(registry.add("", tiny_classifier(2)), std::runtime_error);
}

TEST(ModelRegistry, LoadFileUsesEmbeddedNameAndAppliesThreads) {
  const std::string path = ::testing::TempDir() + "/registry_named.phd";
  hd::save_model_file(tiny_classifier(3), path, "embedded");
  ModelRegistry registry;
  registry.load_file("", path, 4);
  const ModelSnapshot entry = registry.resolve("embedded");
  EXPECT_EQ(entry->source_path, path);
  EXPECT_EQ(entry->classifier.config().threads, 4u);
  std::remove(path.c_str());
}

TEST(ModelRegistry, ExplicitNameOverridesEmbeddedName) {
  const std::string path = ::testing::TempDir() + "/registry_override.phd";
  hd::save_model_file(tiny_classifier(3), path, "embedded");
  ModelRegistry registry;
  registry.load_file("override", path);
  EXPECT_EQ(registry.resolve("override")->name, "override");
  EXPECT_THROW((void)registry.resolve("embedded"), CodedError);
  std::remove(path.c_str());
}

TEST(ModelRegistry, UnnamedFileWithoutExplicitNameExplainsTheFix) {
  const std::string path = ::testing::TempDir() + "/registry_unnamed.phd";
  hd::save_model_file(tiny_classifier(3), path);  // no embedded name
  ModelRegistry registry;
  const std::string message =
      error_message([&] { registry.load_file("", path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("NAME="), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(ModelRegistry, LoadErrorsNameTheModelAndPath) {
  // Regression: load failures used to be anonymous ("bad magic"), which is
  // fatal when a serve startup loads many per-subject models — the
  // operator must see which --model argument broke.
  const std::string path = ::testing::TempDir() + "/registry_garbage.phd";
  std::ofstream(path, std::ios::binary) << "this is not a model";
  ModelRegistry registry;
  const std::string message =
      error_message([&] { registry.load_file("subj7", path); });
  EXPECT_NE(message.find("subj7"), std::string::npos) << message;
  EXPECT_NE(message.find(path), std::string::npos) << message;
  std::remove(path.c_str());

  const std::string missing = ::testing::TempDir() + "/registry_missing.phd";
  const std::string message2 =
      error_message([&] { registry.load_file("subj8", missing); });
  EXPECT_NE(message2.find("subj8"), std::string::npos) << message2;
  EXPECT_NE(message2.find(missing), std::string::npos) << message2;

  // A file that reads cleanly but reuses a registered name.
  const std::string twice = ::testing::TempDir() + "/registry_twice.phd";
  hd::save_model_file(tiny_classifier(3), twice, "twice");
  registry.load_file("", twice);
  const std::string message3 = error_message([&] { registry.load_file("", twice); });
  EXPECT_NE(message3.find("twice"), std::string::npos) << message3;
  EXPECT_NE(message3.find(twice), std::string::npos) << message3;
  std::remove(twice.c_str());
}

TEST(ModelRegistry, InfosMatchRegistrationOrderAndDefault) {
  ModelRegistry registry;
  registry.add("a", tiny_classifier(1));
  registry.add("b", tiny_classifier(2));
  registry.set_default("b");
  const std::vector<ModelInfo> infos = registry.infos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "a");
  EXPECT_FALSE(infos[0].is_default);
  EXPECT_EQ(infos[1].name, "b");
  EXPECT_TRUE(infos[1].is_default);
  EXPECT_EQ(infos[0].dim, 256u);
  EXPECT_EQ(infos[0].channels, 4u);
  EXPECT_EQ(infos[0].classes, 3u);
  EXPECT_EQ(infos[0].ngram, 1u);
}

// The registry is internally synchronized: concurrent add() with
// resolve()/infos()/size()/default_name() readers must be race-free (this
// is what the TSan CI job checks) and entries handed out by resolve() stay
// valid while later registrations grow the registry.
TEST(ModelRegistry, ConcurrentAddAndResolveAreRaceFree) {
  ModelRegistry registry;
  registry.add("seed", tiny_classifier(99));
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        std::string name = "w";
        name += std::to_string(w);
        name += '.';
        name += std::to_string(i);
        registry.add(name, tiny_classifier(static_cast<std::uint64_t>(w * 100 + i)));
      }
    });
  }
  std::atomic<int> resolved{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&registry, &resolved] {
      for (int i = 0; i < 100; ++i) {
        const ModelSnapshot entry = registry.resolve("seed");
        if (entry->name == "seed") resolved.fetch_add(1, std::memory_order_relaxed);
        (void)registry.infos();
        (void)registry.size();
        (void)registry.default_name();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(resolved.load(), 200);
  EXPECT_EQ(registry.size(), 1u + kWriters * kPerWriter);
  EXPECT_EQ(registry.default_name(), "seed");  // first registration wins
}

// --- reload semantics -------------------------------------------------------

/// A deterministic probe trial; equal predictions on it are the cheap
/// proxy for "the same model is serving".
std::vector<hd::Trial> probe_trials() {
  hd::Trial trial;
  for (int i = 0; i < 6; ++i) trial.push_back({1.0f, 6.0f, 3.0f, 2.0f});
  return {trial};
}

TEST(ModelRegistryReload, SwapsInTheNewFileContents) {
  const std::string path = ::testing::TempDir() + "/registry_reload_swap.phd";
  hd::save_model_file(tiny_classifier(3), path, "m");
  ModelRegistry registry;
  registry.load_file("", path, 2);
  const ModelSnapshot before = registry.resolve("m");

  // Retrain with a different seed and overwrite the file in place —
  // exactly the operational "retrain then SIGHUP" flow.
  hd::save_model_file(tiny_classifier(77), path, "m");
  const ReloadStatus status = registry.reload("m");
  EXPECT_TRUE(status.ok) << status.message;
  EXPECT_EQ(status.name, "m");

  const ModelSnapshot after = registry.resolve("m");
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->classifier.config().seed, 77u);
  // The threads knob given at load_file time is re-applied on reload.
  EXPECT_EQ(after->classifier.config().threads, 2u);
  // The old snapshot is still alive and classifies exactly as before.
  EXPECT_EQ(before->classifier.config().seed, 3u);
  std::remove(path.c_str());
}

TEST(ModelRegistryReload, MissingFileKeepsThePreviousModelServing) {
  const std::string path = ::testing::TempDir() + "/registry_reload_missing.phd";
  hd::save_model_file(tiny_classifier(3), path, "m");
  ModelRegistry registry;
  registry.load_file("", path);
  const std::vector<hd::AmDecision> before =
      registry.resolve("m")->classifier.predict_batch(probe_trials());

  std::remove(path.c_str());
  const ReloadStatus status = registry.reload("m");
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find(path), std::string::npos) << status.message;

  // The failed reload swapped nothing: predictions are bit-identical.
  const std::vector<hd::AmDecision> after =
      registry.resolve("m")->classifier.predict_batch(probe_trials());
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(before[0].label, after[0].label);
  EXPECT_EQ(before[0].distances, after[0].distances);
}

TEST(ModelRegistryReload, CorruptFileKeepsThePreviousModelServing) {
  const std::string path = ::testing::TempDir() + "/registry_reload_corrupt.phd";
  hd::save_model_file(tiny_classifier(3), path, "m");
  ModelRegistry registry;
  registry.load_file("", path);
  const std::vector<hd::AmDecision> before =
      registry.resolve("m")->classifier.predict_batch(probe_trials());

  std::ofstream(path, std::ios::binary) << "garbage, not a model";
  const ReloadStatus status = registry.reload("m");
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find(path), std::string::npos) << status.message;

  const std::vector<hd::AmDecision> after =
      registry.resolve("m")->classifier.predict_batch(probe_trials());
  EXPECT_EQ(before[0].label, after[0].label);
  EXPECT_EQ(before[0].distances, after[0].distances);
  std::remove(path.c_str());
}

TEST(ModelRegistryReload, SeedMismatchedRowsKeepThePreviousModelServing) {
  const std::string path = ::testing::TempDir() + "/registry_reload_foreign_rows.phd";
  hd::save_model_file(tiny_classifier(3), path, "m");
  ModelRegistry registry;
  registry.load_file("", path);
  const ModelSnapshot before = registry.resolve("m");
  const std::vector<hd::AmDecision> expected = before->classifier.predict_batch(probe_trials());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Fixed header (72 bytes), name length (8), the name "m", then 4 IM rows
  // of 8 words at D = 256, then the CIM rows.
  const std::size_t im_offset = 72 + 8 + 1;
  const std::size_t im_bytes = 4 * 8 * sizeof(Word);
  for (const std::size_t offset : {im_offset + 3, im_offset + im_bytes + 5}) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x01);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << mutated;
    const ReloadStatus status = registry.reload("m");
    EXPECT_FALSE(status.ok) << "offset=" << offset;
    EXPECT_NE(status.message.find("IM/CIM"), std::string::npos) << status.message;
    EXPECT_NE(status.message.find(path), std::string::npos) << status.message;

    const ModelSnapshot after = registry.resolve("m");
    EXPECT_EQ(after.get(), before.get()) << "offset=" << offset;
    const std::vector<hd::AmDecision> served = after->classifier.predict_batch(probe_trials());
    ASSERT_EQ(served.size(), expected.size());
    EXPECT_EQ(served[0].label, expected[0].label);
    EXPECT_EQ(served[0].distances, expected[0].distances);
  }
  std::remove(path.c_str());
}

TEST(ModelRegistryReload, InMemoryAndUnknownModelsFailSoftly) {
  ModelRegistry registry;
  registry.add("mem", tiny_classifier(1));
  const ReloadStatus mem = registry.reload("mem");
  EXPECT_FALSE(mem.ok);
  EXPECT_NE(mem.message.find("no file"), std::string::npos) << mem.message;
  const ReloadStatus unknown = registry.reload("ghost");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.message.find("ghost"), std::string::npos) << unknown.message;
  // Either way the registry still serves.
  EXPECT_EQ(registry.resolve("mem")->name, "mem");
}

TEST(ModelRegistryReload, ReloadAllReportsEveryModelInOrder) {
  const std::string path = ::testing::TempDir() + "/registry_reload_all.phd";
  hd::save_model_file(tiny_classifier(3), path, "ondisk");
  ModelRegistry registry;
  registry.add("mem", tiny_classifier(1));
  registry.load_file("", path);
  const std::vector<ReloadStatus> statuses = registry.reload_all();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].name, "mem");
  EXPECT_FALSE(statuses[0].ok);  // in-memory: nothing to reload from
  EXPECT_EQ(statuses[1].name, "ondisk");
  EXPECT_TRUE(statuses[1].ok) << statuses[1].message;
  std::remove(path.c_str());
}

// Classify traffic must never block on — or race with — a reload: readers
// hold shared_ptr snapshots, the reload swaps the pointer under the mutex.
// This is the scenario the TSan CI job drives.
TEST(ModelRegistryReload, ConcurrentClassifyDuringReloadIsRaceFree) {
  const std::string path = ::testing::TempDir() + "/registry_reload_race.phd";
  hd::save_model_file(tiny_classifier(3), path, "m");
  ModelRegistry registry;
  registry.load_file("", path);
  const std::vector<hd::Trial> trials = probe_trials();

  std::atomic<bool> stop{false};
  std::atomic<int> classified{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const ModelSnapshot snap = registry.resolve("m");
        (void)snap->classifier.predict_batch(trials);
        classified.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    // Alternate good and corrupt contents so both the swap path and the
    // keep-previous path run under concurrent readers.
    if (i % 2 == 0) {
      hd::save_model_file(tiny_classifier(static_cast<std::uint64_t>(10 + i)), path, "m");
      EXPECT_TRUE(registry.reload("m").ok);
    } else {
      std::ofstream(path, std::ios::binary) << "garbage";
      EXPECT_FALSE(registry.reload("m").ok);
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(classified.load(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pulphd::serve
