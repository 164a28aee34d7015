// Binary (de)serialization of trained HD models.
//
// Format: little-endian, versioned, with a magic tag — the layout a deeply
// embedded target would flash alongside the firmware (the paper loads "the
// CIM, IM, and AM matrices of the HD classifier ... into the ARM Cortex M4
// for testing", §4.1).
//
//   [u32 magic 'PHD1'][u32 version]
//   [u64 dim][u64 channels][u64 levels][f64 min][f64 max][u64 ngram][u64 classes][u64 seed]
//   [u64 name_len][name bytes]            (version >= 2 only)
//   [IM  : channels x words u32]
//   [CIM : levels   x words u32]
//   [AM  : classes  x words u32]
//
// Version 2 adds an embedded model name: a length-prefixed token naming the
// model (per-subject models in a multi-model registry identify themselves).
// Version-1 streams remain loadable and yield an empty name.
#pragma once

#include <iosfwd>
#include <string>

#include "hd/classifier.hpp"

namespace pulphd::hd {

/// A deserialized model: configuration, optional embedded name, and the
/// three seed/learned matrices.
struct ClassifierModel {
  ClassifierConfig config;
  /// Embedded model name (empty for unnamed / version-1 streams). When
  /// present it is a valid name token — see `is_valid_model_name`.
  std::string name;
  std::vector<Hypervector> im;
  std::vector<Hypervector> cim;
  std::vector<Hypervector> am;
};

/// True when `name` is a legal embedded model name: 1..64 characters from
/// [A-Za-z0-9._-]. The alphabet is restricted so names survive verbatim as
/// single tokens of the serve wire protocol (docs/protocol.md) and as CLI
/// `--model NAME=PATH` arguments.
bool is_valid_model_name(const std::string& name);

/// Serializes the trained matrices of `clf` to a stream. `name` embeds a
/// model name (must satisfy is_valid_model_name; empty = unnamed).
/// Throws std::runtime_error on stream failure or an invalid name.
void save_model(const HdClassifier& clf, std::ostream& out, const std::string& name = "");

/// Crash-safe checkpoint: serializes in memory, then atomically publishes
/// via io::atomic_write_file (temp sibling -> fsync -> rename -> directory
/// fsync). A crash or I/O failure mid-save never leaves a torn model at
/// `path` — at worst an inert "<path>.tmp" orphan that the next save
/// removes and no loader ever opens. Failures throw std::runtime_error
/// with the path and errno text.
void save_model_file(const HdClassifier& clf, const std::string& path,
                     const std::string& name = "");

/// Parses a model; throws std::runtime_error on malformed input (bad magic,
/// unsupported version, truncated matrices, inconsistent sizes, a header
/// ClassifierConfig::validate rejects).
ClassifierModel load_model(std::istream& in);
/// As load_model, but every failure message names the offending file path —
/// a registry loading many per-subject models must be able to say *which*
/// file was bad.
ClassifierModel load_model_file(const std::string& path);

/// Rebuilds a ready-to-classify classifier from a deserialized model: the
/// IM and CIM are regenerated from the config seed and the stored AM is
/// loaded. Throws std::runtime_error when the stored IM/CIM rows differ
/// from the seeded ones.
HdClassifier classifier_from_model(const ClassifierModel& model);

}  // namespace pulphd::hd
