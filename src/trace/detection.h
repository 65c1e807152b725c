// Detection events — the framework's unit of input.
//
// A detection is what a camera's on-board analytics emits when an object
// passes through its field of view: where, when, which camera, and an
// appearance feature vector describing what the object looked like. The
// ground-truth object id is carried for evaluation only; query code paths
// other than trajectory-by-id treat it as opaque.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"

namespace stcn {

/// Appearance descriptor: an L2-normalized embedding, as produced by a
/// re-identification feature extractor.
struct AppearanceFeature {
  std::vector<float> values;

  /// Cosine similarity in [-1, 1] (vectors are unit-norm by construction).
  [[nodiscard]] double similarity(const AppearanceFeature& other) const {
    double s = 0.0;
    std::size_t n = std::min(values.size(), other.values.size());
    for (std::size_t i = 0; i < n; ++i) {
      s += static_cast<double>(values[i]) * other.values[i];
    }
    return s;
  }

  void normalize() {
    double n2 = 0.0;
    for (float v : values) n2 += static_cast<double>(v) * v;
    if (n2 <= 0.0) return;
    auto inv = static_cast<float>(1.0 / std::sqrt(n2));
    for (float& v : values) v *= inv;
  }

  friend bool operator==(const AppearanceFeature&,
                         const AppearanceFeature&) = default;
};

struct Detection {
  DetectionId id;
  CameraId camera;
  ObjectId object;  // ground truth; for evaluation and trajectory-by-id
  TimePoint time;
  Point position;
  AppearanceFeature appearance;
  double confidence = 1.0;

  friend bool operator==(const Detection&, const Detection&) = default;
};

/// What orders a result row: answers sort by time, or for k-NN by the
/// distance of `position` from the centre, and break ties (and find copies
/// of one row) by `id`.
struct RowKey {
  DetectionId id;
  TimePoint time;
  Point position;
};

// Wire row: id, camera, object, time, x, y, confidence (8 bytes each), a
// u32 embedding dim, then the embedding as raw f32. It is also the row of
// a hot snapshot segment (DetectionStore), so one writer serves both.
inline constexpr std::size_t kRowFixedBytes = 60;

/// Exact encoded size of one detection. Batch encoders sum this to
/// reserve() up front.
[[nodiscard]] inline std::size_t wire_size(const Detection& d) {
  return kRowFixedBytes + sizeof(float) * d.appearance.values.size();
}

/// Exact encoded size of a detection vector (length prefix + rows).
[[nodiscard]] inline std::size_t wire_size(
    const std::vector<Detection>& detections) {
  std::size_t n = 4;
  for (const Detection& d : detections) n += wire_size(d);
  return n;
}

/// Writes one wire row at `p`, which must have room for kRowFixedBytes
/// plus the embedding's bytes, and returns the byte past it.
inline std::uint8_t* put_row(std::uint8_t* p, std::uint64_t id,
                             std::uint64_t camera, std::uint64_t object,
                             std::int64_t time, double x, double y,
                             double confidence,
                             std::span<const float> embedding) {
  auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  put(id);
  put(camera);
  put(object);
  put(time);
  put(x);
  put(y);
  put(confidence);
  put(static_cast<std::uint32_t>(embedding.size()));
  if (!embedding.empty()) {
    std::memcpy(p, embedding.data(), embedding.size_bytes());
  }
  return p + embedding.size_bytes();
}

inline void serialize(BinaryWriter& w, const Detection& d) {
  put_row(w.extend(wire_size(d)), d.id.value(), d.camera.value(),
          d.object.value(), d.time.micros_since_origin(), d.position.x,
          d.position.y, d.confidence, d.appearance.values);
}

/// One wire row read in place; `embedding` views the reader's buffer.
struct WireRow {
  std::uint64_t id = 0;
  std::uint64_t camera = 0;
  std::uint64_t object = 0;
  std::int64_t time = 0;
  double x = 0;
  double y = 0;
  double confidence = 0;
  std::span<const std::uint8_t> embedding;  // dim raw f32s
};

/// Reads one wire row. The embedding's byte count is checked against what
/// remains before anything is sized from it, so a corrupt dim fails the
/// reader without allocating.
inline WireRow read_row(BinaryReader& r) {
  WireRow row;
  row.id = r.read_u64();
  row.camera = r.read_u64();
  row.object = r.read_u64();
  row.time = r.read_i64();
  row.x = r.read_double();
  row.y = r.read_double();
  row.confidence = r.read_double();
  std::uint32_t dim = r.read_u32();
  row.embedding = r.read_span(std::size_t{dim} * sizeof(float));
  return row;
}

inline Detection deserialize_detection(BinaryReader& r) {
  WireRow row = read_row(r);
  Detection d;
  d.id = DetectionId(row.id);
  d.camera = CameraId(row.camera);
  d.object = ObjectId(row.object);
  d.time = TimePoint(row.time);
  d.position = {row.x, row.y};
  d.confidence = row.confidence;
  if (!row.embedding.empty()) {
    d.appearance.values.resize(row.embedding.size() / sizeof(float));
    std::memcpy(d.appearance.values.data(), row.embedding.data(),
                row.embedding.size());
  }
  return d;
}

}  // namespace stcn
