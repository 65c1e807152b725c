// A sealed, compressed 4096-row detection block — the cold-tier unit.
//
// Column encodings (common/codec.h): FOR-packed time and detection ids,
// dictionary-coded camera/object ids, FOR-quantized positions (30-bit:
// error ≤ range·2⁻³¹, sub-micrometre at city scale) and confidences
// (15-bit), plus an int8-quantized embedding arena with per-row
// scale/offset/code-sum parameters (common/appearance_kernel.h).
//
// Lossless columns: time, ids, cameras, objects. Lossy-but-stable columns:
// positions/confidences quantize once on demotion; because quanta are
// powers of two, re-encoding decoded values (compaction rewriting a cold
// block) is lossless, so values never drift after the first demotion.
// Embeddings re-quantize with bounded drift (≤ scale per component per
// re-encode); the compaction fast path adopts cold blocks verbatim, so in
// practice embeddings encode exactly once too.
//
// Scans never materialize the block: the filter_* members run the
// decode-fused kernels from common/filter_kernel.h, writing decoded
// columns into caller scratch while emitting block-local selection
// vectors; refine_* members gather-decode survivors only. Camera and
// object equality filters compare dictionary codes without decoding at all.
//
// Every block carries a process-unique `uid` assigned when its content is
// created (encode or deserialize). Content is immutable afterwards, so the
// uid doubles as a decode-scratch cache tag: copies share content and may
// share the tag; distinct contents can never collide.
#pragma once

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/appearance_kernel.h"
#include "common/codec.h"
#include "common/filter_kernel.h"
#include "common/serialize.h"

namespace stcn {

/// Quantization precision for position columns. 30 bits keeps the decode
/// grid ~2⁻³⁰ of the block's coordinate range — far below sensor noise and
/// fine enough that randomized differential tests never see a predicate
/// flip at a query boundary.
inline constexpr int kPositionPrecisionBits = 30;
/// Confidence is only ever thresholded/reported, never range-scanned;
/// 15 bits (≈3e-5 absolute error on [0,1]) is plenty.
inline constexpr int kConfidencePrecisionBits = 15;

[[nodiscard]] inline std::uint64_t next_compressed_block_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

struct CompressedBlock {
  std::uint32_t rows = 0;
  std::uint64_t uid = 0;  // content tag for decode-scratch caching

  PackedI64Column times;
  PackedU64Column ids;
  DictU64Column cameras;
  DictU64Column objects;
  QuantizedDoubleColumn xs;
  QuantizedDoubleColumn ys;
  QuantizedDoubleColumn confidences;

  // Int8 embedding arena. Uniform-dimension blocks (the norm) store the
  // dimension once and no offsets; ragged blocks carry cumulative code end
  // offsets per row.
  std::uint32_t emb_dim = 0;
  std::vector<std::int8_t> emb_codes;
  std::vector<std::uint32_t> emb_ends;  // empty ⇔ uniform emb_dim layout
  std::vector<float> emb_scales;
  std::vector<float> emb_offsets;
  std::vector<std::int32_t> emb_code_sums;
  std::vector<std::int32_t> emb_abs_code_sums;

  /// Encodes `n` rows given as parallel column arrays. Row i's embedding
  /// floats live at arena[(i == 0 ? 0 : emb_ends_in[i-1]) .. emb_ends_in[i]).
  static CompressedBlock encode(const std::uint64_t* id_col,
                                const std::uint64_t* camera_col,
                                const std::uint64_t* object_col,
                                const std::int64_t* time_col,
                                const double* x_col, const double* y_col,
                                const double* conf_col, const float* arena,
                                const std::uint64_t* emb_ends_in,
                                std::uint32_t n) {
    CompressedBlock b;
    b.rows = n;
    b.uid = next_compressed_block_uid();
    b.times = PackedI64Column::encode(time_col, n);
    b.ids = PackedU64Column::encode(id_col, n);
    b.cameras = DictU64Column::encode(camera_col, n);
    b.objects = DictU64Column::encode(object_col, n);
    b.xs = QuantizedDoubleColumn::encode(x_col, n, kPositionPrecisionBits);
    b.ys = QuantizedDoubleColumn::encode(y_col, n, kPositionPrecisionBits);
    b.confidences =
        QuantizedDoubleColumn::encode(conf_col, n, kConfidencePrecisionBits);

    bool uniform = n > 0;
    std::uint64_t dim0 = n > 0 ? emb_ends_in[0] : 0;
    for (std::uint32_t i = 1; i < n && uniform; ++i) {
      uniform = emb_ends_in[i] - emb_ends_in[i - 1] == dim0;
    }
    std::uint64_t total = n > 0 ? emb_ends_in[n - 1] : 0;
    b.emb_codes.resize(total);
    b.emb_scales.resize(n);
    b.emb_offsets.resize(n);
    b.emb_code_sums.resize(n);
    b.emb_abs_code_sums.resize(n);
    if (uniform) {
      b.emb_dim = static_cast<std::uint32_t>(dim0);
    } else {
      b.emb_ends.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        b.emb_ends[i] = static_cast<std::uint32_t>(emb_ends_in[i]);
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t begin = i == 0 ? 0 : emb_ends_in[i - 1];
      std::uint64_t dim = emb_ends_in[i] - begin;
      EmbeddingQuantParams p =
          quantize_embedding(arena + begin, dim, b.emb_codes.data() + begin);
      b.emb_scales[i] = p.scale;
      b.emb_offsets[i] = p.offset;
      b.emb_code_sums[i] = p.code_sum;
      b.emb_abs_code_sums[i] = p.abs_code_sum;
    }
    return b;
  }

  // ------------------------------------------------------ per-row access

  [[nodiscard]] std::uint64_t id_at(std::uint32_t i) const {
    return ids.at(i);
  }
  [[nodiscard]] std::uint64_t camera_at(std::uint32_t i) const {
    return cameras.at(i);
  }
  [[nodiscard]] std::uint64_t object_at(std::uint32_t i) const {
    return objects.at(i);
  }
  [[nodiscard]] std::int64_t time_at(std::uint32_t i) const {
    return times.at(i);
  }
  [[nodiscard]] double x_at(std::uint32_t i) const { return xs.at(i); }
  [[nodiscard]] double y_at(std::uint32_t i) const { return ys.at(i); }
  [[nodiscard]] double confidence_at(std::uint32_t i) const {
    return confidences.at(i);
  }

  [[nodiscard]] std::uint64_t emb_begin(std::uint32_t i) const {
    if (emb_ends.empty()) return static_cast<std::uint64_t>(i) * emb_dim;
    return i == 0 ? 0 : emb_ends[i - 1];
  }
  [[nodiscard]] std::uint32_t emb_dim_of(std::uint32_t i) const {
    if (emb_ends.empty()) return emb_dim;
    return emb_ends[i] - (i == 0 ? 0 : emb_ends[i - 1]);
  }
  [[nodiscard]] EmbeddingQuantParams quant_params(std::uint32_t i) const {
    return {emb_scales[i], emb_offsets[i], emb_code_sums[i],
            emb_abs_code_sums[i]};
  }
  /// Decodes row i's embedding into `out` (emb_dim_of(i) floats).
  void decode_embedding(std::uint32_t i, float* out) const {
    std::uint64_t begin = emb_begin(i);
    std::uint32_t dim = emb_dim_of(i);
    float s = emb_scales[i];
    float o = emb_offsets[i];
    const std::int8_t* q = emb_codes.data() + begin;
    for (std::uint32_t k = 0; k < dim; ++k) {
      out[k] = o + s * static_cast<float>(q[k]);
    }
  }

  // ------------------------------------------------- whole-column decode

  void decode_times(std::int64_t* out) const { times.decode_into(out); }
  void decode_ids(std::uint64_t* out) const { ids.decode_into(out); }
  void decode_cameras(std::uint64_t* out) const { cameras.decode_into(out); }
  void decode_objects(std::uint64_t* out) const { objects.decode_into(out); }
  void decode_xs(double* out) const { xs.decode_into(out); }
  void decode_ys(double* out) const { ys.decode_into(out); }
  void decode_confidences(double* out) const { confidences.decode_into(out); }

  // -------------------------------------------------- decode-fused scans
  //
  // All selection vectors are block-local ([0, rows)); the store offsets
  // them to global ids once per morsel. filter_time / filter_rect /
  // filter_circle also write the decoded column(s) into the caller's
  // scratch, so a follow-up aggregation pass reads plain arrays.

  std::uint32_t filter_time(std::int64_t t0, std::int64_t t1,
                            std::int64_t* times_out,
                            std::uint32_t* sel) const {
    if (times.codes.width == 0) {
      std::int64_t t =
          times.base + static_cast<std::int64_t>(times.codes.base);
      for (std::uint32_t i = 0; i < rows; ++i) times_out[i] = t;
      return t >= t0 && t < t1 ? fill_identity(0, rows, sel) : 0;
    }
    std::int64_t base =
        times.base + static_cast<std::int64_t>(times.codes.base);
    return times.codes.dispatch_width([&](auto w) {
      return filter_time_decode<decltype(w)::value>(
          times.codes.data.data(), base, rows, t0, t1, times_out, sel);
    });
  }

  std::uint32_t refine_time(std::int64_t t0, std::int64_t t1,
                            std::uint32_t* sel, std::uint32_t n) const {
    if (times.codes.width == 0) {
      std::int64_t t =
          times.base + static_cast<std::int64_t>(times.codes.base);
      return t >= t0 && t < t1 ? n : 0;
    }
    std::int64_t base =
        times.base + static_cast<std::int64_t>(times.codes.base);
    return times.codes.dispatch_width([&](auto w) {
      return refine_time_decode<decltype(w)::value>(times.codes.data.data(),
                                                    base, t0, t1, sel, n);
    });
  }

  std::uint32_t filter_rect(const Rect& region, double* xs_out,
                            double* ys_out, std::uint32_t* sel) const {
    if (xs.codes.width == 0 || ys.codes.width == 0) {
      // Degenerate (constant) axis: decode both columns, then the plain
      // kernel — correctness path, vanishingly rare on real blocks.
      xs.decode_into(xs_out);
      ys.decode_into(ys_out);
      return stcn::filter_rect(xs_out, ys_out, 0, rows, region, sel);
    }
    double xb = xs.base + xs.quantum * static_cast<double>(xs.codes.base);
    double yb = ys.base + ys.quantum * static_cast<double>(ys.codes.base);
    return xs.codes.dispatch_width([&](auto wx) {
      return ys.codes.dispatch_width([&](auto wy) {
        return filter_rect_decode<decltype(wx)::value, decltype(wy)::value>(
            xs.codes.data.data(), xb, xs.quantum, ys.codes.data.data(), yb,
            ys.quantum, rows, region, xs_out, ys_out, sel);
      });
    });
  }

  std::uint32_t refine_rect(const Rect& region, std::uint32_t* sel,
                            std::uint32_t n) const {
    if (xs.codes.width == 0 || ys.codes.width == 0) {
      std::uint32_t m = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t row = sel[i];
        double x = xs.at(row), y = ys.at(row);
        sel[m] = row;
        m += static_cast<std::uint32_t>(x >= region.min.x) &
             static_cast<std::uint32_t>(x < region.max.x) &
             static_cast<std::uint32_t>(y >= region.min.y) &
             static_cast<std::uint32_t>(y < region.max.y);
      }
      return m;
    }
    double xb = xs.base + xs.quantum * static_cast<double>(xs.codes.base);
    double yb = ys.base + ys.quantum * static_cast<double>(ys.codes.base);
    return xs.codes.dispatch_width([&](auto wx) {
      return ys.codes.dispatch_width([&](auto wy) {
        return refine_rect_decode<decltype(wx)::value, decltype(wy)::value>(
            xs.codes.data.data(), xb, xs.quantum, ys.codes.data.data(), yb,
            ys.quantum, region, sel, n);
      });
    });
  }

  std::uint32_t filter_circle(Point center, double radius, double* xs_out,
                              double* ys_out, std::uint32_t* sel) const {
    if (xs.codes.width == 0 || ys.codes.width == 0) {
      xs.decode_into(xs_out);
      ys.decode_into(ys_out);
      return stcn::filter_circle(xs_out, ys_out, 0, rows, center, radius,
                                 sel);
    }
    double xb = xs.base + xs.quantum * static_cast<double>(xs.codes.base);
    double yb = ys.base + ys.quantum * static_cast<double>(ys.codes.base);
    return xs.codes.dispatch_width([&](auto wx) {
      return ys.codes.dispatch_width([&](auto wy) {
        return filter_circle_decode<decltype(wx)::value, decltype(wy)::value>(
            xs.codes.data.data(), xb, xs.quantum, ys.codes.data.data(), yb,
            ys.quantum, rows, center, radius, xs_out, ys_out, sel);
      });
    });
  }

  std::uint32_t refine_circle(Point center, double radius, std::uint32_t* sel,
                              std::uint32_t n) const {
    if (xs.codes.width == 0 || ys.codes.width == 0) {
      double r2 = radius * radius;
      std::uint32_t m = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t row = sel[i];
        double dx = xs.at(row) - center.x;
        double dy = ys.at(row) - center.y;
        sel[m] = row;
        m += static_cast<std::uint32_t>(dx * dx + dy * dy <= r2);
      }
      return m;
    }
    double xb = xs.base + xs.quantum * static_cast<double>(xs.codes.base);
    double yb = ys.base + ys.quantum * static_cast<double>(ys.codes.base);
    return xs.codes.dispatch_width([&](auto wx) {
      return ys.codes.dispatch_width([&](auto wy) {
        return refine_circle_decode<decltype(wx)::value, decltype(wy)::value>(
            xs.codes.data.data(), xb, xs.quantum, ys.codes.data.data(), yb,
            ys.quantum, center, radius, sel, n);
      });
    });
  }

  /// Rows whose `column` id (cameras or objects) equals `value`, compared
  /// in dictionary-code space without decoding the column. A value absent
  /// from the dictionary selects nothing.
  static std::uint32_t filter_eq(const DictU64Column& column,
                                 std::uint64_t value, std::uint32_t* sel) {
    std::int64_t idx = column.code_of(value);
    if (idx < 0) return 0;
    auto target = static_cast<std::uint64_t>(idx);
    if (column.codes.width == 0) {
      return column.codes.base == target
                 ? fill_identity(0, column.codes.rows, sel)
                 : 0;
    }
    if (target < column.codes.base) return 0;
    std::uint64_t raw = target - column.codes.base;
    return column.codes.dispatch_width([&](auto w) {
      return filter_code_eq<decltype(w)::value>(column.codes.data.data(), raw,
                                                column.codes.rows, sel);
    });
  }

  static std::uint32_t refine_eq(const DictU64Column& column,
                                 std::uint64_t value, std::uint32_t* sel,
                                 std::uint32_t n) {
    std::int64_t idx = column.code_of(value);
    if (idx < 0) return 0;
    auto target = static_cast<std::uint64_t>(idx);
    if (column.codes.width == 0) {
      return column.codes.base == target ? n : 0;
    }
    if (target < column.codes.base) return 0;
    std::uint64_t raw = target - column.codes.base;
    return column.codes.dispatch_width([&](auto w) {
      return refine_code_eq<decltype(w)::value>(column.codes.data.data(), raw,
                                                sel, n);
    });
  }

  // ------------------------------------------------------------- memory

  [[nodiscard]] std::size_t compressed_bytes() const {
    return times.resident_bytes() + ids.resident_bytes() +
           cameras.resident_bytes() + objects.resident_bytes() +
           xs.resident_bytes() + ys.resident_bytes() +
           confidences.resident_bytes() + emb_codes.capacity() +
           emb_ends.capacity() * sizeof(std::uint32_t) +
           (emb_scales.capacity() + emb_offsets.capacity()) * sizeof(float) +
           (emb_code_sums.capacity() + emb_abs_code_sums.capacity()) *
               sizeof(std::int32_t);
  }

  // ---------------------------------------------------------- snapshots

  void serialize_to(BinaryWriter& w) const {
    w.write_u32(rows);
    times.serialize_to(w);
    ids.serialize_to(w);
    cameras.serialize_to(w);
    objects.serialize_to(w);
    xs.serialize_to(w);
    ys.serialize_to(w);
    confidences.serialize_to(w);
    w.write_u8(emb_ends.empty() ? 0 : 1);
    if (emb_ends.empty()) {
      w.write_u32(emb_dim);
    } else {
      w.write_u32(static_cast<std::uint32_t>(emb_ends.size()));
      for (std::uint32_t e : emb_ends) w.write_u32(e);
    }
    w.write_u32(static_cast<std::uint32_t>(emb_codes.size()));
    for (std::int8_t c : emb_codes) {
      w.write_u8(static_cast<std::uint8_t>(c));
    }
    for (std::uint32_t i = 0; i < rows; ++i) {
      w.write_u32(std::bit_cast<std::uint32_t>(emb_scales[i]));
      w.write_u32(std::bit_cast<std::uint32_t>(emb_offsets[i]));
      w.write_u32(static_cast<std::uint32_t>(emb_code_sums[i]));
      w.write_u32(static_cast<std::uint32_t>(emb_abs_code_sums[i]));
    }
  }

  /// Returns false (reader poisoned) on any inconsistency; a malformed
  /// snapshot can never produce a block whose decode reads out of bounds.
  [[nodiscard]] static bool deserialize_from(BinaryReader& r,
                                             CompressedBlock& out) {
    CompressedBlock b;
    b.rows = r.read_u32();
    if (r.failed() || !b.times.deserialize_from(r) ||
        !b.ids.deserialize_from(r) || !b.cameras.deserialize_from(r) ||
        !b.objects.deserialize_from(r) || !b.xs.deserialize_from(r) ||
        !b.ys.deserialize_from(r) || !b.confidences.deserialize_from(r)) {
      return false;
    }
    auto poison = [&r] {
      (void)r.read_bytes(r.remaining() + 1);
      return false;
    };
    if (b.times.codes.rows != b.rows || b.ids.rows != b.rows ||
        b.cameras.codes.rows != b.rows || b.objects.codes.rows != b.rows ||
        b.xs.codes.rows != b.rows || b.ys.codes.rows != b.rows ||
        b.confidences.codes.rows != b.rows) {
      return poison();
    }
    std::uint8_t ragged = r.read_u8();
    std::uint64_t expected_codes = 0;
    if (ragged == 0) {
      b.emb_dim = r.read_u32();
      expected_codes = static_cast<std::uint64_t>(b.emb_dim) * b.rows;
    } else {
      std::uint32_t n = r.read_u32();
      if (r.failed() || n != b.rows ||
          static_cast<std::uint64_t>(n) * 4 > r.remaining()) {
        return poison();
      }
      b.emb_ends.reserve(n);
      std::uint32_t prev = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t e = r.read_u32();
        if (e < prev) return poison();
        b.emb_ends.push_back(e);
        prev = e;
      }
      expected_codes = prev;
    }
    std::uint32_t code_count = r.read_u32();
    if (r.failed() || code_count != expected_codes ||
        code_count > r.remaining()) {
      return poison();
    }
    b.emb_codes.reserve(code_count);
    for (std::uint32_t i = 0; i < code_count; ++i) {
      b.emb_codes.push_back(static_cast<std::int8_t>(r.read_u8()));
    }
    if (static_cast<std::uint64_t>(b.rows) * 16 > r.remaining()) {
      return poison();
    }
    b.emb_scales.reserve(b.rows);
    b.emb_offsets.reserve(b.rows);
    b.emb_code_sums.reserve(b.rows);
    b.emb_abs_code_sums.reserve(b.rows);
    for (std::uint32_t i = 0; i < b.rows; ++i) {
      float scale = std::bit_cast<float>(r.read_u32());
      float offset = std::bit_cast<float>(r.read_u32());
      if (!std::isfinite(scale) || !std::isfinite(offset)) return poison();
      b.emb_scales.push_back(scale);
      b.emb_offsets.push_back(offset);
      b.emb_code_sums.push_back(static_cast<std::int32_t>(r.read_u32()));
      b.emb_abs_code_sums.push_back(static_cast<std::int32_t>(r.read_u32()));
    }
    if (r.failed()) return false;
    b.uid = next_compressed_block_uid();
    out = std::move(b);
    return true;
  }
};

}  // namespace stcn
