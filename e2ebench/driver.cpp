// End-to-end benchmark program: runs one workload in one process, as a
// closed loop with a single caller thread, through the public entry
// points `aicomp compress` / `aicomp decompress` use:
//
//   compress    cli::compress_to_archive_bytes (out-param form)
//   decompress  cli::deserialize_archive (or cli::load_archive from a file)
//               -> cli::make_archive_codec -> Codec::decompress_into
//
// Each workload runs on a private aic::Context whose pool is smaller than
// the host's core count. Inputs follow the `aicomp gen` recipe
// (data::smooth_field + add_gaussian_noise) seeded from --seed. Every
// op's output is compared byte for byte with a reference computed at
// set-up (a byte compare is exact, independent of the checksum code under
// test, and several times faster than crc32c over the reconstruction);
// any mismatch or exception counts as a failed op and makes the exit
// code 1.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced
// phase and then a traced phase: it records its own spans around
// each layer's public call (and around unfused probes of the layers the
// fused compress hides), writes them as Chrome-trace JSON plus a layer
// table, and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   e2ebench --workload bulk-ref --seed 7 --seconds 20 --trace 0
//            --work-dir DIR [--trace-dir DIR] [--smoke]

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/chunk_entropy.hpp"
#include "cli/archive.hpp"
#include "core/codec_factory.hpp"
#include "core/plan_cache.hpp"
#include "data/synth.hpp"
#include "io/checksum.hpp"
#include "io/tensor_io.hpp"
#include "obs/metrics.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/context.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"
#include "support/memory_probe.hpp"

namespace {

using aic::Context;
using aic::baseline::ChunkEntropy;
using aic::tensor::Shape;
using aic::tensor::Tensor;

// ---------------------------------------------------------------- clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host CPU time stolen from this VM and total CPU time, in clock ticks,
/// from the aggregate line of /proc/stat ({0, 0} where unavailable).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostTicks host_ticks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (args.trace && args.trace_dir.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-dir");
  }
  return args;
}

// ------------------------------------------------------------- workloads

struct BatchSpec {
  Shape shape;
  std::string codec;
};

struct WorkloadSpec {
  std::size_t workers = 1;
  ChunkEntropy entropy = ChunkEntropy::kRaw;
  /// Decompress ops read each archive from its file with load_archive
  /// (the data-loader path); otherwise they decode the archive the same
  /// iteration just compressed.
  bool from_files = false;
  /// Every `compress_every`-th iteration also compresses a batch.
  std::size_t compress_every = 1;
  std::vector<BatchSpec> batches;
};

// Why these three (see BENCHMARK.json for the per-layer predictions):
//   bulk-ref      the ROADMAP reference batch, raw entropy: transform,
//                 pool scaling and container cost, entropy coding bypassed.
//   entropy-auto  small transform, per-chunk raw/packed/huffman choice:
//                 chunk entropy dominates, a transform kernel change must
//                 not show.
//   loader-mix    many small archives read back from files over three
//                 codec kinds on one worker: per-call fixed costs (plan
//                 lookup, factory parse, header/CRC checks, mmap,
//                 allocation) dominate and the pool is bypassed.
WorkloadSpec make_workload(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  if (name == "bulk-ref") {
    spec.workers = 2;
    spec.batches.push_back({smoke ? Shape::bchw(2, 3, 64, 64)
                                  : Shape::bchw(8, 3, 1024, 1024),
                            "dctchop:cf=4"});
  } else if (name == "entropy-auto") {
    spec.workers = 2;
    spec.entropy = ChunkEntropy::kAuto;
    const Shape shape =
        smoke ? Shape::bchw(1, 3, 64, 64) : Shape::bchw(4, 3, 512, 512);
    spec.batches.assign(2, {shape, "dctchop:cf=4"});
  } else if (name == "loader-mix") {
    spec.workers = 1;
    spec.from_files = true;
    spec.compress_every = 8;
    // Equal pixel count per channel in every shape class.
    struct Geometry {
      std::size_t batch, res;
    };
    const std::vector<Geometry> geometries =
        smoke ? std::vector<Geometry>{{4, 32}, {1, 64}, {2, 32}}
              : std::vector<Geometry>{{32, 64}, {8, 128}, {2, 256}};
    const char* const codecs[] = {"dctchop:cf=4", "triangle:cf=4",
                                  "partial:cf=4,s=2"};
    const std::size_t count = smoke ? 9 : 64;
    for (std::size_t k = 0; k < count; ++k) {
      const Geometry& g = geometries[k % 3];
      const std::size_t channels = (k / 9) % 2 == 0 ? 3 : 1;
      spec.batches.push_back(
          {Shape::bchw(g.batch, channels, g.res, g.res), codecs[(k / 3) % 3]});
    }
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (expected bulk-ref, entropy-auto or loader-mix)");
  }
  return spec;
}

/// The `aicomp gen` recipe.
Tensor generate(const Shape& shape, aic::runtime::Rng& rng) {
  Tensor tensor(shape);
  for (std::size_t b = 0; b < shape[0]; ++b) {
    for (std::size_t c = 0; c < shape[1]; ++c) {
      Tensor plane = aic::data::smooth_field(shape[2], shape[3], rng, 6, 0.5);
      aic::data::add_gaussian_noise(plane, rng, 0.02);
      tensor.set_plane(b, c, plane);
    }
  }
  return tensor;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size_bytes()) == 0;
}

/// PSNR for data in [0, 1] (peak 1.0).
double psnr_db(const Tensor& reference, const Tensor& restored) {
  double squared = 0.0;
  const float* a = reference.raw();
  const float* b = restored.raw();
  for (std::size_t i = 0; i < reference.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    squared += d * d;
  }
  const double mse = squared / static_cast<double>(reference.numel());
  return 10.0 * std::log10(1.0 / std::max(mse, 1e-30));
}

// ---------------------------------------------------------------- spans

struct SpanRecord {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t iteration;
  /// 0 = the op's own calls, 1 = unfused layer probes run after the op.
  std::uint8_t lane;
  std::uint8_t depth;
};

/// In-memory span store of the traced phase; written out at the end.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  void add(const SpanRecord& span) { spans_.push_back(span); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::uint64_t epoch = UINT64_MAX;
    for (const SpanRecord& span : spans_) epoch = std::min(epoch, span.start_ns);
    out << "{\"traceEvents\":[\n"
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"ops\"}},\n"
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
           "\"args\":{\"name\":\"layer probes\"}}";
    out << std::fixed << std::setprecision(3);
    for (const SpanRecord& span : spans_) {
      out << ",\n{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << (span.lane + 1) << ",\"ts\":"
          << static_cast<double>(span.start_ns - epoch) / 1e3
          << ",\"dur\":" << static_cast<double>(span.dur_ns) / 1e3
          << ",\"args\":{\"iteration\":" << span.iteration << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<SpanRecord> spans_;
};

/// RAII span around one public call; a no-op without a tracer. stop()
/// ends it early and returns its duration in seconds.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint32_t iteration,
       std::uint8_t lane, std::uint8_t depth)
      : tracer_(tracer),
        record_{name, now_ns(), 0, iteration, lane, depth} {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop() {
    if (!stopped_) {
      record_.dur_ns = now_ns() - record_.start_ns;
      stopped_ = true;
      if (tracer_ != nullptr) tracer_->add(record_);
    }
    return static_cast<double>(record_.dur_ns) * 1e-9;
  }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  bool stopped_ = false;
};

// -------------------------------------------------------------- metrics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

/// The highest percentile with at least 10 samples beyond it: the 11th
/// largest sample (the maximum when there are fewer than 11).
Tail tail(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) return {values.back(), 100.0};
  return {values[n - 11],
          100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

std::string format_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

// ------------------------------------------------------------ the runner

/// One input batch with its set-up references.
struct Batch {
  std::string codec;
  Tensor input;
  std::string path;          // archive file
  std::string archive;       // reference archive bytes
  Tensor restored;           // reference reconstruction
  double psnr_db = 0.0;
  // Plan parameters of the archive (for the plan-resolve probe).
  bool triangle = false;
  std::size_t subdivision = 1;
  aic::core::DctChopConfig config;
  // Trace probes only: the reference payload's entropy-coded chunks.
  std::vector<std::string> encoded_chunks;
  std::size_t payload_len = 0;
};

/// Counters read at op boundaries in the traced phase.
struct CounterSample {
  double process_cpu = 0.0;
  double caller_cpu = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t mem_hits = 0;
  std::uint64_t mem_misses = 0;
};

class Runner {
 public:
  Runner(const Args& args, WorkloadSpec spec, std::vector<Batch> batches)
      : args_(args),
        spec_(std::move(spec)),
        batches_(std::move(batches)),
        order_rng_(args.seed ^ 0x5eedULL),
        ctx_(context_options(spec_.workers)),
        overlap_gauge_(
            aic::obs::Registry::global().gauge("pipeline.overlap_efficiency")) {
    write_.entropy = spec_.entropy;
  }

  static Context::Options context_options(std::size_t workers) {
    Context::Options options;
    options.threads = workers;
    options.own_pool = true;
    return options;
  }

  /// References, pool-size parity and the archive files.
  void set_up() {
    const Context single(context_options(1));
    std::string single_bytes;
    for (std::size_t i = 0; i < batches_.size(); ++i) {
      Batch& b = batches_[i];
      aic::cli::compress_to_archive_bytes(b.input, b.codec, write_, nullptr,
                                          ctx_, b.archive);
      const aic::cli::Archive archive =
          aic::cli::deserialize_archive(b.archive, ctx_);
      aic::cli::make_archive_codec(archive, ctx_)
          ->decompress_into(archive.packed, archive.original_shape, b.restored);
      if (!(b.restored.shape() == b.input.shape())) {
        throw std::runtime_error("reference decode changed the shape");
      }
      b.psnr_db = psnr_db(b.input, b.restored);
      if (!(b.psnr_db > 20.0)) {
        throw std::runtime_error("reference reconstruction PSNR " +
                                 format_number(b.psnr_db) + " dB is implausible");
      }
      b.triangle = archive.triangle;
      b.subdivision = archive.subdivision;
      b.config = archive.config;
      aic::cli::compress_to_archive_bytes(b.input, b.codec, write_, nullptr,
                                          single, single_bytes);
      if (single_bytes != b.archive) {
        throw std::runtime_error("batch " + std::to_string(i) +
                                 ": a 1-worker context wrote different "
                                 "archive bytes");
      }
      if (spec_.from_files || args_.trace) {
        b.path = args_.work_dir + "/batch" + std::to_string(i) + ".aicz";
        std::ofstream file(b.path, std::ios::binary);
        file.write(b.archive.data(),
                   static_cast<std::streamsize>(b.archive.size()));
        if (!file) throw std::runtime_error("cannot write " + b.path);
      }
      if (args_.trace) {
        const std::string payload = aic::io::serialize_tensor(
            aic::core::make_codec(b.codec, ctx_)->compress(b.input));
        b.payload_len = payload.size();
        for (std::size_t lo = 0; lo < payload.size(); lo += write_.chunk_bytes) {
          const std::size_t len = std::min(write_.chunk_bytes, payload.size() - lo);
          b.encoded_chunks.push_back(aic::baseline::encode_chunk(
              std::string_view(payload).substr(lo, len), spec_.entropy));
        }
      }
      order_.push_back(i);
    }
    std::map<std::pair<std::string, std::size_t>, const Batch*> largest;
    for (const Batch& b : batches_) {
      const Batch*& best = largest[{b.codec, b.input.shape()[2]}];
      if (best == nullptr || b.input.size_bytes() > best->input.size_bytes()) {
        best = &b;
      }
    }
    for (const auto& [kind, b] : largest) setup_batches_.push_back(b);
  }

  /// setup_s: a fresh Context plus the first compress + decompress of the
  /// largest batch of each resolution x codec kind (one plan set each),
  /// timed up to (not including) the context's teardown. For bulk-ref and
  /// entropy-auto that is their one batch shape; loader-mix pays nine
  /// cold starts, as a loader does, instead of one ~2 ms sample.
  double fresh_context_seconds() {
    const std::uint64_t start = now_ns();
    const Context fresh(context_options(spec_.workers));
    std::vector<std::string> bytes(setup_batches_.size());
    std::vector<Tensor> restored(setup_batches_.size());
    for (std::size_t k = 0; k < setup_batches_.size(); ++k) {
      const Batch& b = *setup_batches_[k];
      aic::cli::compress_to_archive_bytes(b.input, b.codec, write_, nullptr,
                                          fresh, bytes[k]);
      const aic::cli::Archive archive =
          aic::cli::deserialize_archive(bytes[k], fresh);
      aic::cli::make_archive_codec(archive, fresh)
          ->decompress_into(archive.packed, archive.original_shape, restored[k]);
    }
    const double seconds = seconds_between(start, now_ns());
    for (std::size_t k = 0; k < setup_batches_.size(); ++k) {
      if (bytes[k] != setup_batches_[k]->archive ||
          !same_tensor(restored[k], setup_batches_[k]->restored)) {
        throw std::runtime_error("a fresh context reproduced different output");
      }
    }
    return seconds;
  }

  /// One closed-loop iteration over batch `order_[i % n]`; the order is
  /// reshuffled every pass, as a data loader shuffles every epoch, so no
  /// fixed batch sequence (and its cache effects) is tied to the seed.
  /// Timed parts go to the sample vectors when `record` is set; outputs
  /// are checked after the timed calls.
  void iterate(std::size_t i, bool record, Tracer* tracer) {
    const std::size_t n = order_.size();
    if (i % n == 0) {
      for (std::size_t k = n; k > 1; --k) {
        std::swap(order_[k - 1], order_[order_rng_.uniform_index(k)]);
      }
    }
    const bool compress = i % spec_.compress_every == spec_.compress_every - 1;
    const Batch& batch = batches_[order_[i % n]];
    const auto iter = static_cast<std::uint32_t>(i);

    CounterSample before;
    if (tracer != nullptr) before = sample_counters();
    Span root(tracer, "op", iter, 0, 0);
    double compress_s = 0.0;
    double decompress_s = 0.0;
    bool compress_ok = true;
    bool decompress_ok = true;
    if (compress) {
      Span span(tracer, "cli.compress_to_archive_bytes", iter, 0, 1);
      try {
        aic::cli::compress_to_archive_bytes(batch.input, batch.codec,
                                            write_, nullptr, ctx_, bytes_);
      } catch (const std::exception& e) {
        compress_ok = false;
        note_failure("compress", e.what());
      }
      compress_s = span.stop();
    }
    if (!spec_.from_files && !compress_ok) {
      decompress_ok = false;  // nothing valid to decode this iteration
    } else {
      const std::uint64_t start = now_ns();
      try {
        aic::cli::Archive archive;
        if (spec_.from_files) {
          Span span(tracer, "io.load_archive", iter, 0, 1);
          archive = aic::cli::load_archive(batch.path);
        } else {
          Span span(tracer, "cli.deserialize_archive", iter, 0, 1);
          archive = aic::cli::deserialize_archive(bytes_, ctx_);
        }
        aic::core::CodecPtr codec;
        {
          Span span(tracer, "core.make_archive_codec", iter, 0, 1);
          codec = aic::cli::make_archive_codec(archive, ctx_);
        }
        Span span(tracer, "tensor.decompress_into", iter, 0, 1);
        codec->decompress_into(archive.packed, archive.original_shape,
                               restored_);
      } catch (const std::exception& e) {
        decompress_ok = false;
        note_failure("decompress", e.what());
      }
      decompress_s = seconds_between(start, now_ns());
    }
    const double op_s = root.stop();
    if (tracer != nullptr) {
      accumulate_counters(before, sample_counters());
      if (compress) overlap_.push_back(overlap_gauge_.value());
      traced_op_s_.push_back(op_s);
    }

    if (compress) {
      ++attempted_;
      if (compress_ok && bytes_ != batch.archive) {
        compress_ok = false;
        note_failure("compress", "archive bytes differ from the reference");
      }
      if (!compress_ok) ++failed_;
    }
    ++attempted_;
    if (decompress_ok && !same_tensor(restored_, batch.restored)) {
      decompress_ok = false;
      note_failure("decompress", "reconstruction differs from the reference");
    }
    if (!decompress_ok) ++failed_;

    if (record) {
      if (compress && compress_ok) {
        compress_s_.push_back(compress_s);
        compress_bytes_ += static_cast<double>(batch.input.size_bytes());
      }
      if (decompress_ok) {
        decompress_s_.push_back(decompress_s);
        decompress_bytes_ += static_cast<double>(batch.input.size_bytes());
      }
      untraced_op_s_.push_back(compress_s + decompress_s);
    }
    if (tracer != nullptr) {
      probe_layers(iter, batch, compress, compress_s, *tracer);
    }
  }

  /// Runs iterations until `seconds` have passed (at least `min_iters`).
  void run_for(double seconds, std::size_t min_iters, bool record,
               Tracer* tracer) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t i = 0; i < min_iters || now_ns() < deadline; ++i) {
      iterate(next_iteration_++, record, tracer);
    }
  }

  // ---- results
  std::vector<Metric> end_to_end_metrics(double setup_s,
                                         std::size_t setup_samples) const {
    std::vector<Metric> m;
    const auto sum = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return s;
    };
    const std::size_t nc = compress_s_.size();
    const std::size_t nd = decompress_s_.size();
    m.push_back({"compress_gbps", compress_bytes_ / sum(compress_s_) / 1e9,
                 "GB/s", nc, ""});
    m.push_back({"decompress_gbps", decompress_bytes_ / sum(decompress_s_) / 1e9,
                 "GB/s", nd, ""});
    const Tail ct = tail(compress_s_);
    const Tail dt = tail(decompress_s_);
    m.push_back({"compress_p50_ms", median(compress_s_) * 1e3, "ms", nc, ""});
    m.push_back({"compress_tail_ms", ct.value * 1e3, "ms", nc,
                 "p" + format_percentile(ct.percentile)});
    m.push_back({"decompress_p50_ms", median(decompress_s_) * 1e3, "ms", nd, ""});
    m.push_back({"decompress_tail_ms", dt.value * 1e3, "ms", nd,
                 "p" + format_percentile(dt.percentile)});
    double input_bytes = 0.0, archive_bytes = 0.0, psnr_sum = 0.0;
    for (const Batch& b : batches_) {
      input_bytes += static_cast<double>(b.input.size_bytes());
      archive_bytes += static_cast<double>(b.archive.size());
      psnr_sum += b.psnr_db;
    }
    m.push_back({"archive_ratio", input_bytes / archive_bytes, "x",
                 batches_.size(), "input bytes / archive bytes"});
    m.push_back({"psnr_db", psnr_sum / static_cast<double>(batches_.size()),
                 "dB", batches_.size(), "mean over batches"});
    m.push_back({"peak_rss_mb",
                 static_cast<double>(aic::testsupport::peak_rss_bytes()) / 1e6,
                 "MB", 1, "VmHWM"});
    m.push_back({"setup_s", setup_s, "s", setup_samples,
                 "median of fresh contexts"});
    return m;
  }

  std::vector<Metric> per_layer_metrics() const {
    const std::vector<double> none;
    const auto ms = [&](const char* span) -> const std::vector<double>& {
      const auto it = layer_s_.find(span);
      return it == layer_s_.end() ? none : it->second;
    };
    const auto count = [&](const char* span) { return ms(span).size(); };
    std::vector<Metric> m;
    const std::size_t ops = traced_op_s_.size();
    m.push_back({"tensor.transform_ms", median(ms("tensor.compress_into")) * 1e3,
                 "ms", count("tensor.compress_into"), "probe: Codec::compress_into"});
    const aic::core::CodecOpStats transform = transform_stats();
    m.push_back({"tensor.transform_gflops", transform.gflops_per_second(),
                 "GFLOP/s", transform.calls, "Eq. 5-7 FLOPs / compress_into time"});
    m.push_back({"tensor.inverse_ms", median(ms("tensor.decompress_into")) * 1e3,
                 "ms", count("tensor.decompress_into"), "in op"});
    m.push_back({"baseline.entropy_encode_ms",
                 median(ms("baseline.encode_chunk")) * 1e3, "ms",
                 count("baseline.encode_chunk"), "probe: encode_chunk over the payload"});
    m.push_back({"baseline.entropy_decode_ms",
                 median(ms("baseline.decode_chunk")) * 1e3, "ms",
                 count("baseline.decode_chunk"), "probe: decode_chunk over the payload"});
    m.push_back({"cli.container_ms", median(container_s_) * 1e3, "ms",
                 container_s_.size(), "fused compress - transform - entropy - crc"});
    m.push_back({"cli.deserialize_ms", median(ms("cli.deserialize_archive")) * 1e3,
                 "ms", count("cli.deserialize_archive"),
                 spec_.from_files ? "probe" : "in op"});
    m.push_back({"cli.overlap_efficiency", mean(overlap_), "ratio",
                 overlap_.size(), "pipeline.overlap_efficiency gauge"});
    m.push_back({"io.crc32c_gbps", crc_bytes_ / crc_seconds_ / 1e9, "GB/s",
                 count("io.crc32c"), "probe: crc32c over the encoded chunks"});
    m.push_back({"io.archive_load_ms", median(ms("io.load_archive")) * 1e3, "ms",
                 count("io.load_archive"), spec_.from_files ? "in op" : "probe"});
    m.push_back({"core.plan_resolve_us", median(ms("core.plan_resolve")) * 1e6,
                 "us", count("core.plan_resolve"), "probe: PlanCache resolve"});
    m.push_back({"core.codec_make_us", median(ms("core.make_archive_codec")) * 1e6,
                 "us", count("core.make_archive_codec"), "in op"});
    m.push_back({"core.plan_cache_hit_ratio",
                 ratio(totals_.plan_hits, totals_.plan_misses), "ratio", ops,
                 "hits / (hits + misses) in ops"});
    m.push_back({"runtime.pool_busy_frac",
                 (totals_.process_cpu - totals_.caller_cpu) /
                     (sum_op_s_ * static_cast<double>(spec_.workers)),
                 "frac", ops, "non-caller CPU / (op wall x workers)"});
    m.push_back({"runtime.mempool_hit_ratio",
                 ratio(totals_.mem_hits, totals_.mem_misses), "ratio", ops,
                 "BufferPool hits / (hits + misses) in ops"});
    m.push_back({"runtime.allocs_per_op",
                 static_cast<double>(totals_.allocs) / static_cast<double>(ops),
                 "count", ops, "operator new calls per iteration"});
    const double untraced = mean(untraced_op_s_);
    m.push_back({"obs.trace_overhead_frac",
                 (mean(traced_op_s_) - untraced) / untraced, "frac", ops,
                 "traced vs untraced mean iteration time"});
    m.push_back({"obs.unattributed_frac", unattributed_s_ / sum_op_s_, "frac",
                 ops, "op time outside every layer span"});
    return m;
  }

  /// Folds the traced phase's spans into per-layer samples.
  void summarize_trace(const Tracer& tracer) {
    for (const SpanRecord& span : tracer.spans()) {
      const double s = static_cast<double>(span.dur_ns) * 1e-9;
      if (span.lane == 0 && span.depth == 0) {
        sum_op_s_ += s;
        unattributed_s_ += s;
      } else if (span.lane == 0) {
        unattributed_s_ -= s;
      }
      if (span.depth == 1) layer_s_[span.name].push_back(s);
    }
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  std::size_t workers() const { return spec_.workers; }
  std::size_t batch_count() const { return batches_.size(); }

 private:
  static std::string format_percentile(double p) {
    std::ostringstream out;
    out << std::setprecision(4) << p;
    return out.str();
  }

  static double ratio(std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  void note_failure(const char* op, const char* what) {
    if (failure_notes_++ < 5) {
      std::cerr << "e2ebench: " << op << " failed: " << what << "\n";
    }
  }

  CounterSample sample_counters() const {
    CounterSample s;
    s.process_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    s.caller_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    s.allocs = aic::testsupport::alloc_stats().total_allocs;
    // load_archive runs on the process-default context, so both
    // contexts' caches and buffer pools count.
    for (const Context* ctx : {&ctx_, &process_ctx_}) {
      const aic::core::PlanCache::Snapshot plans =
          aic::core::PlanCache::of(*ctx).snapshot();
      s.plan_hits += plans.hits;
      s.plan_misses += plans.misses;
      const aic::runtime::BufferPool::Stats mem = ctx->buffer_pool().stats();
      s.mem_hits += mem.hits;
      s.mem_misses += mem.misses;
    }
    return s;
  }

  void accumulate_counters(const CounterSample& a, const CounterSample& b) {
    totals_.process_cpu += b.process_cpu - a.process_cpu;
    totals_.caller_cpu += b.caller_cpu - a.caller_cpu;
    totals_.allocs += b.allocs - a.allocs;
    totals_.plan_hits += b.plan_hits - a.plan_hits;
    totals_.plan_misses += b.plan_misses - a.plan_misses;
    totals_.mem_hits += b.mem_hits - a.mem_hits;
    totals_.mem_misses += b.mem_misses - a.mem_misses;
  }

  const aic::core::CodecPtr& probe_codec(const std::string& spec) {
    aic::core::CodecPtr& codec = probe_codecs_[spec];
    if (!codec) codec = aic::core::make_codec(spec, ctx_);
    return codec;
  }

  aic::core::CodecOpStats transform_stats() const {
    aic::core::CodecOpStats total;
    for (const auto& [spec, codec] : probe_codecs_) {
      const aic::core::CodecOpStats s = codec->stats().snapshot().compress;
      total.calls += s.calls;
      total.flops += s.flops;
      total.seconds += s.seconds;
    }
    return total;
  }

  /// Unfused calls into the layers the op's fused public calls hide
  /// (transform, chunk entropy, CRC, plan lookup), on the op's own data
  /// and the same pool, plus the one decode entry point the op did not
  /// take. Runs after the op, outside its span.
  void probe_layers(std::uint32_t iter, const Batch& batch, bool compressed,
                    double compress_s, Tracer& tracer) {
    const std::size_t chunk_bytes = write_.chunk_bytes;
    const Context::PoolScope scope(ctx_);
    const aic::runtime::ParallelOptions one_per_task{.grain = 1};
    if (compressed) {
      double stages = 0.0;
      {
        Span span(&tracer, "tensor.compress_into", iter, 1, 1);
        probe_codec(batch.codec)->compress_into(batch.input, packed_);
        stages += span.stop();
      }
      const std::string payload = aic::io::serialize_tensor(packed_);
      const std::size_t chunks = (payload.size() + chunk_bytes - 1) / chunk_bytes;
      encoded_.resize(chunks);
      {
        Span span(&tracer, "baseline.encode_chunk", iter, 1, 1);
        aic::runtime::parallel_for(
            0, chunks,
            [&](std::size_t k) {
              const std::size_t lo = k * chunk_bytes;
              encoded_[k] = aic::baseline::encode_chunk(
                  std::string_view(payload).substr(lo, chunk_bytes),
                  spec_.entropy);
            },
            one_per_task);
        stages += span.stop();
      }
      std::vector<std::uint32_t> crcs(chunks);
      double crc_bytes = 0.0;
      for (const std::string& chunk : encoded_) crc_bytes += chunk.size();
      {
        Span span(&tracer, "io.crc32c", iter, 1, 1);
        aic::runtime::parallel_for(
            0, chunks, [&](std::size_t k) {
              crcs[k] = aic::io::crc32c(encoded_[k].data(), encoded_[k].size());
            },
            one_per_task);
        const double s = span.stop();
        stages += s;
        crc_bytes_ += crc_bytes;
        crc_seconds_ += s;
      }
      container_s_.push_back(compress_s - stages);
    }

    plain_.resize(batch.payload_len);
    {
      Span span(&tracer, "baseline.decode_chunk", iter, 1, 1);
      aic::runtime::parallel_for(
          0, batch.encoded_chunks.size(),
          [&](std::size_t k) {
            const std::size_t lo = k * chunk_bytes;
            aic::baseline::decode_chunk(
                batch.encoded_chunks[k],
                std::min(chunk_bytes, batch.payload_len - lo),
                plain_.data() + lo);
          },
          one_per_task);
    }
    {
      const std::size_t h = batch.input.shape()[2];
      const std::size_t w = batch.input.shape()[3];
      const aic::core::DctChopConfig& cfg = batch.config;
      Span span(&tracer, "core.plan_resolve", iter, 1, 1);
      if (batch.triangle) {
        (void)aic::core::resolve_triangle_plan(ctx_, h, w, cfg.cf, cfg.block,
                                               cfg.transform);
      } else if (batch.subdivision > 1) {
        (void)aic::core::resolve_partial_serial_plan(
            ctx_, h, w, cfg.cf, cfg.block, cfg.transform, batch.subdivision);
      } else {
        (void)aic::core::resolve_dct_chop_plan(ctx_, h, w, cfg.cf, cfg.block,
                                               cfg.transform);
      }
    }
    if (spec_.from_files) {
      Span span(&tracer, "cli.deserialize_archive", iter, 1, 1);
      (void)aic::cli::deserialize_archive(batch.archive, ctx_);
    } else {
      Span span(&tracer, "io.load_archive", iter, 1, 1);
      (void)aic::cli::load_archive(batch.path);
    }
  }

  const Args& args_;
  WorkloadSpec spec_;
  std::vector<Batch> batches_;
  std::vector<std::size_t> order_;
  std::vector<const Batch*> setup_batches_;
  aic::runtime::Rng order_rng_;
  Context ctx_;
  Context process_ctx_ = Context::process_default();
  aic::cli::ArchiveWriteOptions write_;
  aic::obs::Gauge& overlap_gauge_;

  // Reused op outputs (the out-param forms keep their capacity).
  std::string bytes_;
  Tensor restored_;
  std::size_t next_iteration_ = 0;

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t failure_notes_ = 0;

  std::vector<double> compress_s_;
  std::vector<double> decompress_s_;
  double compress_bytes_ = 0.0;
  double decompress_bytes_ = 0.0;
  std::vector<double> untraced_op_s_;

  // Traced phase.
  std::map<std::string, aic::core::CodecPtr> probe_codecs_;
  Tensor packed_;
  std::vector<std::string> encoded_;
  std::string plain_;
  std::vector<double> traced_op_s_;
  std::vector<double> container_s_;
  std::vector<double> overlap_;
  std::map<std::string, std::vector<double>> layer_s_;
  CounterSample totals_;
  double crc_bytes_ = 0.0;
  double crc_seconds_ = 0.0;
  double sum_op_s_ = 0.0;
  double unattributed_s_ = 0.0;
};

void print_table(const std::string& title, const std::vector<Metric>& metrics,
                 std::ostream& out) {
  out << title << "\n";
  out << "  " << std::left << std::setw(28) << "metric" << std::right
      << std::setw(16) << "value" << "  " << std::left << std::setw(8)
      << "unit" << std::right << std::setw(8) << "samples" << "  note\n";
  for (const Metric& m : metrics) {
    out << "  " << std::left << std::setw(28) << m.name << std::right
        << std::setw(16) << std::setprecision(6) << m.value << "  " << std::left
        << std::setw(8) << m.unit << std::right << std::setw(8) << m.samples
        << "  " << m.note << "\n";
  }
}

int run(const Args& args) {
  // The process-default pool serves load_archive; size it like the
  // workload's own pool before anything holds it.
  aic::runtime::Rng rng(args.seed);
  WorkloadSpec spec = make_workload(args.workload, args.smoke);
  Context::set_process_threads(spec.workers);

  std::vector<Batch> batches;
  for (const BatchSpec& b : spec.batches) {
    Batch batch;
    batch.codec = b.codec;
    batch.input = generate(b.shape, rng);
    batches.push_back(std::move(batch));
  }
  std::filesystem::create_directories(args.work_dir);
  Runner runner(args, std::move(spec), std::move(batches));
  runner.set_up();

  // At least 11 fresh contexts, more while under a second (up to 101):
  // a small workload's set-up takes milliseconds.
  std::vector<double> setup_samples;
  const std::size_t min_setups = args.smoke ? 3 : 11;
  const std::uint64_t setup_deadline = now_ns() + (args.smoke ? 0 : 1000000000);
  while (setup_samples.size() < min_setups ||
         (setup_samples.size() < 101 && now_ns() < setup_deadline)) {
    setup_samples.push_back(runner.fresh_context_seconds());
  }

  // Warm-up: every batch at least once, and at least half a second.
  const std::size_t min_iters = std::max<std::size_t>(3, runner.batch_count());
  runner.run_for(args.smoke ? 0.0 : 0.5, min_iters, false, nullptr);

  std::ostringstream header;
  header << "e2ebench workload=" << args.workload << " seed=" << args.seed
         << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
         << " workers=" << runner.workers() << " batches=" << runner.batch_count()
         << (args.smoke ? " smoke" : "");

  std::vector<Metric> metrics;
  if (!args.trace) {
    const HostTicks before = host_ticks();
    runner.run_for(args.seconds, 1, true, nullptr);
    const HostTicks after = host_ticks();
    metrics = runner.end_to_end_metrics(median(setup_samples),
                                        setup_samples.size());
    print_table(header.str(), metrics, std::cout);
    // Not a metric: a diagnostic for runs the host slowed down.
    const double steal =
        after.total == before.total
            ? 0.0
            : static_cast<double>(after.steal - before.steal) /
                  static_cast<double>(after.total - before.total);
    std::cout << "  host_steal_frac " << format_number(steal)
              << " (share of CPU time the hypervisor gave other guests)\n";
  } else {
    runner.run_for(args.seconds / 2, 1, true, nullptr);
    Tracer tracer;
    runner.run_for(args.seconds / 2, 1, false, &tracer);
    runner.summarize_trace(tracer);
    metrics = runner.per_layer_metrics();
    std::filesystem::create_directories(args.trace_dir);
    const std::string base = args.trace_dir + "/" + args.workload;
    if (!tracer.write_chrome_trace(base + ".trace.json")) {
      throw std::runtime_error("cannot write " + base + ".trace.json");
    }
    std::ofstream table(base + ".layers.tsv");
    table << "metric\tvalue\tunit\tsamples\tnote\n";
    for (const Metric& m : metrics) {
      table << m.name << "\t" << format_number(m.value) << "\t" << m.unit
            << "\t" << m.samples << "\t" << m.note << "\n";
    }
    print_table(header.str(), metrics, std::cout);
    std::cout << "  spans: " << base << ".trace.json  table: " << base
              << ".layers.tsv\n";
  }

  const std::size_t attempted = runner.attempted();
  const std::size_t failed = runner.failed();
  std::cout << "  failed_frac " << format_number(static_cast<double>(failed) /
                                                 static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " ops)\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << format_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
