// Kernel and single-network micro-phase of the traced run.
//
// Shapes come from the ConvNet (width 8, 16x16 RGB input) the workloads
// train and serve.  Training GEMMs are those of its widest convolution
// (8 -> 16 channels at 16x16, im2col per image): forward nn, weight-gradient
// nt and input-gradient tn.  Serving GEMMs are those of its first dense
// layer (256 -> 64), the only GEMM whose shape follows the micro-batch.
// GFLOP/s and GOP/s are computed from the shapes (2*m*n*k per call), not
// counted by hardware.
#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "core/rng.hpp"
#include "data/synthetic.hpp"
#include "kernels/quant.hpp"
#include "models/model_zoo.hpp"
#include "nn/loss.hpp"
#include "stats.hpp"
#include "tensor/gemm.hpp"
#include "tensor/qgemm.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kTrainBatch = 32;  ///< TrainOptions default batch
constexpr std::size_t kDenseIn = 256;    ///< 2 * width * 4 * 4
constexpr std::size_t kDenseOut = 64;    ///< 8 * width

/// Median seconds per call: 7 rounds, each timing enough calls to span
/// about 20 ms.
double time_call(const std::function<void()>& fn) {
  fn();
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (std::chrono::duration<double>(Clock::now() - t0).count() > 0.02) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int round = 0; round < 7; ++round) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                       static_cast<double>(calls));
  }
  return summarize(per_call).p50;
}

std::vector<float> random_floats(std::size_t n, tdfm::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(-1.0F, 1.0F);
  return v;
}

double gflops(std::size_t m, std::size_t n, std::size_t k, double seconds) {
  return 2.0 * static_cast<double>(m * n * k) / seconds * 1e-9;
}

}  // namespace

Result trace_kernels(const Options& opts) {
  Result r;
  r.notes.push_back("kernels: GFLOP/s and GOP/s are computed from the GEMM shapes "
                    "(2*m*n*k per call), not counted by hardware");
  Span root("kernels.microphase");
  tdfm::Rng rng(opts.seed + 17);

  // Training GEMMs at the widest convolution: out_c x (in_c*9) x (16*16).
  const std::size_t oc = 16;
  const std::size_t patch = 8 * 9;
  const std::size_t pixels = 16 * 16;
  const auto w = random_floats(oc * patch, rng);
  const auto cols = random_floats(patch * pixels, rng);
  const auto gout = random_floats(oc * pixels, rng);
  std::vector<float> out(std::max({oc * pixels, oc * patch, patch * pixels}));
  {
    Span s("kernels.gemm.train");
    r.add("kernels.gemm_gflops.nn",
          gflops(oc, pixels, patch, time_call([&] {
                   tdfm::gemm_nn(oc, pixels, patch, w.data(), cols.data(), out.data());
                 })),
          "GFLOP/s");
    r.add("kernels.gemm_gflops.nt",
          gflops(oc, patch, pixels, time_call([&] {
                   tdfm::gemm_nt(oc, patch, pixels, gout.data(), cols.data(), out.data());
                 })),
          "GFLOP/s");
    r.add("kernels.gemm_gflops.tn",
          gflops(patch, pixels, oc, time_call([&] {
                   tdfm::gemm_tn(patch, pixels, oc, w.data(), gout.data(), out.data());
                 })),
          "GFLOP/s");
  }

  // Serving GEMMs at the first dense layer, batch 1 and 8: fp32 gemm_nt,
  // activation quantization and the exact-int8 q8_0 GEMM.
  const auto dense_w = random_floats(kDenseOut * kDenseIn, rng);
  const tdfm::kernels::Q8Matrix qw =
      tdfm::kernels::quantize_rows_q8(dense_w.data(), kDenseOut, kDenseIn);
  {
    Span s("kernels.gemm.serve");
    for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
      const std::string tag = ".b" + std::to_string(b);
      const auto act = random_floats(b * kDenseIn, rng);
      std::vector<float> c(b * kDenseOut);
      r.add("kernels.gemm_gflops.serve" + tag,
            gflops(b, kDenseOut, kDenseIn, time_call([&] {
                     tdfm::gemm_nt(b, kDenseOut, kDenseIn, act.data(), dense_w.data(),
                                   c.data());
                   })),
            "GFLOP/s");
      tdfm::kernels::Q8Matrix qa;
      r.add("kernels.quantize_rows_us" + tag, time_call([&] {
              tdfm::kernels::quantize_rows_q8(act.data(), b, kDenseIn, qa);
            }) * 1e6,
            "us");
      r.add("kernels.qgemm_gops" + tag,
            gflops(b, kDenseOut, kDenseIn,
                   time_call([&] { tdfm::gemm_q8_nt(qa, qw, c.data()); })),
            "GOP/s");
    }
  }

  // Whole-network passes: training step at the train batch, and fp32 / q8
  // inference at batch 1 and 8.
  tdfm::data::SyntheticSpec spec;
  spec.kind = tdfm::data::DatasetKind::kCifar10Sim;
  const auto config = tdfm::models::ModelConfig::for_dataset(spec, 8);
  auto net = tdfm::models::build_model(tdfm::models::Arch::kConvNet, config, rng);
  const auto batch_of = [&](std::size_t b) {
    tdfm::Tensor t({b, config.in_channels, config.image_size, config.image_size});
    const auto v = random_floats(t.numel(), rng);
    std::copy(v.begin(), v.end(), t.data());
    return t;
  };
  {
    Span s("nn.train_step");
    const tdfm::Tensor x = batch_of(kTrainBatch);
    std::vector<int> labels(kTrainBatch);
    for (std::size_t i = 0; i < kTrainBatch; ++i) labels[i] = static_cast<int>(i % 10);
    const tdfm::Tensor targets = tdfm::nn::one_hot(labels, config.num_classes);
    tdfm::nn::CrossEntropyLoss ce;
    tdfm::Tensor grad;
    const double fwd = time_call([&] { (void)net->logits(x, /*training=*/true); });
    const tdfm::Tensor logits = net->logits(x, true);
    (void)ce.compute(logits, targets, grad);
    const double bwd = time_call([&] {
      (void)net->logits(x, true);
      net->backward(grad);
    }) - fwd;
    r.add("nn.fwd_ms.train", fwd * 1e3, "ms");
    r.add("nn.bwd_ms.train", bwd * 1e3, "ms");
    r.add("nn.train_samples_per_s", static_cast<double>(kTrainBatch) / (fwd + bwd),
          "samples/s");
  }
  {
    Span s("nn.infer.q8");
    auto q8 = tdfm::models::build_model(tdfm::models::Arch::kConvNet, config, rng);
    q8->copy_weights_from(*net);
    q8->quantize_for_inference();
    for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
      const tdfm::Tensor x = batch_of(b);
      r.add("nn.fwd_us.q8.b" + std::to_string(b),
            time_call([&] { (void)q8->logits(x, false); }) * 1e6, "us");
    }
  }
  return r;
}

}  // namespace perfbench
