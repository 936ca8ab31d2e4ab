/**
 * @file
 * Determinism regression: the forward pass of every zoo network
 * must be bit-identical across runs and across compute-thread
 * counts. The committed golden checksums additionally pin the
 * numerics against accidental kernel changes: the GEMM core is
 * compiled with -ffp-contract=off and fixes its reduction order, so
 * these values are stable across rebuilds and across machines with
 * the same libm.
 *
 * If a checksum changes *intentionally* (e.g. a deliberate kernel
 * reblocking), rerun this test and update the table below with the
 * printed values — that is a reviewable numerics change, which is
 * the point.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "common/thread_pool.hh"
#include "nn/tensor.hh"
#include "nn/zoo.hh"

namespace djinn {
namespace nn {
namespace {

/** Restores the global pool to its automatic size on scope exit. */
struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

/** FNV-1a over the float bit patterns of a tensor. */
uint64_t
bitChecksum(const Tensor &t)
{
    uint64_t h = 1469598103934665603ULL;
    const float *data = t.data();
    int64_t elems = t.shape().elems();
    for (int64_t e = 0; e < elems; ++e) {
        uint32_t bits;
        std::memcpy(&bits, &data[e], sizeof(bits));
        for (int i = 0; i < 4; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

/** A deterministic, sample-varying input batch. */
Tensor
testInput(const Network &net, int64_t batch)
{
    Tensor in(net.inputShape().withBatch(batch));
    float *data = in.data();
    int64_t elems = in.shape().elems();
    // Low-discrepancy fill in [-1, 1): cheap, reproducible, and not
    // constant across pixels or samples.
    uint64_t state = 0x243f6a8885a308d3ULL;
    for (int64_t e = 0; e < elems; ++e) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        data[e] = static_cast<float>(
                      static_cast<uint32_t>(state >> 40)) /
                      8388608.0f -
                  1.0f;
    }
    return in;
}

/**
 * Golden output checksums for seed 42, batch 2, the testInput()
 * fill above. Computed once and committed; see the file comment for
 * the update procedure.
 */
const std::map<std::string, uint64_t> kGolden = {
    {"alexnet", 0xf4815ca21ec919daULL},
    {"mnist", 0x211f0f470da91a94ULL},
    {"deepface", 0x900b69d4762626aaULL},
    {"kaldi_asr", 0x97072a72c3445e62ULL},
    {"senna_pos", 0x2527cede646cf47dULL},
    {"senna_chk", 0x4b847f5e8d3edb78ULL},
    {"senna_ner", 0x87ab2d3e7c55bcf0ULL},
};

/**
 * Golden output checksums for the quantized zoo (DESIGN.md §14):
 * same seed/batch/input as kGolden, lowered with zoo::build(model,
 * precision). bf16 only reorders operand storage bits and int8
 * accumulates in integers, so both are bit-stable across thread
 * counts, runs, and machines; the committed values pin the
 * quantization scheme (calibration batch, scale derivation, rounding)
 * against accidental change.
 */
const std::map<std::string, uint64_t> kGoldenBf16 = {
    {"alexnet", 0x1f59275baaac37e5ULL},
    {"mnist", 0x9fc978b5732128a3ULL},
    {"deepface", 0xcd8f630eb9d14cebULL},
    {"kaldi_asr", 0xd5a3277eae4abd74ULL},
    {"senna_pos", 0xfa2eefc14ab5985bULL},
    {"senna_chk", 0x899ed9e8482cf5afULL},
    {"senna_ner", 0x1f29660b604c16b9ULL},
};

const std::map<std::string, uint64_t> kGoldenInt8 = {
    {"alexnet", 0xa9444c34c64ef463ULL},
    {"mnist", 0x7ebbe47425989e02ULL},
    {"deepface", 0x302869f22f18e802ULL},
    {"kaldi_asr", 0xc7110d9fbfeb3ae2ULL},
    {"senna_pos", 0xb8e9082b4fbbf014ULL},
    {"senna_chk", 0xcc8d8ae03f050b25ULL},
    {"senna_ner", 0x3a33aef0a26f9deaULL},
};

TEST(Determinism, ZooForwardBitIdenticalAcrossRunsAndThreads)
{
    PoolSizeGuard guard;
    bool goldenMismatch = false;
    for (zoo::Model model : zoo::allModels()) {
        std::string name = zoo::modelName(model);
        SCOPED_TRACE(name);
        NetworkPtr net = zoo::build(model, 42);
        Tensor in = testInput(*net, 2);

        // Two runs at the same thread count: run-to-run stability.
        common::setComputeThreads(2);
        uint64_t sum = bitChecksum(net->forward(in));
        EXPECT_EQ(bitChecksum(net->forward(in)), sum)
            << name << ": forward pass is not run-to-run stable";

        // Across thread counts: the fixed reduction order must make
        // the output independent of the pool size.
        for (int threads : {1, 8}) {
            common::setComputeThreads(threads);
            EXPECT_EQ(bitChecksum(net->forward(in)), sum)
                << name << ": output depends on thread count "
                << threads;
        }

        // With pool parallelism off entirely.
        {
            common::SerialScope serial;
            EXPECT_EQ(bitChecksum(net->forward(in)), sum)
                << name << ": a serial forward changes the output";
        }

        auto it = kGolden.find(name);
        ASSERT_NE(it, kGolden.end()) << "no golden for " << name;
        if (sum != it->second) {
            goldenMismatch = true;
            ADD_FAILURE()
                << name << ": golden checksum mismatch, got 0x"
                << std::hex << sum << " want 0x" << it->second
                << " (update kGolden if this change is intended)";
        }
    }
    if (goldenMismatch) {
        // Print the full refreshed table for easy copy-paste.
        std::string table;
        common::setComputeThreads(1);
        for (zoo::Model model : zoo::allModels()) {
            NetworkPtr net = zoo::build(model, 42);
            Tensor in = testInput(*net, 2);
            char line[96];
            std::snprintf(line, sizeof(line),
                          "    {\"%s\", 0x%016llxULL},\n",
                          zoo::modelName(model),
                          static_cast<unsigned long long>(
                              bitChecksum(net->forward(in))));
            table += line;
        }
        ADD_FAILURE() << "refreshed golden table:\n" << table;
    }
}

TEST(Determinism, QuantizedZooForwardBitIdenticalAcrossRunsAndThreads)
{
    PoolSizeGuard guard;
    struct PrecisionGolden {
        Precision precision;
        const std::map<std::string, uint64_t> *golden;
    };
    const PrecisionGolden tables[] = {
        {Precision::Bf16, &kGoldenBf16},
        {Precision::Int8, &kGoldenInt8},
    };
    for (const PrecisionGolden &t : tables) {
        bool goldenMismatch = false;
        const char *prec = precisionName(t.precision);
        for (zoo::Model model : zoo::allModels()) {
            std::string name = zoo::modelName(model);
            SCOPED_TRACE(name + "/" + prec);
            // Calibration itself must be thread-count independent
            // for the weights/scales to be reproducible; build under
            // one pool size, forward under others.
            common::setComputeThreads(2);
            NetworkPtr net = zoo::build(model, t.precision, 42);
            ASSERT_EQ(net->precision(), t.precision);
            Tensor in = testInput(*net, 2);

            uint64_t sum = bitChecksum(net->forward(in));
            EXPECT_EQ(bitChecksum(net->forward(in)), sum)
                << name << "/" << prec
                << ": forward pass is not run-to-run stable";

            for (int threads : {1, 8}) {
                common::setComputeThreads(threads);
                EXPECT_EQ(bitChecksum(net->forward(in)), sum)
                    << name << "/" << prec
                    << ": output depends on thread count " << threads;
            }

            // With pool parallelism off entirely.
            {
                common::SerialScope serial;
                EXPECT_EQ(bitChecksum(net->forward(in)), sum)
                    << name << "/" << prec
                    << ": a serial forward changes the output";
            }

            // A rebuilt network reproduces the same bits: the
            // calibration pipeline has no hidden state.
            common::setComputeThreads(1);
            NetworkPtr again = zoo::build(model, t.precision, 42);
            EXPECT_EQ(bitChecksum(again->forward(in)), sum)
                << name << "/" << prec
                << ": rebuild does not reproduce the output";

            auto it = t.golden->find(name);
            ASSERT_NE(it, t.golden->end())
                << "no golden for " << name << "/" << prec;
            if (sum != it->second) {
                goldenMismatch = true;
                ADD_FAILURE()
                    << name << "/" << prec
                    << ": golden checksum mismatch, got 0x"
                    << std::hex << sum << " want 0x" << it->second
                    << " (update the table if this change is "
                       "intended)";
            }
        }
        if (goldenMismatch) {
            std::string table;
            common::setComputeThreads(1);
            for (zoo::Model model : zoo::allModels()) {
                NetworkPtr net = zoo::build(model, t.precision, 42);
                Tensor in = testInput(*net, 2);
                char line[96];
                std::snprintf(line, sizeof(line),
                              "    {\"%s\", 0x%016llxULL},\n",
                              zoo::modelName(model),
                              static_cast<unsigned long long>(
                                  bitChecksum(net->forward(in))));
                table += line;
            }
            ADD_FAILURE() << "refreshed " << prec
                          << " golden table:\n" << table;
        }
    }
}

} // namespace
} // namespace nn
} // namespace djinn
