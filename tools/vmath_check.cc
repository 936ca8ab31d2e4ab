/**
 * @file
 * Exhaustive proof of the guarded vector math (DESIGN.md §8): runs
 * nn::vmath::exp, pow075 and sigmoid on all 2^32 float bit patterns,
 * on 4 threads, and compares each result's bits with
 * std::exp(float), std::pow(float, 0.75f) and 1 / (1 + std::exp(-x))
 * from the libm this process loaded. Prints the mismatches and the
 * share of lanes that took the scalar call; exits 1 on any mismatch.
 *
 *   ./build/tools/vmath_check
 */

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "nn/vmath.hh"

namespace {

constexpr int kThreads = 4;
constexpr uint64_t kBlock = 1 << 16;
constexpr uint64_t kInputs = uint64_t(1) << 32;

struct Tally {
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> fallbacks{0};
    std::atomic<uint32_t> firstBad{0};
};

/** Checks blocks t, t + kThreads, ... of the 2^32 inputs. */
template <typename Vec, typename Ref>
void
checkSlice(int t, Vec vec, Ref ref, Tally &tally)
{
    std::vector<float> in(kBlock), out(kBlock);
    uint64_t mismatches = 0, fallbacks = 0;
    for (uint64_t b = uint64_t(t) * kBlock; b < kInputs;
         b += kThreads * kBlock) {
        for (uint64_t i = 0; i < kBlock; ++i)
            in[i] = std::bit_cast<float>(static_cast<uint32_t>(b + i));
        fallbacks += vec(in.data(), out.data(), int64_t(kBlock));
        for (uint64_t i = 0; i < kBlock; ++i) {
            if (std::bit_cast<uint32_t>(out[i]) !=
                std::bit_cast<uint32_t>(ref(in[i]))) {
                if (mismatches++ == 0)
                    tally.firstBad = static_cast<uint32_t>(b + i);
            }
        }
    }
    tally.mismatches += mismatches;
    tally.fallbacks += fallbacks;
}

template <typename Vec, typename Ref>
bool
check(const char *name, Vec vec, Ref ref)
{
    Tally tally;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { checkSlice(t, vec, ref, tally); });
    for (auto &th : threads)
        th.join();
    uint64_t bad = tally.mismatches;
    std::printf("vmath_check: %-7s %" PRIu64 " mismatches over 2^32 "
                "inputs, %.4f%% of lanes fell back",
                name, bad, 100.0 * double(tally.fallbacks) / double(kInputs));
    if (bad)
        std::printf(" (one at input bits 0x%08" PRIx32 ")",
                    tally.firstBad.load());
    std::printf("\n");
    return bad == 0;
}

} // namespace

int
main()
{
    using namespace djinn::nn;
    bool ok = check("exp", vmath::exp, [](float v) { return std::exp(v); });
    ok &= check("pow075", vmath::pow075,
                [](float v) { return std::pow(v, 0.75f); });
    ok &= check("sigmoid", vmath::sigmoid,
                [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
    return ok ? 0 : 1;
}
