/**
 * @file
 * One slot of a lock-free ring of trivially copyable records, the
 * publication scheme the flight recorder and the profiler's sample
 * ring share. A writer claims the slot by CAS on its stamp, copies
 * the record in word by word through relaxed atomics, and
 * release-publishes a stable stamp; a reader copies the words out
 * between two equal stable stamps. Writers never race on the data
 * (only the claim owner writes it) and a reader never sees a torn
 * record, so neither side touches plain shared memory.
 */

#ifndef DJINN_TELEMETRY_SEQLOCK_HH
#define DJINN_TELEMETRY_SEQLOCK_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace djinn {
namespace telemetry {

template <typename T>
class SeqlockSlot
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    /**
     * Publish @p value as generation @p gen, without waiting (a
     * signal handler may write). False when the slot already holds,
     * or is mid-write by, another generation that it keeps: a
     * newer one, or an older writer still copying.
     */
    bool
    write(uint64_t gen, const T &value)
    {
        uint64_t words[kWords] = {};
        std::memcpy(words, &value, sizeof(T));
        const uint64_t busy = 2 * gen + 3;
        uint64_t current = stamp_.load(std::memory_order_relaxed);
        while (!(current & 1) && current < busy) {
            if (stamp_.compare_exchange_weak(current, busy,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
                for (size_t i = 0; i < kWords; ++i)
                    words_[i].store(words[i], std::memory_order_relaxed);
                stamp_.store(busy - 1, std::memory_order_release);
                return true;
            }
        }
        return false;
    }

    /** Copy out the published record and its generation; false
     * when the slot is empty or a writer kept it busy. */
    bool
    read(T &out, uint64_t &gen) const
    {
        for (int attempt = 0; attempt < 16; ++attempt) {
            uint64_t before = stamp_.load(std::memory_order_acquire);
            if (before == 0 || (before & 1))
                return false;
            uint64_t words[kWords];
            for (size_t i = 0; i < kWords; ++i)
                words[i] = words_[i].load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (stamp_.load(std::memory_order_relaxed) == before) {
                std::memcpy(&out, words, sizeof(T));
                gen = before / 2 - 1;
                return true;
            }
        }
        return false;
    }

  private:
    static constexpr size_t kWords =
        (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

    /** 0 empty; 2 * (gen + 1) stable; one more while gen's writer
     * copies. */
    std::atomic<uint64_t> stamp_{0};
    std::atomic<uint64_t> words_[kWords];
};

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_SEQLOCK_HH
