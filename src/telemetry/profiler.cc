#include "telemetry/profiler.hh"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "common/strings.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace telemetry {

namespace {

size_t
roundUpPow2(size_t v)
{
    size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Destination ring for the signal handler; null when stopped. */
std::atomic<StackRing *> g_ring{nullptr};

extern "C" void
profilerSignalHandler(int, siginfo_t *, void *)
{
    int saved_errno = errno;
    StackRing *ring = g_ring.load(std::memory_order_acquire);
    if (ring) {
        StackSample s;
        void *raw[StackSample::kMaxDepth + 2];
        int n = ::backtrace(raw, StackSample::kMaxDepth + 2);
        // Skip this handler and the kernel signal trampoline so
        // stacks start at the interrupted frame.
        int skip = n > 2 ? 2 : 0;
        s.depth = n - skip;
        std::memcpy(s.pcs, raw + skip,
                    static_cast<size_t>(s.depth) * sizeof(void *));
        const char *name = common::currentThreadName();
        size_t i = 0;
        for (; i + 1 < sizeof(s.thread) && name[i]; ++i)
            s.thread[i] = name[i];
        s.thread[i] = '\0';
        ring->push(s);
    }
    errno = saved_errno;
}

} // namespace

StackRing::StackRing(size_t capacity)
    : capacity_(roundUpPow2(std::max<size_t>(capacity, 8))),
      slots_(new SeqlockSlot<StackSample>[capacity_])
{}

void
StackRing::push(const StackSample &sample)
{
    // A slot that is mid-write or already holds a newer ticket
    // drops this sample, and drain() counts it lost.
    uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    slots_[ticket & (capacity_ - 1)].write(ticket, sample);
}

std::vector<StackSample>
StackRing::drain()
{
    uint64_t end = next_.load(std::memory_order_acquire);
    uint64_t begin = readSeq_;
    if (end > capacity_ && begin < end - capacity_) {
        // Older slots were overwritten before we got here.
        dropped_.fetch_add((end - capacity_) - begin,
                           std::memory_order_relaxed);
        begin = end - capacity_;
    }
    std::vector<StackSample> out;
    out.reserve(static_cast<size_t>(end - begin));
    for (uint64_t t = begin; t < end; ++t) {
        StackSample sample;
        uint64_t ticket;
        if (!slots_[t & (capacity_ - 1)].read(sample, ticket) ||
            ticket != t) {
            // Mid-write, dropped by its pusher, or already recycled
            // by a newer generation.
            dropped_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        out.push_back(sample);
    }
    readSeq_ = end;
    return out;
}

std::string
defaultSymbolize(void *pc)
{
    Dl_info info;
    if (::dladdr(pc, &info) && info.dli_sname) {
        int status = 0;
        char *demangled = abi::__cxa_demangle(info.dli_sname,
                                              nullptr, nullptr,
                                              &status);
        std::string name = status == 0 && demangled
                               ? demangled
                               : info.dli_sname;
        std::free(demangled);
        // Drop the argument list; flamegraph frames only want the
        // qualified function name.
        size_t paren = name.find('(');
        if (paren != std::string::npos)
            name.resize(paren);
        return name;
    }
    if (::dladdr(pc, &info) && info.dli_fname) {
        const char *base = std::strrchr(info.dli_fname, '/');
        base = base ? base + 1 : info.dli_fname;
        return strprintf("%s+0x%zx", base,
                         reinterpret_cast<size_t>(pc) -
                             reinterpret_cast<size_t>(
                                 info.dli_fbase));
    }
    return strprintf("0x%zx", reinterpret_cast<size_t>(pc));
}

std::string
renderCollapsed(const std::vector<StackSample> &samples,
                const Symbolizer &symbolize)
{
    // Symbolize each distinct pc once; a 1-second window at 97 Hz
    // repeats the same hot frames over and over.
    std::map<void *, std::string> names;
    auto frameName = [&](void *pc) -> const std::string & {
        auto it = names.find(pc);
        if (it == names.end()) {
            std::string n = symbolize(pc);
            // Sanitize: the collapsed format tokenizes on ';' and
            // the final space.
            for (char &c : n) {
                if (c == ';' || c == ' ' || c == '\n')
                    c = '_';
            }
            if (n.empty())
                n = "?";
            it = names.emplace(pc, std::move(n)).first;
        }
        return it->second;
    };

    std::map<std::string, uint64_t> stacks;
    for (const StackSample &s : samples) {
        if (s.depth <= 0)
            continue;
        std::string line =
            s.thread[0] ? s.thread : "unnamed";
        // backtrace() is deepest-first; collapsed stacks read
        // root-first.
        for (int i = s.depth - 1; i >= 0; --i) {
            line += ';';
            line += frameName(s.pcs[i]);
        }
        ++stacks[line];
    }

    std::vector<std::pair<std::string, uint64_t>> sorted(
        stacks.begin(), stacks.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    std::string out;
    for (const auto &[line, count] : sorted) {
        out += line;
        out += strprintf(" %llu\n",
                         static_cast<unsigned long long>(count));
    }
    return out;
}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

Status
Profiler::start(int hz)
{
    if (running_.load())
        return Status::invalidArgument("profiler already running");
    hz = std::clamp(hz, 1, 1000);

    // Pre-warm backtrace: its first call may load libgcc via
    // dlopen, which is not async-signal-safe; from here on the
    // handler's call is.
    void *warm[4];
    ::backtrace(warm, 4);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = profilerSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
        return Status::unavailable(
            std::string("sigaction(SIGPROF): ") +
            std::strerror(errno));
    }

    g_ring.store(&ring_, std::memory_order_release);

    itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec =
        static_cast<suseconds_t>(1000000 / hz);
    timer.it_value = timer.it_interval;
    if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
        g_ring.store(nullptr, std::memory_order_release);
        ::signal(SIGPROF, SIG_IGN);
        return Status::unavailable(
            std::string("setitimer(ITIMER_PROF): ") +
            std::strerror(errno));
    }
    hz_ = hz;
    running_.store(true);
    return Status::ok();
}

void
Profiler::stop()
{
    if (!running_.exchange(false))
        return;
    itimerval off;
    std::memset(&off, 0, sizeof(off));
    ::setitimer(ITIMER_PROF, &off, nullptr);
    // A signal delivered between the disarm and here still finds a
    // valid ring; detach it afterwards and ignore stragglers.
    g_ring.store(nullptr, std::memory_order_release);
    ::signal(SIGPROF, SIG_IGN);
    hz_ = 0;
}

Result<std::string>
Profiler::collect(double seconds, int temporaryHz)
{
    if (seconds <= 0.0 || seconds > 60.0) {
        return Status::invalidArgument(
            "profile window must be in (0, 60] seconds");
    }
    if (collecting_.exchange(true)) {
        return Status::unavailable(
            "another profile collection is in progress");
    }
    bool self_started = false;
    if (!running_.load()) {
        Status s = start(temporaryHz);
        if (!s.isOk()) {
            collecting_.store(false);
            return s;
        }
        self_started = true;
    }
    ring_.drain(); // discard anything captured before the window
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
    std::vector<StackSample> samples = ring_.drain();
    if (self_started)
        stop();
    collecting_.store(false);
    return renderCollapsed(samples);
}

} // namespace telemetry
} // namespace djinn
