/**
 * @file
 * pcprof: a preloadable sampling profiler.
 *
 *   LD_PRELOAD=build/libpcprof.so PCPROF_DIR=prof build/driver ...
 *   python3 tools/pcprof/pcprof_report.py prof
 *
 * When loaded it arms ITIMER_PROF, so the kernel sends SIGPROF after
 * every 4 ms of CPU time the process uses, on any thread; the handler
 * records the interrupted program counter.
 * At exit it writes PCPROF_DIR/pcprof.PID.txt (PCPROF_DIR defaults to
 * the working directory): the loaded objects that hold samples (with
 * their mtime and size), then each sampled PC relative to its
 * object's load base with its count, which is the address addr2line
 * takes. One file per process, so the
 * runs of many processes pool; a fork()ed child starts an empty
 * profile of its own. The profiled program is not changed, only
 * interrupted.
 */

#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace
{

/** Room for 70 minutes of CPU time at 250 Hz; later samples are
 *  counted as dropped. The pages are touched only as samples land. */
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

/** The kernel checks CPU-time timers on its scheduler tick, 250 Hz
 *  in common configurations, so a finer interval samples no faster. */
constexpr long kHz = 250;

std::uintptr_t samples[kMaxSamples];
std::atomic<std::size_t> taken{0};

std::uintptr_t
interruptedPc(const void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcprof: no program-counter accessor for this architecture"
#endif
}

void
onProf(int, siginfo_t *, void *context)
{
    const std::size_t slot = taken.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxSamples)
        samples[slot] = interruptedPc(context);
}

/** Start sampling, or stop it with @p on false. */
void
arm(bool on)
{
    itimerval timer{};
    if (on) {
        timer.it_interval.tv_usec = 1000000 / kHz;
        timer.it_value = timer.it_interval;
    }
    setitimer(ITIMER_PROF, &timer, nullptr);
}

/** A loaded object: its path, load bias and executable segments. */
struct Module
{
    std::string path;
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> code;
};

int
collectModule(dl_phdr_info *info, std::size_t, void *data)
{
    Module module;
    module.path = info->dlpi_name ? info->dlpi_name : "";
    module.bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &phdr = info->dlpi_phdr[i];
        if (phdr.p_type == PT_LOAD && (phdr.p_flags & PF_X)) {
            const std::uintptr_t lo = module.bias + phdr.p_vaddr;
            module.code.emplace_back(lo, lo + phdr.p_memsz);
        }
    }
    static_cast<std::vector<Module> *>(data)->push_back(
        std::move(module));
    return 0;
}

std::string
executablePath()
{
    char path[4096];
    const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
    return n > 0 ? std::string(path, static_cast<std::size_t>(n)) : "";
}

void
writeProfile()
{
    arm(false);
    const std::size_t total = taken.load();
    const std::size_t kept = total < kMaxSamples ? total : kMaxSamples;

    std::vector<Module> modules;
    dl_iterate_phdr(collectModule, &modules);
    for (Module &module : modules) {
        if (module.path.empty()) {  // the main program
            module.path = executablePath();
            break;
        }
    }

    // (module, PC relative to its load base) -> samples; samples in
    // no known object (JIT code, say) fold into one unknown row.
    std::map<std::pair<std::size_t, std::uintptr_t>, std::size_t> folded;
    std::size_t unknown = 0;
    for (std::size_t i = 0; i < kept; ++i) {
        const std::uintptr_t pc = samples[i];
        bool found = false;
        for (std::size_t m = 0; m < modules.size() && !found; ++m) {
            for (const auto &[lo, hi] : modules[m].code) {
                if (pc >= lo && pc < hi) {
                    ++folded[{m, pc - modules[m].bias}];
                    found = true;
                    break;
                }
            }
        }
        if (!found)
            ++unknown;
    }

    const char *dir = std::getenv("PCPROF_DIR");
    const std::string path = std::string(dir && *dir ? dir : ".") +
                             "/pcprof." + std::to_string(getpid()) +
                             ".txt";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "pcprof: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "# pcprof hz %ld samples %zu dropped %zu unknown %zu\n",
                 kHz, kept, total - kept, unknown);
    // Each object's mtime and size let the report notice a binary
    // rebuilt since, whose symbols no longer match these PCs.
    std::vector<bool> listed(modules.size(), false);
    for (const auto &[key, count] : folded) {
        if (!listed[key.first]) {
            listed[key.first] = true;
            const std::string &object = modules[key.first].path;
            struct stat st {};
            stat(object.c_str(), &st);
            std::fprintf(out, "module %zu %lld %lld %s\n", key.first,
                         static_cast<long long>(st.st_mtime),
                         static_cast<long long>(st.st_size),
                         object.c_str());
        }
    }
    for (const auto &[key, count] : folded)
        std::fprintf(out, "%zu 0x%zx %zu\n", key.first,
                     static_cast<std::size_t>(key.second), count);
    std::fclose(out);
}

__attribute__((constructor)) void
start()
{
    struct sigaction action {};
    action.sa_sigaction = onProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    // A fork()ed child inherits the samples but not the timer.
    pthread_atfork(nullptr, nullptr, []() {
        taken.store(0);
        arm(true);
    });
    arm(true);
}

__attribute__((destructor)) void
finish()
{
    writeProfile();
}

} // namespace
