/**
 * @file
 * Campaign supervisor: in-process runner and the fork/exec pool.
 */

#include "src/campaign/supervisor.hh"

#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/merge.hh"
#include "src/campaign/protocol.hh"
#include "src/campaign/worker.hh"

namespace isim {
namespace campaign {

namespace {

/** Resolve our own binary for re-exec (--worker mode). */
std::string
selfExePath(const std::string &fallback)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return fallback;
}

/**
 * Guard against resuming into a different study: the output
 * directory remembers the spec bytes it was created for.
 */
void
checkSpecCopy(const CampaignRunConfig &config)
{
    switch (specDrift(config.specPath, config.outDir)) {
      case SpecDrift::Match:
        return;
      case SpecDrift::Drifted:
        isim_fatal("'%s' was created for a different spec than "
                   "'%s'; use a fresh --out directory (or restore "
                   "the original spec) instead of mixing studies",
                   config.outDir.c_str(), config.specPath.c_str());
        return;
      case SpecDrift::Missing:
        writeFileAtomic(config.outDir + "/campaign.spec.json",
                        readFileOrDie(config.specPath));
        return;
    }
}

/** Worker threads per process (must match the worker's own math). */
unsigned
threadsPerWorker(const RunOptions &options)
{
    if (options.jobs > 0)
        return options.jobs;
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    return std::max(1u, hw / std::max(1u, options.procs));
}

void
finishSummary(const CampaignSpec &spec, const CampaignTally &tally)
{
    isim_inform("campaign '%s': %zu bars (%zu aliases): %zu cached, "
                "%zu ran, %zu failed; images built=%zu restored=%zu",
                spec.name.c_str(), tally.total, tally.aliases,
                tally.cached, tally.ran, tally.failed,
                tally.imagesBuilt, tally.imagesRestored);
}

/** Merge the finished queue into campaign.json; the final exit code. */
int
mergeAndReport(const CampaignRunConfig &config,
               const CampaignPlan &plan, const CampaignQueue &queue)
{
    std::vector<BarStatus> status(plan.bars.size());
    for (const CampaignBar &bar : plan.bars) {
        status[bar.index].ok = queue.barOk(bar.index);
        status[bar.index].reason = queue.failReason(bar.index);
    }
    const std::string merged =
        mergeCampaignJson(plan, config.outDir, status);
    writeFileAtomic(config.outDir + "/campaign.json", merged);
    finishSummary(plan.spec, queue.tally());
    return queue.tally().failed == 0 ? 0 : 2;
}

// ----------------------------------------------------------------
// In-process runner (--procs=1): sequential, no pipes involved.
// ----------------------------------------------------------------

int
runInProcess(const CampaignRunConfig &config, const CampaignPlan &plan)
{
    CampaignQueue queue(plan, config.outDir);
    long completions = 0;
    for (;;) {
        if (config.stopAfter >= 0 && completions >= config.stopAfter &&
            !queue.finished()) {
            finishSummary(plan.spec, queue.tally());
            isim_inform("campaign '%s': stopped after %ld "
                        "completions; rerun to resume",
                        plan.spec.name.c_str(), completions);
            return 3;
        }
        const std::optional<Lease> lease = queue.next();
        if (!lease) {
            isim_assert(queue.finished(),
                        "scheduler stalled with work remaining");
            break;
        }
        const CampaignBar &bar = plan.bars[lease->index];
        if (config.options.verbose)
            isim_inform("campaign: %s %s", leaseModeName(lease->mode),
                        bar.name.c_str());
        BarOutcome outcome;
        {
            const ScopedPanicThrow guard;
            outcome = runLeasedBar(plan, *lease, config.outDir);
        }
        if (outcome.ok) {
            queue.complete(*lease);
        } else {
            isim_warn("campaign: %s failed: %s", bar.name.c_str(),
                      outcome.reason.c_str());
            queue.fail(*lease, outcome.reason);
        }
        ++completions;
    }
    return mergeAndReport(config, plan, queue);
}

// ----------------------------------------------------------------
// Multi-process pool.
// ----------------------------------------------------------------

struct WorkerProc
{
    pid_t pid = -1;
    int inFd = -1;  //!< write end of the worker's stdin
    int outFd = -1; //!< read end of the worker's stdout
    std::string buf;
    std::vector<Lease> outstanding;
    bool helloSeen = false;
    std::uint64_t progDone = 0;    //!< last PROG: leases finished
    std::uint64_t progRunning = 0; //!< last PROG: leases in flight
};

/** Fork/exec one worker with explicit flags mirroring our options. */
WorkerProc
spawnWorker(const CampaignRunConfig &config, const std::string &exe,
            unsigned threads)
{
    std::vector<std::string> args = {
        exe,
        "--worker",
        "--spec",
        config.specPath,
        "--out",
        config.outDir,
        "--jobs",
        std::to_string(threads),
        "--audit-period",
        std::to_string(config.options.auditPeriod),
        "--quiet",
    };
    if (config.options.txns) {
        args.push_back("--txns");
        args.push_back(std::to_string(*config.options.txns));
    }
    if (config.options.warmup) {
        args.push_back("--warmup");
        args.push_back(std::to_string(*config.options.warmup));
    }
    if (config.options.seed) {
        args.push_back("--seed");
        args.push_back(std::to_string(*config.options.seed));
    }
    // The sampling schedule is part of every bar's identity
    // (resultKey folds it in), so workers must expand under the same
    // --sample-* flags or their keys would diverge from ours.
    if (config.options.sample.enabled()) {
        const sample::SampleSpec &s = config.options.sample;
        args.push_back("--sample-ff");
        args.push_back(std::to_string(s.ff));
        args.push_back("--sample-measure");
        args.push_back(std::to_string(s.measure));
        if (s.windows) {
            args.push_back("--sample-windows");
            args.push_back(std::to_string(s.windows));
        }
        if (s.warm != sample::kAutoWarm) {
            args.push_back("--sample-warm");
            args.push_back(std::to_string(s.warm));
        }
        args.push_back("--sample-mode");
        args.push_back(sample::sampleModeName(s.mode));
    }
    // Profiling is per-process opt-in: forwarding the flag turns on
    // the self-profiler in each worker, which then writes per-bar
    // prof.json sidecars (the path itself is unused in worker mode).
    if (!config.options.profOut.empty()) {
        args.push_back("--prof-out");
        args.push_back(config.options.profOut);
    }

    int toWorker[2];
    int fromWorker[2];
    if (::pipe(toWorker) != 0 || ::pipe(fromWorker) != 0)
        isim_fatal("pipe() failed: %s", std::strerror(errno));

    const pid_t pid = ::fork();
    if (pid < 0)
        isim_fatal("fork() failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::dup2(toWorker[0], STDIN_FILENO);
        ::dup2(fromWorker[1], STDOUT_FILENO);
        ::close(toWorker[0]);
        ::close(toWorker[1]);
        ::close(fromWorker[0]);
        ::close(fromWorker[1]);
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        ::execv(exe.c_str(), argv.data());
        // Exec failed; nothing sane to do but die — the supervisor
        // sees EOF and counts a crash.
        ::_exit(127);
    }

    ::close(toWorker[0]);
    ::close(fromWorker[1]);
    WorkerProc w;
    w.pid = pid;
    w.inFd = toWorker[1];
    w.outFd = fromWorker[0];
    return w;
}

void
closeWorker(WorkerProc &w)
{
    if (w.inFd >= 0)
        ::close(w.inFd);
    if (w.outFd >= 0)
        ::close(w.outFd);
    w.inFd = -1;
    w.outFd = -1;
}

/** Blocking waitpid with EINTR retry. */
void
reapWorker(WorkerProc &w)
{
    if (w.pid < 0)
        return;
    int wstatus = 0;
    while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
}

int
runPool(const CampaignRunConfig &config, const CampaignPlan &plan)
{
    // A worker death must surface as EOF on its pipe, not kill us.
    std::signal(SIGPIPE, SIG_IGN);

    CampaignQueue queue(plan, config.outDir);
    const std::string exe = selfExePath(config.exePath);
    const unsigned threads = threadsPerWorker(config.options);
    const unsigned procs = std::max(1u, config.options.procs);

    std::vector<WorkerProc> workers;
    workers.reserve(procs);
    for (unsigned i = 0; i < procs; ++i)
        workers.push_back(spawnWorker(config, exe, threads));

    // Enough respawns to survive a flaky worker, small enough that a
    // deterministic startup crash cannot loop forever.
    unsigned crashBudget = 2 * procs + 4;
    long completions = 0;
    bool stopIssuing = false;

    // Live telemetry (PROG heartbeats). steady_clock only paces the
    // console rendering and the ETA estimate; results never see it.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point poolStart = Clock::now();
    Clock::time_point lastRender = poolStart - std::chrono::hours(1);

    const auto renderProgress = [&](const WorkerProc &w,
                                    const WireMessage &msg) {
        const Clock::time_point now = Clock::now();
        if (now - lastRender < std::chrono::seconds(1))
            return;
        lastRender = now;
        const CampaignTally t = queue.tally();
        const std::size_t settled = t.cached + t.ran + t.failed;
        std::uint64_t running = 0;
        for (const WorkerProc &p : workers)
            if (p.pid >= 0)
                running += p.progRunning;
        std::string eta;
        if (completions > 0 && settled < t.total) {
            const double elapsed =
                std::chrono::duration<double>(now - poolStart).count();
            const double perLease =
                elapsed / static_cast<double>(completions);
            const long remain = std::lround(
                perLease * static_cast<double>(t.total - settled));
            eta = ", ~" + std::to_string(remain) + "s left";
        }
        const char *cell =
            msg.hasCurrent && msg.current < plan.bars.size()
                ? plan.bars[msg.current].name.c_str()
                : "(idle)";
        isim_inform("campaign: %zu/%zu bars settled (%zu cached, %zu "
                    "failed), %llu running, worker %d on %s%s",
                    settled, t.total, t.cached, t.failed,
                    static_cast<unsigned long long>(running),
                    static_cast<int>(w.pid), cell, eta.c_str());
    };

    const auto handleLine = [&](WorkerProc &w,
                                const std::string &line) {
        WireMessage msg;
        std::string err;
        if (!decodeMessage(line, msg, &err))
            isim_fatal("campaign: protocol error from worker %d: %s",
                       static_cast<int>(w.pid), err.c_str());
        if (msg.kind == WireMessage::Kind::Hello) {
            if (msg.version != kProtocolVersion ||
                msg.nbars != plan.bars.size()) {
                isim_fatal("campaign: worker expanded %llu bars, "
                           "supervisor %zu — spec or binary "
                           "drift between processes",
                           static_cast<unsigned long long>(msg.nbars),
                           plan.bars.size());
            }
            w.helloSeen = true;
            return;
        }
        if (msg.kind == WireMessage::Kind::Prog) {
            // Pure telemetry: record the worker's view, maybe render.
            w.progDone = msg.done;
            w.progRunning = msg.running;
            renderProgress(w, msg);
            return;
        }
        if (msg.kind != WireMessage::Kind::Done &&
            msg.kind != WireMessage::Kind::Fail) {
            isim_fatal("campaign: unexpected message from worker: %s",
                       line.c_str());
        }
        const auto it = std::find_if(
            w.outstanding.begin(), w.outstanding.end(),
            [&](const Lease &l) {
                return l.index == msg.index && l.mode == msg.mode;
            });
        if (it == w.outstanding.end())
            isim_fatal("campaign: worker answered for a lease it "
                       "does not hold (bar %zu)",
                       msg.index);
        const Lease lease = *it;
        w.outstanding.erase(it);
        const CampaignBar &bar = plan.bars[lease.index];
        if (msg.kind == WireMessage::Kind::Done) {
            if (config.options.verbose)
                isim_inform("campaign: %s %s",
                            leaseModeName(lease.mode),
                            bar.name.c_str());
            queue.complete(lease);
        } else {
            isim_warn("campaign: %s failed: %s", bar.name.c_str(),
                      msg.reason.c_str());
            queue.fail(lease, msg.reason);
        }
        ++completions;
        if (config.stopAfter >= 0 && completions >= config.stopAfter)
            stopIssuing = true;
    };

    for (;;) {
        // Keep every live worker's pipeline full.
        bool anyOutstanding = false;
        for (WorkerProc &w : workers) {
            if (w.pid < 0)
                continue;
            while (!stopIssuing && w.outstanding.size() < threads) {
                const std::optional<Lease> lease = queue.next();
                if (!lease)
                    break;
                WireMessage msg;
                msg.kind = WireMessage::Kind::Bar;
                msg.index = lease->index;
                msg.mode = lease->mode;
                if (!writeMessage(w.inFd, msg)) {
                    // Dead worker; the EOF path below reaps it.
                    queue.requeue(*lease);
                    break;
                }
                w.outstanding.push_back(*lease);
            }
            anyOutstanding |= !w.outstanding.empty();
        }
        if (!anyOutstanding && (stopIssuing || queue.finished()))
            break;

        std::vector<pollfd> fds;
        std::vector<std::size_t> who;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (workers[i].pid < 0)
                continue;
            fds.push_back({workers[i].outFd, POLLIN, 0});
            who.push_back(i);
        }
        if (fds.empty())
            isim_fatal("campaign: every worker is gone with work "
                       "remaining");
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            isim_fatal("poll() failed: %s", std::strerror(errno));
        }

        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (fds[k].revents == 0)
                continue;
            WorkerProc &w = workers[who[k]];
            char chunk[4096];
            const ssize_t n = ::read(w.outFd, chunk, sizeof(chunk));
            if (n > 0) {
                w.buf.append(chunk, static_cast<std::size_t>(n));
                std::size_t pos;
                while ((pos = w.buf.find('\n')) !=
                       std::string::npos) {
                    const std::string line = w.buf.substr(0, pos);
                    w.buf.erase(0, pos + 1);
                    handleLine(w, line);
                }
                continue;
            }
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            // EOF: the worker died (or exited on a protocol error).
            // Its leases go back to the queue; a replacement keeps
            // the pool at strength unless we are already draining.
            isim_warn("campaign: worker %d died with %zu leases in "
                      "flight; requeueing",
                      static_cast<int>(w.pid), w.outstanding.size());
            for (const Lease &lease : w.outstanding)
                queue.requeue(lease);
            w.outstanding.clear();
            closeWorker(w);
            reapWorker(w);
            if (!stopIssuing && !queue.finished()) {
                if (crashBudget == 0)
                    isim_fatal("campaign: workers keep crashing; "
                               "giving up");
                --crashBudget;
                w = spawnWorker(config, exe, threads);
            }
        }
    }

    // Drain: tell everyone to finish up, then reap.
    for (WorkerProc &w : workers) {
        if (w.pid < 0)
            continue;
        WireMessage quit;
        quit.kind = WireMessage::Kind::Quit;
        writeMessage(w.inFd, quit);
        closeWorker(w);
        reapWorker(w);
    }

    if (stopIssuing && !queue.finished()) {
        finishSummary(plan.spec, queue.tally());
        isim_inform("campaign '%s': stopped after %ld completions; "
                    "rerun to resume",
                    plan.spec.name.c_str(), completions);
        return 3;
    }
    return mergeAndReport(config, plan, queue);
}

} // namespace

SpecDrift
specDrift(const std::string &spec_path, const std::string &out_dir)
{
    std::ifstream existing(out_dir + "/campaign.spec.json",
                           std::ios::binary);
    if (!existing)
        return SpecDrift::Missing;
    std::ostringstream buffer;
    buffer << existing.rdbuf();
    return buffer.str() == readFileOrDie(spec_path)
               ? SpecDrift::Match
               : SpecDrift::Drifted;
}

int
runCampaign(const CampaignRunConfig &config)
{
    const CampaignSpec spec = loadCampaignSpec(config.specPath);
    const CampaignPlan plan = expandCampaign(spec, config.options);
    isim_assert(!plan.bars.empty(), "campaign expands to no bars");

    std::filesystem::create_directories(config.outDir + "/bars");
    std::filesystem::create_directories(config.outDir + "/ckpt");
    checkSpecCopy(config);

    if (config.options.procs <= 1)
        return runInProcess(config, plan);
    return runPool(config, plan);
}

} // namespace campaign
} // namespace isim
