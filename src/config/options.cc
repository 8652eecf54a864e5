/**
 * @file
 * Configuration parsing and the MachineConfig mapping.
 */

#include "src/config/options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/base/logging.hh"

namespace isim {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t b = 0, e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b &&
           std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

std::string
lower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

} // namespace

std::uint64_t
parseSize(const std::string &text)
{
    const std::string t = trim(text);
    if (t.empty())
        isim_fatal("empty size value");
    std::uint64_t scale = 1;
    std::string digits = t;
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(
            t.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        scale = suffix == 'K' ? kib : suffix == 'M' ? mib : gib;
        digits = t.substr(0, t.size() - 1);
    }
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
        isim_fatal("malformed size value '%s'", text.c_str());
    }
    return std::stoull(digits) * scale;
}

KvConfig
KvConfig::fromString(const std::string &text)
{
    KvConfig kv;
    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::string stripped = trim(line);
        if (stripped.empty())
            continue;
        const std::size_t eq = stripped.find('=');
        if (eq == std::string::npos) {
            isim_fatal("config line %d: expected 'key = value', got "
                       "'%s'",
                       line_no, stripped.c_str());
        }
        const std::string key = lower(trim(stripped.substr(0, eq)));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key.empty() || value.empty()) {
            isim_fatal("config line %d: empty key or value", line_no);
        }
        if (!kv.map_.emplace(key, value).second)
            isim_fatal("config line %d: duplicate key '%s'", line_no,
                       key.c_str());
    }
    return kv;
}

KvConfig
KvConfig::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        isim_fatal("cannot read config file: %s", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromString(buffer.str());
}

bool
KvConfig::has(const std::string &key) const
{
    return map_.count(key) != 0;
}

const std::string &
KvConfig::get(const std::string &key) const
{
    auto it = map_.find(key);
    if (it == map_.end())
        isim_fatal("missing config key '%s'", key.c_str());
    markRead(key);
    return it->second;
}

std::string
KvConfig::getOr(const std::string &key,
                const std::string &fallback) const
{
    markRead(key);
    auto it = map_.find(key);
    return it == map_.end() ? fallback : it->second;
}

std::uint64_t
KvConfig::getUint(const std::string &key, std::uint64_t fallback) const
{
    markRead(key);
    auto it = map_.find(key);
    if (it == map_.end())
        return fallback;
    const std::string &v = it->second;
    if (v.find_first_not_of("0123456789") != std::string::npos)
        isim_fatal("config key '%s': expected integer, got '%s'",
                   key.c_str(), v.c_str());
    return std::stoull(v);
}

double
KvConfig::getDouble(const std::string &key, double fallback) const
{
    markRead(key);
    auto it = map_.find(key);
    if (it == map_.end())
        return fallback;
    try {
        std::size_t pos = 0;
        const double v = std::stod(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing junk");
        return v;
    } catch (const std::exception &) {
        isim_fatal("config key '%s': expected number, got '%s'",
                   key.c_str(), it->second.c_str());
    }
}

bool
KvConfig::getBool(const std::string &key, bool fallback) const
{
    markRead(key);
    auto it = map_.find(key);
    if (it == map_.end())
        return fallback;
    const std::string v = lower(it->second);
    if (v == "true" || v == "yes" || v == "on" || v == "1")
        return true;
    if (v == "false" || v == "no" || v == "off" || v == "0")
        return false;
    isim_fatal("config key '%s': expected boolean, got '%s'",
               key.c_str(), it->second.c_str());
}

std::uint64_t
KvConfig::getSize(const std::string &key, std::uint64_t fallback) const
{
    markRead(key);
    auto it = map_.find(key);
    return it == map_.end() ? fallback : parseSize(it->second);
}

void
KvConfig::markRead(const std::string &key) const
{
    read_[key] = true;
}

std::string
KvConfig::firstUnread() const
{
    for (const auto &[key, value] : map_) {
        if (!read_.count(key))
            return key;
    }
    return "";
}

namespace {

IntegrationLevel
levelFromName(const std::string &name)
{
    const std::string n = lower(name);
    if (n == "conservative" || n == "cons")
        return IntegrationLevel::ConservativeBase;
    if (n == "base")
        return IntegrationLevel::Base;
    if (n == "l2")
        return IntegrationLevel::L2Int;
    if (n == "l2mc" || n == "l2+mc")
        return IntegrationLevel::L2McInt;
    if (n == "full" || n == "all")
        return IntegrationLevel::FullInt;
    isim_fatal("unknown integration level '%s' (want conservative | "
               "base | l2 | l2mc | full)",
               name.c_str());
}

L2Impl
implFromName(const std::string &name)
{
    const std::string n = lower(name);
    if (n == "offchip-direct" || n == "offchip-dm")
        return L2Impl::OffchipDirect;
    if (n == "offchip-assoc")
        return L2Impl::OffchipAssoc;
    if (n == "sram" || n == "onchip-sram")
        return L2Impl::OnchipSram;
    if (n == "dram" || n == "onchip-dram")
        return L2Impl::OnchipDram;
    isim_fatal("unknown L2 implementation '%s' (want offchip-direct | "
               "offchip-assoc | sram | dram)",
               name.c_str());
}

const char *
levelName(IntegrationLevel level)
{
    switch (level) {
      case IntegrationLevel::ConservativeBase:
        return "conservative";
      case IntegrationLevel::Base:
        return "base";
      case IntegrationLevel::L2Int:
        return "l2";
      case IntegrationLevel::L2McInt:
        return "l2mc";
      case IntegrationLevel::FullInt:
        return "full";
    }
    return "?";
}

const char *
implName(L2Impl impl)
{
    switch (impl) {
      case L2Impl::OffchipDirect:
        return "offchip-direct";
      case L2Impl::OffchipAssoc:
        return "offchip-assoc";
      case L2Impl::OnchipSram:
        return "sram";
      case L2Impl::OnchipDram:
        return "dram";
    }
    return "?";
}

} // namespace

MachineConfig
machineFromConfig(const KvConfig &kv)
{
    MachineConfig cfg;
    cfg.name = kv.getOr("machine.name", "from-config");
    cfg.numCpus = static_cast<unsigned>(
        kv.getUint("machine.cpus", cfg.numCpus));
    cfg.coresPerNode = static_cast<unsigned>(
        kv.getUint("machine.cores_per_node", cfg.coresPerNode));

    const std::string model =
        lower(kv.getOr("machine.cpu_model", "inorder"));
    if (model == "inorder" || model == "in-order") {
        cfg.cpuModel = CpuModel::InOrder;
    } else if (model == "ooo" || model == "out-of-order") {
        cfg.cpuModel = CpuModel::OutOfOrder;
    } else {
        isim_fatal("unknown cpu model '%s' (want inorder | ooo)",
                   model.c_str());
    }
    cfg.oooParams.width = static_cast<unsigned>(
        kv.getUint("ooo.width", cfg.oooParams.width));
    cfg.oooParams.window = static_cast<unsigned>(
        kv.getUint("ooo.window", cfg.oooParams.window));
    cfg.oooParams.lsPorts = static_cast<unsigned>(
        kv.getUint("ooo.ls_ports", cfg.oooParams.lsPorts));
    cfg.oooParams.mispredictEveryInstrs =
        kv.getDouble("ooo.mispredict_every",
                     cfg.oooParams.mispredictEveryInstrs);

    if (kv.has("machine.level"))
        cfg.level = levelFromName(kv.get("machine.level"));
    if (kv.has("machine.l2.impl"))
        cfg.l2Impl = implFromName(kv.get("machine.l2.impl"));
    cfg.l2.sizeBytes = kv.getSize("machine.l2.size", cfg.l2.sizeBytes);
    cfg.l2.assoc = static_cast<unsigned>(
        kv.getUint("machine.l2.assoc", cfg.l2.assoc));

    cfg.rac = kv.getBool("machine.rac.enabled", cfg.rac);
    cfg.racGeom.sizeBytes =
        kv.getSize("machine.rac.size", cfg.racGeom.sizeBytes);
    cfg.racGeom.assoc = static_cast<unsigned>(
        kv.getUint("machine.rac.assoc", cfg.racGeom.assoc));
    cfg.replicateCode =
        kv.getBool("machine.replicate_code", cfg.replicateCode);
    cfg.victimBufferEntries = static_cast<unsigned>(
        kv.getUint("machine.victim_buffer", cfg.victimBufferEntries));
    cfg.prefetchDegree = static_cast<unsigned>(
        kv.getUint("machine.prefetch_degree", cfg.prefetchDegree));
    cfg.mcOccupancy =
        kv.getUint("machine.mc_occupancy", cfg.mcOccupancy);
    cfg.pageColors = static_cast<unsigned>(
        kv.getUint("machine.page_colors", cfg.pageColors));

    WorkloadParams &w = cfg.workload;
    const std::string kind = lower(kv.getOr("workload.kind", "tpcb"));
    if (kind == "tpcb" || kind == "oltp") {
        w.kind = WorkloadKind::TpcB;
    } else if (kind == "dss" || kind == "dss-scan") {
        w.kind = WorkloadKind::DssScan;
    } else {
        isim_fatal("unknown workload kind '%s' (want tpcb | dss)",
                   kind.c_str());
    }
    w.dssStreamsPerCpu = static_cast<unsigned>(
        kv.getUint("workload.dss_streams_per_cpu", w.dssStreamsPerCpu));
    w.dssBlocksPerQuery =
        kv.getUint("workload.dss_blocks_per_query", w.dssBlocksPerQuery);
    w.transactions = kv.getUint("workload.transactions", w.transactions);
    w.warmupTransactions =
        kv.getUint("workload.warmup", w.warmupTransactions);
    w.branches = static_cast<unsigned>(
        kv.getUint("workload.branches", w.branches));
    w.accountsPerBranch = static_cast<unsigned>(
        kv.getUint("workload.accounts_per_branch", w.accountsPerBranch));
    w.serversPerCpu = static_cast<unsigned>(
        kv.getUint("workload.servers_per_cpu", w.serversPerCpu));
    w.blockBufferBytes =
        kv.getSize("workload.block_buffer", w.blockBufferBytes);
    w.seed = kv.getUint("workload.seed", w.seed);
    w.logWriteLatency =
        kv.getUint("workload.log_write_latency", w.logWriteLatency);
    w.clientThinkTime =
        kv.getUint("workload.think_time", w.clientThinkTime);

    const std::string unread = kv.firstUnread();
    if (!unread.empty())
        isim_fatal("unknown config key '%s'", unread.c_str());

    if (!validCombination(cfg.level, cfg.l2Impl)) {
        isim_fatal("config: %s cannot use a %s L2",
                   integrationLevelName(cfg.level),
                   l2ImplName(cfg.l2Impl));
    }
    return cfg;
}

std::string
machineToConfigText(const MachineConfig &cfg)
{
    std::ostringstream os;
    os << "# IntegraSim machine configuration\n";
    os << "machine.name = " << cfg.name << "\n";
    os << "machine.cpus = " << cfg.numCpus << "\n";
    os << "machine.cores_per_node = " << cfg.coresPerNode << "\n";
    os << "machine.cpu_model = "
       << (cfg.cpuModel == CpuModel::InOrder ? "inorder" : "ooo")
       << "\n";
    os << "machine.level = " << levelName(cfg.level) << "\n";
    os << "machine.l2.impl = " << implName(cfg.l2Impl) << "\n";
    os << "machine.l2.size = " << cfg.l2.sizeBytes / kib << "K\n";
    os << "machine.l2.assoc = " << cfg.l2.assoc << "\n";
    os << "machine.rac.enabled = " << (cfg.rac ? "true" : "false")
       << "\n";
    os << "machine.rac.size = " << cfg.racGeom.sizeBytes / kib << "K\n";
    os << "machine.rac.assoc = " << cfg.racGeom.assoc << "\n";
    os << "machine.replicate_code = "
       << (cfg.replicateCode ? "true" : "false") << "\n";
    os << "machine.victim_buffer = " << cfg.victimBufferEntries << "\n";
    os << "machine.prefetch_degree = " << cfg.prefetchDegree << "\n";
    os << "machine.mc_occupancy = " << cfg.mcOccupancy << "\n";
    os << "machine.page_colors = " << cfg.pageColors << "\n";
    os << "workload.kind = "
       << (cfg.workload.kind == WorkloadKind::TpcB ? "tpcb" : "dss")
       << "\n";
    os << "workload.transactions = " << cfg.workload.transactions
       << "\n";
    os << "workload.warmup = " << cfg.workload.warmupTransactions
       << "\n";
    os << "workload.branches = " << cfg.workload.branches << "\n";
    os << "workload.servers_per_cpu = " << cfg.workload.serversPerCpu
       << "\n";
    os << "workload.seed = " << cfg.workload.seed << "\n";
    return os.str();
}

namespace {

/** `--flag=value` matcher: fills `value` when `arg` starts the flag. */
bool
flagValue(const char *arg, const char *flag, std::string &value)
{
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    if (value.empty())
        isim_fatal("%s needs a value", flag);
    return true;
}

} // namespace

std::uint64_t
parseUintFlag(const char *flag, const std::string &text,
              std::uint64_t max)
{
    // strtoull alone would take leading blanks and a sign (wrapping
    // "-1" to 2^64-1) and clamp overflow to 2^64-1.
    const char *s = text.c_str();
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0')
        isim_fatal("%s: expected an unsigned integer, got '%s'", flag, s);
    if (errno == ERANGE || v > max) {
        isim_fatal("%s: %s is out of range (max %llu)", flag, s,
                   static_cast<unsigned long long>(max));
    }
    return v;
}

const char *
obsOptionsHelp()
{
    return "  --trace-out=FILE     write a Chrome trace_event JSON "
           "trace (Perfetto)\n"
           "  --trace-bin=FILE     write a binary capture for "
           "tools/itrace\n"
           "  --timeline-out=FILE  write the epoch timeline CSV\n"
           "  --epoch=TICKS        sampler epoch in simulated ns "
           "(default 1000000)\n"
           "  --trace-ring=N       event-ring capacity in events "
           "(default 262144)\n"
           "  --trace-bar=N        figure bar to observe (default 0)\n";
}

obs::ObsConfig
obsFromCommandLine(int &argc, char **argv)
{
    obs::ObsConfig cfg;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        char *arg = argv[i];
        std::string v;
        if (flagValue(arg, "--trace-out", v)) {
            cfg.traceOutPath = v;
        } else if (flagValue(arg, "--trace-bin", v)) {
            cfg.traceBinPath = v;
        } else if (flagValue(arg, "--timeline-out", v)) {
            cfg.timelineOutPath = v;
        } else if (flagValue(arg, "--epoch", v)) {
            cfg.epochTicks = parseUintFlag("--epoch", v);
            if (cfg.epochTicks == 0)
                isim_fatal("--epoch must be positive");
        } else if (flagValue(arg, "--trace-ring", v)) {
            cfg.ringCapacity = parseUintFlag("--trace-ring", v);
            if (cfg.ringCapacity == 0)
                isim_fatal("--trace-ring must be positive");
        } else if (flagValue(arg, "--trace-bar", v)) {
            cfg.traceBar = parseUintFlag("--trace-bar", v);
        } else {
            argv[out++] = arg; // not ours: keep it
        }
    }
    argc = out;
    return cfg;
}

} // namespace isim
