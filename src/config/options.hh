/**
 * @file
 * Plain-text configuration: a small `key = value` format (comments
 * with '#', dotted keys) and the mapping onto MachineConfig /
 * WorkloadParams, so experiments can be described in files instead of
 * C++ (see examples/run_config and examples/configs/).
 */

#ifndef ISIM_CONFIG_OPTIONS_HH
#define ISIM_CONFIG_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>

#include "src/core/machine.hh"
#include "src/obs/observability.hh"

namespace isim {

/**
 * Parsed key/value configuration. Keys are dotted lowercase paths
 * ("machine.l2.size"); values are uninterpreted strings until read.
 */
class KvConfig
{
  public:
    KvConfig() = default;

    /** Parse from text; fatal() on malformed lines. */
    static KvConfig fromString(const std::string &text);
    /** Parse a file; fatal() if it cannot be read. */
    static KvConfig fromFile(const std::string &path);

    bool has(const std::string &key) const;
    /** Raw value; fatal() if missing. */
    const std::string &get(const std::string &key) const;
    std::string getOr(const std::string &key,
                      const std::string &fallback) const;

    /** Typed readers (fatal() on malformed values). */
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    /** Size with suffix: "64", "32K", "2M", "1G". */
    std::uint64_t getSize(const std::string &key,
                          std::uint64_t fallback) const;

    const std::map<std::string, std::string> &entries() const
    {
        return map_;
    }

    /** Keys read so far (for unknown-key detection). */
    void markRead(const std::string &key) const;
    /** First entry never read by a getter; empty if none. */
    std::string firstUnread() const;

  private:
    std::map<std::string, std::string> map_;
    mutable std::map<std::string, bool> read_;
};

/** Parse "64" / "32K" / "2M" / "1G" into bytes; fatal() on junk. */
std::uint64_t parseSize(const std::string &text);

/**
 * Build a full machine configuration from a KvConfig. Unknown keys
 * are fatal (they are invariably typos). See examples/configs/ for
 * the key reference.
 */
MachineConfig machineFromConfig(const KvConfig &kv);

/** Render a MachineConfig back to config text (round-trippable). */
std::string machineToConfigText(const MachineConfig &config);

/**
 * Parse the observability flags every figure binary accepts out of
 * argv, consuming the recognized ones (argc/argv are rewritten so
 * remaining arguments keep their order):
 *
 *   --trace-out=FILE     write a Chrome trace_event JSON trace
 *   --trace-bin=FILE     write a binary capture for tools/itrace
 *   --timeline-out=FILE  write the epoch timeline CSV
 *   --epoch=TICKS        sampler epoch in simulated ns
 *   --trace-ring=N       event-ring capacity (events, power of two
 *                        not required)
 *   --trace-bar=N        which bar of the figure to observe
 *
 * fatal() on a malformed value. `--help`/`-h` prints usage (including
 * obsOptionsHelp()) and exits.
 */
obs::ObsConfig obsFromCommandLine(int &argc, char **argv);

/** One-per-line description of the observability flags. */
const char *obsOptionsHelp();

/**
 * Strict decimal value of an integer flag: fatal() unless `text` is
 * all digits and at most `max` (malformed, signed, blank-padded and
 * overflowing values are all errors).
 */
std::uint64_t parseUintFlag(const char *flag, const std::string &text,
                            std::uint64_t max = ~std::uint64_t{0});

} // namespace isim

#endif // ISIM_CONFIG_OPTIONS_HH
