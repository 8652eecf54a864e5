/**
 * @file
 * Positional integer arguments of the examples. Each one goes through
 * the strict parseUintFlag (digits only, bounded), and a count that
 * must be positive is rejected here with a clean message instead of
 * tripping a simulator assertion later.
 */

#ifndef ISIM_EXAMPLES_ARGS_HH
#define ISIM_EXAMPLES_ARGS_HH

#include <cstdint>

#include "src/base/logging.hh"
#include "src/config/options.hh"

namespace isim {

/** Largest machine the examples build: the directory's sharer mask
 *  has one bit per node. */
constexpr std::uint64_t kMaxExampleCpus = 32;

/**
 * argv[index] parsed as an integer in [1, max], or `fallback` when
 * the argument is absent. `name` labels the error message.
 */
inline std::uint64_t
positiveArg(int argc, char **argv, int index, const char *name,
            std::uint64_t fallback,
            std::uint64_t max = ~std::uint64_t{0})
{
    if (argc <= index)
        return fallback;
    const std::uint64_t value = parseUintFlag(name, argv[index], max);
    if (value == 0)
        isim_fatal("%s: must be >= 1", name);
    return value;
}

} // namespace isim

#endif // ISIM_EXAMPLES_ARGS_HH
