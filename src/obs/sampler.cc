/**
 * @file
 * Timeline sampler implementation.
 */

#include "src/obs/sampler.hh"

#include <utility>

#include "src/base/logging.hh"

namespace isim::obs {

namespace {

std::uint64_t
satSub(std::uint64_t a, std::uint64_t b)
{
    return a >= b ? a - b : a;
}

} // namespace

TimelineSampler::TimelineSampler(Tick epoch_ticks, Source source)
    : epochTicks_(epoch_ticks), source_(std::move(source))
{
    isim_assert(epochTicks_ > 0, "epoch length must be positive");
    isim_assert(source_ != nullptr, "sampler needs a counter source");
}

void
TimelineSampler::start(Tick now)
{
    isim_assert(!started_, "sampler started twice");
    started_ = true;
    cur_ = now;
    // First boundary: the next grid line strictly after `now`, so a
    // start mid-grid yields a partial first epoch.
    next_ = (now / epochTicks_ + 1) * epochTicks_;
    prev_ = source_();
}

void
TimelineSampler::emitRow(Tick end)
{
    std::vector<std::uint64_t> cur = source_();
    isim_assert(cur.size() == prev_.size(),
                "counter source changed width mid-run");
    EpochRow row;
    row.epoch = cur_ / epochTicks_;
    row.start = cur_;
    row.end = end;
    // Saturating: a counter that went *backwards* (a stats reset the
    // sampler was not told about) contributes its post-reset value
    // instead of an underflowed garbage delta.
    row.delta.reserve(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i)
        row.delta.push_back(satSub(cur[i], prev_[i]));
    rows_.push_back(std::move(row));
    prev_ = std::move(cur);
    cur_ = end;
}

void
TimelineSampler::advance(Tick now)
{
    if (!started_ || finished_)
        return;
    while (now >= next_) {
        emitRow(next_);
        next_ += epochTicks_;
    }
}

void
TimelineSampler::finish(Tick now)
{
    if (!started_ || finished_)
        return;
    advance(now);
    if (now > cur_)
        emitRow(now); // trailing partial epoch
    finished_ = true;
}

void
TimelineSampler::rebase()
{
    if (started_ && !finished_)
        prev_ = source_();
}

} // namespace isim::obs
