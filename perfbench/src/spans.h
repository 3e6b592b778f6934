/**
 * @file
 * In-memory span recorder for traced runs.
 *
 * Each span carries a name, an operation id shared by every span of one
 * query or ingest round, its start and end (seconds on the steady
 * clock) and its parent (the span open when it started). Spans are
 * recorded around every public program call the benchmark makes and
 * around each layer replay; nothing is written until the run ends.
 * When disabled (untraced runs) opening a span costs one branch.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII handle: the span ends when the handle dies or end() runs. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Spans *owner, size_t index) : owner_(owner), index_(index)
        {
        }
        Scope(Scope &&other) noexcept
            : owner_(other.owner_), index_(other.index_)
        {
            other.owner_ = nullptr;
        }
        Scope &operator=(Scope &&) = delete;
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { end(); }

        /** Closes the span; returns its duration in seconds (0 when
         *  tracing is off or the span was already closed). */
        double end();

      private:
        Spans *owner_ = nullptr;
        size_t index_ = 0;
    };

    /** Opens span @p name for operation @p id under the innermost open
     *  span. */
    Scope open(std::string_view name, uint64_t id);

    /** Writes every span as one JSON object per line: name, id,
     *  parent index, start/end in microseconds, and self time — the
     *  duration minus the part its direct children cover. */
    bool write(const std::string &path) const;

    size_t size() const { return recs_.size(); }

  private:
    struct Rec {
        std::string name;
        uint64_t id;
        int64_t parent;
        double start;
        double end;
    };
    /** Per record: duration minus its direct children's durations. */
    std::vector<double> selfTimes() const;

    bool enabled_;
    std::vector<Rec> recs_;
    std::vector<size_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
