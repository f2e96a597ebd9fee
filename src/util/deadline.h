#ifndef BCDB_UTIL_DEADLINE_H_
#define BCDB_UTIL_DEADLINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace bcdb {

/// Declarative ceilings for one DCSat check. Every field treats 0 as
/// "unlimited"; a default-constructed BudgetLimits imposes nothing, and the
/// engine then runs the exact reference algorithms with zero budget
/// bookkeeping on any hot path (the decided results are bit-identical to a
/// build without this header).
///
/// The limits bound the two quantities that blow up in the CoNP-hard cases
/// (paper Theorem 1): wall-clock time and possible worlds evaluated. A
/// world cap bounds both the depth and the breadth of a clique search:
/// each maximal clique is charged as exactly one world, and every searched
/// component charges at least one.
struct BudgetLimits {
  /// Wall-clock ceiling per check, monotonic clock. 0 = unlimited.
  double deadline_ms = 0;
  /// Possible worlds evaluated (exhaustive + clique paths). 0 = unlimited.
  std::size_t max_worlds = 0;

  bool unlimited() const { return deadline_ms <= 0 && max_worlds == 0; }

  /// The same limits multiplied by `factor` (>= 1), for escalating retries:
  /// unlimited fields stay unlimited, bounded ones grow proportionally.
  BudgetLimits Scaled(double factor) const {
    BudgetLimits scaled = *this;
    if (scaled.deadline_ms > 0) scaled.deadline_ms *= factor;
    if (scaled.max_worlds > 0) {
      const double grown = static_cast<double>(scaled.max_worlds) * factor;
      scaled.max_worlds = grown >= static_cast<double>(SIZE_MAX)
                              ? SIZE_MAX
                              : static_cast<std::size_t>(grown);
    }
    return scaled;
  }
};

/// Runtime tracker for one check's BudgetLimits. A check runs on one thread,
/// and so does its Budget: the accounting is plain counters.
///
/// The deadline is enforced cooperatively: search loops call Expired() (or
/// ChargeWorld, which calls it) at their preemption points —
/// between Bron–Kerbosch expansions, between worlds, between components.
/// Reading the monotonic clock on every probe would dominate those
/// fine-grained loops, so the clock is polled once every
/// `kTicksPerClockPoll` probes; with preemption points microseconds apart
/// this bounds the overshoot far below the 10x-budget envelope the monitor
/// promises. Once any limit trips, the expired flag latches and every
/// subsequent probe returns true immediately.
class Budget {
 public:
  explicit Budget(const BudgetLimits& limits)
      : limits_(limits),
        has_deadline_(limits.deadline_ms > 0),
        deadline_(has_deadline_
                      ? Clock::now() + std::chrono::duration_cast<
                                           Clock::duration>(
                                           std::chrono::duration<double,
                                                                 std::milli>(
                                               limits.deadline_ms))
                      : Clock::time_point::max()) {}

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  const BudgetLimits& limits() const { return limits_; }

  /// Cooperative preemption probe: true once the deadline or any work limit
  /// has been exceeded. Cheap (one load) except for the amortized clock
  /// poll.
  bool Expired() const {
    if (expired_) return true;
    if (has_deadline_ && ticks_++ % kTicksPerClockPoll == 0 &&
        Clock::now() >= deadline_) {
      expired_ = true;
      return true;
    }
    return false;
  }

  /// Charge one evaluated possible world; false once over budget. Const so
  /// read-only search paths can hold `const Budget*`: charging mutates only
  /// the mutable accounting state, never observable through the search's
  /// own data.
  bool ChargeWorld() const {
    ++worlds_;
    if (limits_.max_worlds != 0 && worlds_ > limits_.max_worlds) {
      expired_ = true;
      return false;
    }
    return !Expired();
  }

  std::size_t worlds_charged() const { return worlds_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kTicksPerClockPoll = 64;

  const BudgetLimits limits_;
  const bool has_deadline_;
  const Clock::time_point deadline_;
  mutable std::size_t worlds_ = 0;
  /// Probes since construction; only amortizes the clock polls.
  mutable std::uint64_t ticks_ = 0;
  mutable bool expired_ = false;  // Latches: set once, never cleared.
};

}  // namespace bcdb

#endif  // BCDB_UTIL_DEADLINE_H_
