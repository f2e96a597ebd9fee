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
/// The limits bound the three quantities that blow up in the CoNP-hard
/// cases (paper Theorem 1): wall-clock time, maximal cliques enumerated
/// (the monotone algorithms), and possible worlds materialized/evaluated
/// (the exhaustive algorithm). `max_components` additionally caps how many
/// connected components OptDCSat searches, which bounds the *breadth* of a
/// check the way `max_cliques` bounds its depth.
struct BudgetLimits {
  /// Wall-clock ceiling per check, monotonic clock. 0 = unlimited.
  double deadline_ms = 0;
  /// Maximal cliques enumerated across all components. 0 = unlimited.
  std::size_t max_cliques = 0;
  /// Possible worlds evaluated (exhaustive + clique paths). 0 = unlimited.
  std::size_t max_worlds = 0;
  /// Connected components searched (OptDCSat). 0 = unlimited.
  std::size_t max_components = 0;

  bool unlimited() const {
    return deadline_ms <= 0 && max_cliques == 0 && max_worlds == 0 &&
           max_components == 0;
  }

  /// The same limits multiplied by `factor` (>= 1), for escalating retries:
  /// unlimited fields stay unlimited, bounded ones grow proportionally.
  BudgetLimits Scaled(double factor) const {
    BudgetLimits scaled = *this;
    if (scaled.deadline_ms > 0) scaled.deadline_ms *= factor;
    auto scale = [factor](std::size_t limit) -> std::size_t {
      if (limit == 0) return 0;
      const double grown = static_cast<double>(limit) * factor;
      return grown >= static_cast<double>(SIZE_MAX)
                 ? SIZE_MAX
                 : static_cast<std::size_t>(grown);
    };
    scaled.max_cliques = scale(scaled.max_cliques);
    scaled.max_worlds = scale(scaled.max_worlds);
    scaled.max_components = scale(scaled.max_components);
    return scaled;
  }
};

/// Runtime tracker for one check's BudgetLimits. A check runs on one thread,
/// and so does its Budget: the accounting is plain counters.
///
/// The deadline is enforced cooperatively: search loops call Expired() (or
/// one of the Charge functions, which call it) at their preemption points —
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

  // The Charge functions are const so read-only search paths can hold
  // `const Budget*`: charging mutates only the mutable accounting state,
  // never observable through the search's own data.
  /// Charge one enumerated maximal clique; false once over budget.
  bool ChargeClique() const {
    return Charge(cliques_, limits_.max_cliques) && !Expired();
  }
  /// Charge one evaluated possible world; false once over budget.
  bool ChargeWorld() const {
    return Charge(worlds_, limits_.max_worlds) && !Expired();
  }
  /// Charge one searched component; false once over budget.
  bool ChargeComponent() const {
    return Charge(components_, limits_.max_components) && !Expired();
  }

  std::size_t cliques_charged() const { return cliques_; }
  std::size_t worlds_charged() const { return worlds_; }
  std::size_t components_charged() const { return components_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kTicksPerClockPoll = 64;

  bool Charge(std::size_t& counter, std::size_t limit) const {
    ++counter;
    if (limit != 0 && counter > limit) {
      expired_ = true;
      return false;
    }
    return true;
  }

  const BudgetLimits limits_;
  const bool has_deadline_;
  const Clock::time_point deadline_;
  mutable std::size_t cliques_ = 0;
  mutable std::size_t worlds_ = 0;
  mutable std::size_t components_ = 0;
  /// Probes since construction; only amortizes the clock polls.
  mutable std::uint64_t ticks_ = 0;
  mutable bool expired_ = false;  // Latches: set once, never cleared.
};

}  // namespace bcdb

#endif  // BCDB_UTIL_DEADLINE_H_
