// Wall-clock stage deadline for cooperative cancellation.
//
// A Deadline is captured at stage entry from the configured per-stage
// budget; long-running loops (MGL's per-cell loop) call checkpoint() at
// safe points, which throws MclgError(Timeout) once the budget is exhausted.
// The guard catches the throw at the transaction boundary and rolls the
// stage back, so "over budget" degrades gracefully instead of wedging the
// pipeline.
#pragma once

#include <chrono>

#include "util/error.hpp"

namespace mclg {

class Deadline {
 public:
  /// Unlimited deadline (never expires).
  Deadline() = default;

  /// Expires `budgetSeconds` from now; <= 0 means unlimited.
  static Deadline after(double budgetSeconds) {
    Deadline d;
    if (budgetSeconds > 0.0) {
      d.limited_ = true;
      d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(budgetSeconds));
    }
    return d;
  }

  /// Already-expired deadline (used by fault injection to simulate budget
  /// exhaustion deterministically).
  static Deadline expired() {
    Deadline d;
    d.limited_ = true;
    d.expiry_ = Clock::now() - Clock::duration(1);
    return d;
  }

  /// The earlier-expiring of two deadlines; an unlimited deadline never
  /// wins over a limited one. Used to combine a per-stage budget with a
  /// request-scoped budget (serving: GuardConfig::requestDeadline).
  static Deadline earliest(const Deadline& a, const Deadline& b) {
    if (!a.limited_) return b;
    if (!b.limited_) return a;
    return a.expiry_ <= b.expiry_ ? a : b;
  }

  bool limited() const { return limited_; }
  bool expiredNow() const { return limited_ && Clock::now() >= expiry_; }

  /// Cancellation point: throws MclgError(Timeout) when expired.
  void checkpoint(const char* what) const {
    if (expiredNow()) {
      throw MclgError(std::string(what) + ": stage wall-clock budget exhausted",
                      ErrorKind::Timeout);
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool limited_ = false;
  Clock::time_point expiry_{};
};

}  // namespace mclg
